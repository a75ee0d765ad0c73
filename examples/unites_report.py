#!/usr/bin/env python
"""UNITES in anger: instrument a mixed workload, print the system report.

A small site runs three concurrent sessions through one ADAPTIVE host —
a voice call, a file transfer, and an OLTP client — each instrumented via
its ACD's Transport Measurement Component (Table 2).  At the end, UNITES
renders the per-connection / per-host / systemwide report of Figure 6 and
a per-mechanism instruction breakdown for one session (the whitebox
"instructions per protocol function" metric of §4.3).

Run:  python examples/unites_report.py
"""

from repro import ACD, APP_PROFILES, TMC, AdaptiveSystem
from repro.apps.bulk import BulkSource
from repro.apps.rpc import EchoResponder, RequestResponseClient
from repro.apps.voice import VoiceSource
from repro.netsim.profiles import ethernet_10, star
from repro.tko.message import TKOMessage
from repro.tko.pdu import PduType
from repro.unites.present import render_table

METRICS = ("throughput_bps", "latency", "jitter", "retransmissions",
           "loss_rate", "cpu_utilization")


def open_app(node, app, participants, port, tmc=True):
    p = APP_PROFILES[app]
    acd = ACD(
        participants=participants,
        quantitative=p.quantitative(),
        qualitative=p.qualitative(),
        service_port=port,
        tmc=TMC(metrics=METRICS, sampling_interval=0.25) if tmc else None,
    )
    return node.mantts.open(acd)


def main() -> None:
    system = AdaptiveSystem(seed=11)
    system.attach_network(
        star(system.sim, ethernet_10(), ["hub-host", "peer1", "peer2", "peer3"],
             rng=system.rng)
    )
    hub = system.node("hub-host")
    peers = {n: system.node(n) for n in ("peer1", "peer2", "peer3")}

    # three services, one per peer
    peers["peer1"].mantts.register_service(7001, on_deliver=lambda d, m: None)
    peers["peer2"].mantts.register_service(7002, on_deliver=lambda d, m: None)
    responder = EchoResponder(response_bytes=256)
    peers["peer3"].mantts.register_service(7003, on_session=responder.attach)

    voice = open_app(hub, "voice-conversation", ("peer1",), 7001)
    transfer = open_app(hub, "file-transfer", ("peer2",), 7002)
    oltp = open_app(hub, "oltp", ("peer3",), 7003)
    system.unites.watch_host(hub.host, interval=0.25)
    system.run(until=0.5)

    VoiceSource(system.sim, voice, rng=system.rng.stream("v")).start(0.5)
    BulkSource(system.sim, transfer, total_bytes=2_000_000, chunk_bytes=8192).start(0.5)
    rpc = RequestResponseClient(system.sim, oltp, rng=system.rng.stream("r"),
                                think_time=0.05)
    oltp.on_deliver = rpc.on_deliver
    rpc.start(0.6)

    system.run(until=8.0)

    print(system.unites.report())

    # whitebox: per-mechanism instruction breakdown for the voice session
    s = voice.session
    pdu = s.make_pdu(PduType.DATA)
    pdu.message = TKOMessage(b"\x55" * 160)
    rows = [
        {"protocol function": k, "instructions/PDU": v}
        for k, v in sorted(
            s.executor.pipeline.breakdown(pdu.data_size, pdu.compact).items(),
            key=lambda kv: -kv[1]
        )
    ]
    print()
    print(render_table(rows, ["protocol function", "instructions/PDU"],
                       title=f"== instruction breakdown: voice PDU "
                             f"({s.cfg.describe()}) =="))

    assert rpc.completed > 10
    for conn in (voice, transfer, oltp):
        assert system.unites.repository.series("throughput_bps", "session", conn.ref)
    print("\nall three sessions instrumented; "
          f"repository holds {len(system.unites.repository)} samples")


if __name__ == "__main__":
    main()
