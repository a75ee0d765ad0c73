"""Isolated probes: one public call (or one tight loop) timed by itself.

The traced run says where a workload's time goes; these say what one
operation of a layer costs with nothing else running.  Each probe
reports a median over batches so a single scheduler hiccup cannot move
it.  All of them finish in a few seconds together.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Dict, List

from stats import quantile

# ----------------------------------------------------------------------
# sim: ACK-clocked timer churn (the retransmission-timer pattern)
# ----------------------------------------------------------------------
RTO, ACK_DELAY, LOSS_EVERY, FLOWS = 0.05, 0.01, 5, 512


class _ChurnFlow:
    """send -> arm RTO -> an ACK cancels it (4 in 5) or it fires."""

    __slots__ = ("sim", "timer", "sent")

    def __init__(self, sim) -> None:
        from repro.sim.timers import Timer

        self.sim = sim
        self.timer = Timer(sim, self.send, interval=RTO)
        self.sent = 0

    def send(self) -> None:
        self.sent += 1
        self.timer.schedule(RTO)
        if self.sent % LOSS_EVERY != 0:
            self.sim.schedule_transient(ACK_DELAY, self._on_ack)

    def _on_ack(self) -> None:
        self.timer.cancel()
        self.send()


def timer_churn(events: int = 200_000) -> Dict[str, float]:
    from repro.sim.kernel import Simulator

    sim = Simulator()
    flows = [_ChurnFlow(sim) for _ in range(FLOWS)]
    for flow in flows:
        flow.send()
    w0 = perf_counter()
    sim.run(max_events=events)
    wall = perf_counter() - w0
    return {"sim.timer_churn_events_per_s": sim.events_dispatched / wall}


# ----------------------------------------------------------------------
# netsim.frame: the v2 wire codec on one 1024-byte data frame
# ----------------------------------------------------------------------
def _median_us(fn, batch: int, batches: int) -> float:
    """Median over ``batches`` of the mean per-call microseconds."""
    samples = []
    for _ in range(batches):
        w0 = perf_counter()
        for _ in range(batch):
            fn()
        samples.append((perf_counter() - w0) / batch * 1e6)
    return statistics.median(samples)


def frame_codec(batch: int = 500, batches: int = 9) -> Dict[str, float]:
    from repro.netsim.frame import Frame, decode_frame, encode_frame_into
    from repro.tko.message import TKOMessage
    from repro.tko.pdu import PDU, PduType

    pdu = PDU(PduType.DATA, 1, src_port=7000, dst_port=7000)
    pdu.seq, pdu.msg_id = 7, 7
    pdu.message = TKOMessage(b"\xa5" * 1024)
    frame = Frame("A", "B", size=1024 + 40, payload=pdu)
    buf = bytearray(4096)
    wire = bytes(encode_frame_into(frame, buf))

    def decode() -> None:
        decoded = decode_frame(wire)
        decoded.payload.message.release_payload()

    return {
        "netsim.frame.encode_us": _median_us(
            lambda: encode_frame_into(frame, buf), batch, batches),
        "netsim.frame.decode_us": _median_us(decode, batch, batches),
    }


# ----------------------------------------------------------------------
# tko / mantts: one send, one Stage I + II transformation
# ----------------------------------------------------------------------
def _lan_state():
    from repro.mantts.monitor import NetworkState

    return NetworkState("A", "B", True, 0.004, 0.004, 10e6, 1500, 1e-6, 0.0, 0.0, 3)


def _teleconference_acd(throughput_bps: float):
    from repro.mantts.acd import ACD
    from repro.mantts.qos import QuantitativeQoS
    from repro.mantts.tsc import APP_PROFILES

    profile = APP_PROFILES["tele-conferencing"]
    base = profile.quantitative()
    quant = QuantitativeQoS(
        avg_throughput_bps=throughput_bps, loss_tolerance=base.loss_tolerance,
        max_latency=base.max_latency, max_jitter=base.max_jitter,
        duration=base.duration, message_size=base.message_size)
    return ACD(participants=("B",), quantitative=quant,
               qualitative=profile.qualitative())


def tko_send(messages: int = 1200) -> Dict[str, float]:
    """Host latency of ``session.send()`` on the teleconference SCS,
    default executor; the simulator advances between sends, untimed."""
    from repro.host.nic import Host
    from repro.mantts.transform import specify_scs
    from repro.mantts.tsc import APP_PROFILES
    from repro.netsim.profiles import ethernet_10, linear_path
    from repro.sim.kernel import Simulator
    from repro.sim.rng import RngStreams
    from repro.tko.protocol import TKOProtocol

    base = APP_PROFILES["tele-conferencing"].quantitative().avg_throughput_bps
    cfg = specify_scs(_teleconference_acd(base), _lan_state()).config
    sim = Simulator()
    net = linear_path(sim, ethernet_10(), ("A", "B"), n_switches=2, rng=RngStreams(5))
    pa, pb = (TKOProtocol(Host(sim, net, name, mips=25.0)) for name in "AB")
    delivered: List[int] = []

    def on_session(session) -> None:
        session.on_deliver = lambda data, meta: delivered.append(len(data))

    pb.listen(7000, lambda pdu, frame: cfg, on_session)
    sender = pa.create_session(cfg, "B", 7000)
    sender.connect()
    sim.run(until=0.05)
    msg = b"\xa5" * 512
    samples = []
    t = 0.05
    for _ in range(messages):
        t += 0.02   # the 50 Hz conference tick
        sim.run(until=t)
        w0 = perf_counter()
        sender.send(msg)
        samples.append((perf_counter() - w0) * 1e6)
    sim.run(until=t + 2.0)
    if len(delivered) != messages:
        raise RuntimeError(f"tko_send probe delivered {len(delivered)}/{messages}")
    samples.sort()
    return {"tko.send_us_p50": quantile(samples, 0.50),
            "tko.send_us_p99": quantile(samples, 0.99)}


def mantts_transform(batch: int = 200, batches: int = 9) -> Dict[str, float]:
    """``select_tsc`` + ``specify_scs`` on an ACD no cache has seen (the
    throughput differs every call, so nothing keyed on the ACD can hit)."""
    from repro.mantts.transform import specify_scs
    from repro.mantts.tsc import select_tsc

    state = _lan_state()
    acds = iter([_teleconference_acd(64_000.0 + i) for i in range(batch * batches)])

    def transform() -> None:
        acd = next(acds)
        specify_scs(acd, state, tsc=select_tsc(acd))

    return {"mantts.transform_us": _median_us(transform, batch, batches)}


# ----------------------------------------------------------------------
# transport: endpoint ping-pong over the two real substrates
# ----------------------------------------------------------------------
def _pingpong(backend, n: int, warmup: int) -> List[float]:
    msg = b"\xa5" * 1024
    samples: List[float] = []
    try:
        a, b = backend.pair()
        for i in range(warmup + n):
            w0 = perf_counter()
            a.send(msg)
            ping = b.recv(timeout=5.0)
            if not ping.ok:
                raise RuntimeError(f"echo-side recv code {ping.code} on trip {i}")
            b.send(ping.data)
            pong = a.recv(timeout=5.0)
            if not pong.ok or pong.data != msg:
                raise RuntimeError(f"round trip {i} failed: code {pong.code}")
            if i >= warmup:
                samples.append((perf_counter() - w0) * 1e6)
        a.close()
        b.close()
    finally:
        backend.close()
    return sorted(samples)


def transport_rtt(n: int = 2000, warmup: int = 200) -> Dict[str, float]:
    """1024-byte ping-pong over ``backend.pair()``.  Loopback is two
    in-process queues; UDP crosses the host's loopback *interface*
    (127.0.0.1) -- neither touches a real link."""
    from repro.transport import LoopbackBackend, UdpBackend

    out: Dict[str, float] = {}
    for name, make in (("loopback", LoopbackBackend), ("udp", UdpBackend)):
        samples = _pingpong(make(), n, warmup)
        out[f"transport.{name}_rtt_p50_us"] = quantile(samples, 0.50)
        out[f"transport.{name}_rtt_p99_us"] = quantile(samples, 0.99)
    return out


# ----------------------------------------------------------------------
# sweep: worker-team spawn and pipe round trip
# ----------------------------------------------------------------------
def _echo_worker(conn, worker_id: int) -> None:
    """WorkerTeam target: echo every message until told to stop."""
    while True:
        msg = conn.recv()
        if msg == "stop":
            return
        conn.send(msg)


def sweep_team(roundtrips: int = 2000) -> Dict[str, float]:
    from repro.sweep.pool import WorkerTeam

    w0 = perf_counter()
    team = WorkerTeam(_echo_worker, 2, name="bench-echo", timeout=30.0)
    try:
        team.broadcast(["hello", "hello"])
        team.gather()
        spawn = perf_counter() - w0
        payload = b"x" * 1024
        samples = []
        for _ in range(roundtrips):
            t0 = perf_counter()
            team.broadcast([payload, payload])
            team.gather()
            samples.append((perf_counter() - t0) * 1e6)
    finally:
        team.close(farewell="stop")
    return {"sweep.team_spawn_s": spawn,
            "sweep.pipe_roundtrip_us": statistics.median(samples)}


def run_all(fraction: float = 1.0) -> Dict[str, float]:
    """Every probe; ``fraction`` shrinks the loop counts for smoke runs."""
    def n(full: int, floor: int) -> int:
        return max(floor, int(full * fraction))

    out: Dict[str, float] = {}
    out.update(timer_churn(events=n(200_000, 5_000)))
    out.update(frame_codec(batch=n(500, 20)))
    out.update(tko_send(messages=n(1200, 50)))
    out.update(mantts_transform(batch=n(200, 10)))
    out.update(transport_rtt(n=n(2000, 50), warmup=n(200, 5)))
    out.update(sweep_team(roundtrips=n(2000, 50)))
    return out
