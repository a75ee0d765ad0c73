"""E3 — the congestion policy: go-back-N ↔ selective repeat (§3(C)).

"Transport system policies may switch a session's retransmission
mechanism from go-back-n to selective repeat in the event that ... the
congestion in the network increases beyond a specified threshold
(resulting in greater packet loss due to queue overflows at intermediate
switching nodes).  Note that it may be feasible to restore the go-back-n
scheme when congestion subsides, thereby reducing buffering requirements
at the receiver(s)."

Workload: a long bulk stream over a congestion-prone WAN whose middle
phase is congested by cross traffic.  Variants: static GBN, static SR,
and the adaptive session running the paper's TSA policy.

Shape: under congestion SR retransmits far less than GBN (it resends only
the lost PDUs); the adaptive variant runs GBN in the clean phases (small
receiver buffering) yet matches SR's retransmission economy in the
congested phase, and its segue log shows the switch *and* the restore.
"""

import pytest

from repro.core.system import AdaptiveSystem
from repro.mantts.acd import ACD
from repro.mantts.policies import congestion_switch_gbn_to_sr
from repro.mantts.qos import QualitativeQoS, QuantitativeQoS
from repro.netsim.profiles import wan_internet, linear_path
from repro.netsim.traffic import BackgroundLoad
from repro.unites.present import render_table

from benchmarks.conftest import record

DURATION = 35.0
CONGESTION_ON, CONGESTION_OFF = 5.0, 15.0


def run_variant(tsa=(), force_recovery=None, seed=13):
    sysm = AdaptiveSystem(seed=seed)
    sysm.attach_network(
        linear_path(sysm.sim, wan_internet(), ("A", "B"), rng=sysm.rng)
    )
    a, b = sysm.node("A"), sysm.node("B")
    got = []
    b.mantts.register_service(7000, on_deliver=lambda d, m: got.append(len(d)))
    acd = ACD(
        participants=("B",),
        quantitative=QuantitativeQoS(
            avg_throughput_bps=500e3, duration=600, message_size=2048
        ),
        qualitative=QualitativeQoS(),
        tsa=tuple(tsa),
    )
    conn = a.mantts.open(acd)
    sysm.run(until=0.5)
    if force_recovery is not None:
        overrides = {"recovery": force_recovery}
        if force_recovery == "sr":
            overrides["ack"] = "selective"
        conn.apply_overrides(overrides, reason="static variant setup")
    from repro.apps.bulk import BulkSource

    src = BulkSource(sysm.sim, conn, total_bytes=1_500_000, chunk_bytes=2048)
    src.start(0.5)
    load = BackgroundLoad(sysm.network, "s1", "s2", rate_bps=2.0e6)
    load.start(CONGESTION_ON)
    sysm.sim.schedule(CONGESTION_OFF, load.stop)
    sysm.run(until=DURATION)
    s = conn.session
    recoveries = [tag for _, tag in conn.reconfig_log]
    return {
        "delivered_bytes": float(sum(got)),
        "retransmissions": float(s.stats.retransmissions),
        "wire_bytes": float(s.stats.wire_bytes_sent),
        "final_recovery": conn.cfg.recovery,
        "switches": "; ".join(recoveries) or "-",
    }


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: Bug A below-window "
                   "re-ACK loop, Bug B SR→GBN hand-over")
def test_e3_congestion_recovery_switch(benchmark):
    def run():
        return {
            "static-gbn": run_variant(),
            "static-sr": run_variant(force_recovery="sr"),
            "adaptive": run_variant(
                tsa=congestion_switch_gbn_to_sr(high=0.6, low=0.05)
            ),
        }

    r = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [{"variant": k, **v} for k, v in r.items()]
    record(
        benchmark,
        render_table(
            rows,
            ["variant", "delivered_bytes", "retransmissions", "wire_bytes",
             "final_recovery", "switches"],
            title="E3 — bulk over WAN with a congestion phase",
        ),
    )
    gbn, sr, ad = r["static-gbn"], r["static-sr"], r["adaptive"]
    # SR's economy under loss: far fewer retransmissions than GBN
    assert sr["retransmissions"] < gbn["retransmissions"] / 2
    # the adaptive session actually switched and then restored
    assert "gbn->sr" in ad["switches"]
    assert "sr->gbn" in ad["switches"]
    assert ad["final_recovery"] == "gbn"
    # and its retransmission bill lands well below static GBN's
    assert ad["retransmissions"] < gbn["retransmissions"]
