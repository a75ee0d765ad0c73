"""Multi-core scenario sweep — adaptive vs static across channel quality.

Runs a demo grid (three transport variants × three bit-error rates) twice:
serially, then sharded across all cores with
:class:`repro.sweep.SweepRunner`.  Prints the campaign table, the
serial/parallel wall-clock comparison, and verifies the determinism
contract — the parallel results are bit-identical to the serial ones.

The grid is a miniature of benchmark E9's architecture-level claim: a CBR
media session over a 10 Mb/s segment swept across bit-error rates, once
with a MANTTS loss-triggered adaptation policy active and once for each
static configuration.  Plain GBN is lean on the clean channel but drowns
in retransmissions as the BER climbs; always-on FEC repairs the lossy
channel but pays its parity overhead everywhere; the adaptive session
starts lean and switches to FEC only when the monitored channel BER
crosses its threshold.

The cell function is a module-level callable because worker processes
unpickle it by reference: forked workers inherit this module, spawned ones
re-import the script, which the ``__main__`` guard below allows.

Run with:  PYTHONPATH=src python examples/sweep_demo.py
"""

import os
from typing import Any, Dict

from repro.core.scenario import PointToPointScenario
from repro.mantts.acd import ACD
from repro.mantts.policies import TSARule
from repro.mantts.qos import QualitativeQoS, QuantitativeQoS
from repro.netsim.profiles import ethernet_10
from repro.sweep import ScenarioSpec, SweepRunner
from repro.tko.config import SessionConfig
from repro.unites.present import render_table
from repro.unites.repository import MetricRepository

FRAME = 512
FPS = 24

#: static configurations, each tuned for one end of the BER range
STATIC_VARIANTS = {
    "static-gbn": dict(recovery="gbn", ack="cumulative",
                       transmission="window-rate", rate_pps=float(FPS)),
    "static-fec": dict(connection="implicit", recovery="fec-rs", ack="none",
                       transmission="rate", rate_pps=float(FPS),
                       fec_k=4, fec_r=2, sequencing="none"),
}

VARIANTS = ("adaptive",) + tuple(STATIC_VARIANTS)


def ber_switch_to_fec(threshold: float = 2e-6) -> TSARule:
    """Retransmission → FEC once the monitored channel BER crosses the bar."""
    return TSARule(
        metric="ber",
        op=">",
        threshold=threshold,
        action="adjust-scs",
        overrides=(
            ("recovery", "fec-rs"),
            ("ack", "none"),
            ("transmission", "rate"),
            ("rate_pps", float(FPS)),
            ("fec_k", 4),
            ("fec_r", 2),
        ),
        tag="ber->fec",
    )


def adaptive_vs_static_cell(variant: str, ber: float, seed: int = 11,
                            duration: float = 8.0) -> Dict[str, Any]:
    """One grid point: run ``variant`` over a channel with bit-error ``ber``."""
    common = dict(
        workload="video-cbr",
        workload_kw={"fps": FPS, "frame_bytes": FRAME},
        duration=duration,
        seed=seed,
        profile=ethernet_10().scaled(ber=ber),
    )
    if variant == "adaptive":
        sc = PointToPointScenario(
            acd=ACD(
                participants=("B",),
                quantitative=QuantitativeQoS(
                    avg_throughput_bps=FRAME * 8 * FPS, duration=600,
                    loss_tolerance=0.02, message_size=FRAME,
                ),
                qualitative=QualitativeQoS(ordered=False,
                                           duplicate_sensitive=False),
                service_port=7000,
                tsa=(ber_switch_to_fec(threshold=2e-6),),
            ),
            **common,
        )
    else:
        sc = PointToPointScenario(
            config=SessionConfig(**STATIC_VARIANTS[variant]), **common
        )
    sc.run(duration)
    m = sc.collect()
    return {
        "delivered_frac": (m["msgs_delivered"] / m["msgs_sent"]
                           if m["msgs_sent"] else 0.0),
        "mean_latency": m["mean_latency"],
        "wire_bytes": m.get("wire_bytes", 0.0),
        "reconfigs": m.get("reconfigurations", 0.0),
    }


SPEC = ScenarioSpec(
    name="adaptive-vs-static-ber",
    cell=adaptive_vs_static_cell,
    grid={"variant": list(VARIANTS), "ber": [0.0, 4e-6, 1.2e-5]},
    fixed={"duration": 6.0},
    base_seed=11,
)


def main() -> None:
    cores = os.cpu_count() or 1
    print(f"grid: {len(SPEC)} cells "
          f"({' × '.join(f'{len(v)} {k}' for k, v in SPEC.grid.items())}), "
          f"{cores} cores\n")

    serial = SweepRunner(SPEC, workers=1).run()
    repo = MetricRepository()
    parallel = SweepRunner(SPEC, workers=None, repository=repo).run()

    assert parallel.metrics_only() == serial.metrics_only(), \
        "parallel sweep must be bit-identical to serial"

    print(render_table(
        parallel.rows(),
        ["variant", "ber", "delivered_frac", "mean_latency", "wire_bytes",
         "reconfigs"],
        title="Adaptive vs static across channel BER (identical serial/parallel)",
    ))

    speedup = serial.wall_s / parallel.wall_s if parallel.wall_s else 1.0
    print(f"\nserial   : {serial.wall_s:6.2f} s  (1 worker)")
    print(f"parallel : {parallel.wall_s:6.2f} s  ({parallel.workers} workers)")
    print(f"speedup  : {speedup:5.2f}×")
    print(f"repository: {len(repo)} sweep-scope samples, "
          f"{len(repo.entities('sweep'))} cells")

    # the campaign's story in one line per regime
    clean = parallel.find(variant="adaptive", ber=0.0)
    lossy = parallel.find(variant="adaptive", ber=1.2e-5)
    print(f"\nadaptive on the clean channel: {clean.metrics['wire_bytes']:.0f} "
          f"wire bytes (lean retransmission mode)")
    print(f"adaptive on the lossy channel: {lossy.metrics['reconfigs']:.0f} "
          f"reconfiguration(s) → FEC, latency "
          f"{lossy.metrics['mean_latency'] * 1e3:.2f} ms")


if __name__ == "__main__":
    main()
