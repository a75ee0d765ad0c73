#!/usr/bin/env python
"""Many connections, one host: the per-host ConnectionManager at work.

One ADAPTIVE host serves a mixed population of voice, video, bulk-transfer
and telnet sessions against a single responder — the connection-scale
workload behind the ``churn_mixed`` benchmark (``bench/run.py``), shrunk
to a few hundred sessions so it runs in seconds.  While the churn runs, UNITES samples the initiator's
ConnectionManager every half second, so the pending/open population and
the admission ledger are visible as ordinary host-scope metrics.

Run:  python examples/many_connections_demo.py
"""

from repro import ChurnScenario
from repro.unites.present import render_table

N = 400
HORIZON = 20.0


def main() -> None:
    scenario = ChurnScenario(n_connections=N, seed=11)
    system = scenario.system
    manager = scenario.a.mantts.manager
    system.unites.watch_manager(manager, interval=0.5)

    # narrate the population as the waves open, hold, and churn
    timeline = []

    def checkpoint() -> None:
        snap = manager.snapshot()
        timeline.append({
            "t": round(system.now, 1),
            "pending": int(snap["conn_pending"]),
            "open": int(snap["conn_open"]),
            "opened_total": int(snap["conn_opened_total"]),
            "closed_total": int(snap["conn_closed_total"]),
        })
        if system.now + 2.0 <= HORIZON:
            system.sim.schedule(2.0, checkpoint)

    system.sim.schedule(0.5, checkpoint)
    scenario.run(until=HORIZON)

    print(render_table(timeline,
                       ["t", "pending", "open", "opened_total", "closed_total"],
                       title=f"== {N} mixed-TSC connections on host A =="))

    metrics = scenario.collect()
    print(f"\nestablished {metrics['established']} "
          f"(peak {metrics['peak_concurrent']} concurrent), "
          f"failed {metrics['failed']}, reopened {metrics['reopened']}, "
          f"{metrics['delivered']} messages delivered")
    print(f"delivery digest {metrics['delivery_digest'][:16]}…  "
          f"(same seed => same digest)")
    print(f"Stage II cache hits: {int(metrics['scs_cache_hits'])} — "
          f"identical (ACD, path, TSC) transforms served from the manager")

    # the repository view: the same population, as UNITES samples
    series = system.unites.repository.series("conn_open", "host", "A")
    peak_sampled = max(v for _, v in series)
    print(f"UNITES sampled conn_open {len(series)} times; "
          f"peak sampled population {int(peak_sampled)}")

    assert metrics["failed"] == 0
    assert metrics["peak_concurrent"] == N
    assert peak_sampled > 0


if __name__ == "__main__":
    main()
