"""Scale smoke: 1,000 concurrent connections stay fast and deterministic.

The connection-scale acceptance bar (EXPERIMENTS.md row "scale"): one
host pair must churn through a 1,000-strong mixed-TSC population under a
loose wall-clock bound, every connection must establish, and a small run
must be bit-identical across repeats and to the frozen golden values.
The bound is generous so CI hardware variance cannot flake the suite;
``bench/run.py --workload churn_mixed`` measures the wall time.

The same run pins three deterministic counters, so none of the per-
connection costs PR 17 removed can silently return: no completion event
that does nothing, no random stream without a live owner, and host-wide
admission totals that equal a re-sum.
"""

from time import perf_counter

from repro.core.churn import ChurnScenario, identity_fields, run_churn
from tests import golden
from tests.conftest import SETTLE_S, cpu_spy, leaks  # noqa: F401  (fixture)

WALL_BOUND_S = 60.0


def test_1k_churn_under_wall_bound(cpu_spy):
    completions, _ = cpu_spy
    w0 = perf_counter()
    scenario = ChurnScenario(n_connections=1000, seed=7).run(until=20.0)
    wall = perf_counter() - w0
    metrics = scenario.collect()
    assert wall < WALL_BOUND_S, f"1k churn took {wall:.1f}s"
    assert metrics["failed"] == 0
    assert metrics["peak_concurrent"] >= 1000
    assert metrics["established"] >= 1000
    assert metrics["delivered"] > 0
    # deterministic counters
    assert completions and "noop" not in completions
    # no stream, timer, table entry or ledger line outlives its session,
    # and once the waits still open at the horizon have run out, nothing
    # is busy either
    assert leaks(scenario.system.check_quiescent()) == []
    scenario.run(until=20.0 + SETTLE_S)
    assert scenario.system.check_quiescent() == []
    print(f"\n1k churn: {wall:.2f}s wall, "
          f"{metrics['established']} established, "
          f"peak {metrics['peak_concurrent']} concurrent")


def test_repeat_and_golden_identity_n10():
    a = run_churn(10, seed=7)
    b = run_churn(10, seed=7)
    assert identity_fields(a) == identity_fields(b) == golden.CHURN_10_SEED_7
