"""Scale smoke: 1,000 concurrent connections stay fast and deterministic.

The connection-scale acceptance bar (EXPERIMENTS.md row "scale"): one
host pair must churn through a 1,000-strong mixed-TSC population under a
loose wall-clock bound, every connection must establish, and a small run
must be bit-identical across repeats and to the frozen golden values.
The bound is generous so CI hardware variance cannot flake the suite;
``bench/run.py --workload churn_mixed`` measures the wall time.
"""

from time import perf_counter

from repro.core.churn import identity_fields, run_churn
from tests import golden

WALL_BOUND_S = 60.0


def test_1k_churn_under_wall_bound():
    w0 = perf_counter()
    metrics = run_churn(1000, seed=7)
    wall = perf_counter() - w0
    assert wall < WALL_BOUND_S, f"1k churn took {wall:.1f}s"
    assert metrics["failed"] == 0
    assert metrics["peak_concurrent"] >= 1000
    assert metrics["established"] >= 1000
    assert metrics["delivered"] > 0
    print(f"\n1k churn: {wall:.2f}s wall, "
          f"{metrics['established']} established, "
          f"peak {metrics['peak_concurrent']} concurrent")


def test_repeat_and_golden_identity_n10():
    a = run_churn(10, seed=7)
    b = run_churn(10, seed=7)
    assert identity_fields(a) == identity_fields(b) == golden.CHURN_10_SEED_7
