"""Shared helpers for the experiment benchmarks.

Every benchmark regenerates one table/figure/claim from the paper (see
DESIGN.md's per-experiment index).  Conventions:

* ``benchmark.pedantic(fn, rounds=1)`` — each experiment is a deterministic
  simulation; one round measures its wall cost and produces its metrics;
* results are printed as UNITES tables (run with ``-s`` to see them) and
  attached to ``benchmark.extra_info`` for machine consumption;
* each benchmark *asserts the shape* the paper claims (who wins, roughly
  by how much) — absolute numbers are simulator-dependent and not checked.
"""

from __future__ import annotations

import pytest

from tests.conftest import executors  # noqa: F401  (the shipped/oracle fixture)


def record(benchmark, table: str, **extra) -> None:
    """Print a result table and attach it to the benchmark record."""
    print()
    print(table)
    benchmark.extra_info["table"] = table
    for k, v in extra.items():
        benchmark.extra_info[k] = v


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under the benchmark clock."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
