"""The sweep subsystem's contracts.

The load-bearing guarantee is determinism: a spec fully describes its
grid (ordering, parameters, per-cell seeds), and a parallel run is
bit-identical to a serial run — worker count and completion order cannot
leak into results or repository rows.
"""

import os

import pytest

from repro.core.scenario import run_point_to_point
from repro.sweep import ScenarioSpec, SweepRunner, derive_cell_seed, run_sweep
from repro.sweep.spec import SweepCell
from repro.tko.config import SessionConfig
from repro.unites.repository import MetricRepository


# ---------------------------------------------------------------------------
# module-level cells (workers unpickle them by reference)
# ---------------------------------------------------------------------------
def arithmetic_cell(x, y, seed=0):
    return {"sum": x + y, "product": x * y, "seed_seen": seed}


def scenario_cell(bg_bps, seed=0):
    m = run_point_to_point(
        config=SessionConfig(), workload="bulk", duration=3.0,
        seed=seed, bg_bps=bg_bps,
    )
    return {k: m[k] for k in ("msgs_delivered", "goodput_bps", "pdus_sent",
                              "retransmissions", "wire_bytes")}


def failing_cell(x):
    raise RuntimeError(f"cell blew up on {x}")


# ---------------------------------------------------------------------------
# ScenarioSpec
# ---------------------------------------------------------------------------
class TestScenarioSpec:
    def test_grid_is_row_major_product_in_declaration_order(self):
        spec = ScenarioSpec("g", arithmetic_cell,
                            grid={"x": [1, 2], "y": [10, 20, 30]})
        assert len(spec) == 6
        combos = [(c.params["x"], c.params["y"]) for c in spec.cells()]
        assert combos == [(1, 10), (1, 20), (1, 30), (2, 10), (2, 20), (2, 30)]
        assert [c.index for c in spec.cells()] == list(range(6))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec("g", arithmetic_cell, grid={})
        with pytest.raises(ValueError):
            ScenarioSpec("g", arithmetic_cell, grid={"x": []})

    def test_seed_depends_on_values_not_grid_shape(self):
        # the same (x, y) point gets the same seed in a 2×2 and a 3×3 grid
        small = ScenarioSpec("g", arithmetic_cell,
                             grid={"x": [1, 2], "y": [1, 2]}, base_seed=5)
        big = ScenarioSpec("g", arithmetic_cell,
                           grid={"x": [1, 2, 3], "y": [1, 2, 3]}, base_seed=5)
        seeds_small = {tuple(c.params.items()): c.seed for c in small.cells()}
        seeds_big = {tuple(c.params.items()): c.seed for c in big.cells()}
        for point, seed in seeds_small.items():
            assert seeds_big[point] == seed

    def test_seed_varies_with_base_seed_name_and_params(self):
        p = {"x": 1}
        assert derive_cell_seed(0, "a", p) != derive_cell_seed(1, "a", p)
        assert derive_cell_seed(0, "a", p) != derive_cell_seed(0, "b", p)
        assert derive_cell_seed(0, "a", p) != derive_cell_seed(0, "a", {"x": 2})
        # and is order-insensitive over parameter dicts
        assert (derive_cell_seed(3, "a", {"x": 1, "y": 2})
                == derive_cell_seed(3, "a", {"y": 2, "x": 1}))

    def test_cell_label(self):
        cell = SweepCell(index=0, params={"w": 16, "loss": 0.01}, seed=1)
        assert cell.label == "w=16,loss=0.01"


# ---------------------------------------------------------------------------
# SweepRunner — serial semantics
# ---------------------------------------------------------------------------
class TestSerialRunner:
    def test_results_in_grid_order_with_derived_seeds(self):
        spec = ScenarioSpec("g", arithmetic_cell,
                            grid={"x": [3, 4], "y": [5]}, base_seed=9)
        result = SweepRunner(spec, workers=1).run()
        assert len(result) == 2
        assert result.cells[0].metrics["sum"] == 8
        assert result.cells[1].metrics["sum"] == 9
        for c in result:
            assert c.metrics["seed_seen"] == c.cell.seed

    def test_seed_param_none_leaves_seeding_to_the_cell(self):
        spec = ScenarioSpec("g", arithmetic_cell,
                            grid={"x": [1], "y": [2]}, seed_param=None)
        result = run_sweep(spec)
        # the cell's own default (0) survives — no injection happened
        assert result.cells[0].metrics["seed_seen"] == 0

    def test_fixed_kwargs_reach_every_cell(self):
        spec = ScenarioSpec("g", arithmetic_cell,
                            grid={"x": [1, 2]}, fixed={"y": 100},
                            seed_param=None)
        assert run_sweep(spec).values("sum") == [101, 102]

    def test_result_helpers(self):
        spec = ScenarioSpec("g", arithmetic_cell,
                            grid={"x": [1, 2], "y": [10]}, seed_param=None)
        r = run_sweep(spec)
        assert r.values("product") == [10, 20]
        assert r.find(x=2).metrics["product"] == 20
        assert r.find(x=99) is None
        assert r.rows()[0] == {"x": 1, "y": 10, "sum": 11, "product": 10,
                               "seed_seen": 0}

    def test_repository_streaming(self):
        spec = ScenarioSpec("camp", arithmetic_cell,
                            grid={"x": [1, 2], "y": [10]}, seed_param=None)
        repo = MetricRepository()
        run_sweep(spec, repository=repo)
        assert repo.entities("sweep") == ["camp[x=1,y=10]", "camp[x=2,y=10]"]
        # sample time is the grid index; non-numeric metrics are skipped
        assert repo.series("sum", scope="sweep", entity="camp[x=2,y=10]") \
            == [(1.0, 12.0)]

    def test_cell_exception_propagates(self):
        spec = ScenarioSpec("g", failing_cell, grid={"x": [1]},
                            seed_param=None)
        with pytest.raises(RuntimeError, match="blew up"):
            run_sweep(spec)


# ---------------------------------------------------------------------------
# SweepRunner — parallel ≡ serial
# ---------------------------------------------------------------------------
SCENARIO_SPEC = ScenarioSpec(
    name="parallel-identity",
    cell=scenario_cell,
    grid={"bg_bps": [0.0, 2e6, 5e6]},
    base_seed=23,
)


class TestParallelIdentity:
    def test_parallel_bit_identical_to_serial(self):
        serial = SweepRunner(SCENARIO_SPEC, workers=1).run()
        parallel = SweepRunner(SCENARIO_SPEC, workers=3).run()
        assert parallel.metrics_only() == serial.metrics_only()
        assert [c.cell for c in parallel] == [c.cell for c in serial]

    def test_parallel_repository_rows_identical_to_serial(self):
        r1, r2 = MetricRepository(), MetricRepository()
        SweepRunner(SCENARIO_SPEC, workers=1, repository=r1).run()
        SweepRunner(SCENARIO_SPEC, workers=3, repository=r2).run()
        cells = r1.entities("sweep")
        assert cells and cells == r2.entities("sweep")
        for cell in cells:
            metrics = r1.metrics_for("sweep", cell)
            assert metrics == r2.metrics_for("sweep", cell)
            for m in metrics:
                assert r1.series(m, "sweep", cell) == r2.series(m, "sweep", cell)
        assert len(r1) == len(r2)

    def test_worker_count_capped_by_cells(self):
        spec = ScenarioSpec("g", arithmetic_cell, grid={"x": [1, 2]},
                            fixed={"y": 0}, seed_param=None)
        result = SweepRunner(spec, workers=16).run()
        assert result.workers == 2
        assert result.values("sum") == [1, 2]

    def test_parallel_cell_exception_propagates(self):
        spec = ScenarioSpec("g", failing_cell, grid={"x": [1, 2]},
                            seed_param=None)
        with pytest.raises(RuntimeError, match="blew up"):
            SweepRunner(spec, workers=2).run()


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="speedup assertion needs >= 4 cores")
def test_parallel_speedup_on_multicore():
    """The migrated grids must actually buy wall-clock on real hardware."""
    spec = ScenarioSpec(
        name="speedup",
        cell=scenario_cell,
        grid={"bg_bps": [0.0, 1e6, 2e6, 3e6, 4e6, 5e6, 6e6, 7e6]},
        base_seed=41,
    )
    serial = SweepRunner(spec, workers=1).run()
    parallel = SweepRunner(spec, workers=4).run()
    assert parallel.metrics_only() == serial.metrics_only()
    assert parallel.wall_s < serial.wall_s / 2.0, (
        f"expected >=2x speedup, got {serial.wall_s / parallel.wall_s:.2f}x"
    )
