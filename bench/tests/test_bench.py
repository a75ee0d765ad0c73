"""The benchmark's own checks: ``python -m pytest bench/tests -q`` (< 30 s).

* the quantile helper obeys the "ten samples beyond" rule;
* ``BENCHMARK.json`` has the shape the builder's contract fixes;
* ``--quick`` (1/20 sizes, one repeat) exits 0, validates every output,
  and emits every named metric for every workload -- which also proves
  the handler->module map covers every kernel handler those runs meet,
  because an uncovered handler makes the traced run report incorrect.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import stats

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------
def test_p99_needs_ten_samples_beyond_it():
    assert stats.supported_tail(999, 0.99) == 0.95      # 9 beyond p99
    assert stats.supported_tail(1000, 0.99) == 0.99     # exactly 10
    assert stats.samples_beyond(1000, 0.99) == 10
    assert stats.supported_tail(200, 0.99) == 0.95      # 10 beyond p95
    assert stats.supported_tail(199, 0.99) == 0.90
    assert stats.supported_tail(39, 0.99) is None


def test_tail_reports_the_percentile_it_used():
    samples = list(range(1, 1001))
    assert stats.tail(samples, 0.99) == (990, 0.99)
    assert stats.tail(samples[:500], 0.99) == (475, 0.95)
    assert stats.tail([3.0, 1.0, 2.0], 0.99) == (3.0, None)


def test_quantile_is_nearest_rank():
    assert stats.quantile([1, 2, 3, 4], 0.5) == 2
    assert stats.quantile([1, 2, 3, 4, 5], 0.5) == 3
    assert stats.quantile([7], 0.99) == 7
    with pytest.raises(ValueError):
        stats.quantile([], 0.5)


def test_spread_matches_the_drivers_formula():
    import statistics

    values = [10.0, 11.0, 9.5, 10.4, 12.0, 10.1, 9.9, 10.6, 10.2, 10.3]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert stats.spread([5.0]) == 0.0


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_child_spans():
    recorded = [("outer", 0.0, 10.0, -1), ("inner", 2.0, 5.0, 0), ("inner", 6.0, 7.0, 0)]
    table = spans.self_times(recorded)
    assert table["outer"]["total_s"] == 10.0
    assert table["outer"]["self_s"] == 6.0
    assert table["inner"] == {"count": 2, "total_s": 4.0, "self_s": 4.0}


def test_ledger_reports_handlers_the_map_does_not_know():
    ledger = spans.handler_ledger({"Link._arrive": [3, 0.3],
                                   "Mystery.tick": [1, 0.1]})
    assert ledger["by_module"] == {"netsim": 0.3}
    assert ledger["unknown"] == ["Mystery.tick"]
    assert ledger["unattributed_s"] == pytest.approx(0.1)


def test_wrappers_come_off_again():
    from repro.mantts.api import MANTTS

    original = MANTTS.__dict__["open"]
    recorder = spans.SpanRecorder()
    recorder.install()
    assert MANTTS.__dict__["open"] is not original
    assert MANTTS.open.__qualname__ == "MANTTS.open"   # the kernel's label
    recorder.remove()
    assert MANTTS.__dict__["open"] is original


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_meets_the_contract():
    doc = run.load_contract()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["bench"] and doc["command"][:2] == ["python3", "bench/run.py"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert tuple(w["name"] for w in doc["workloads"]) == run.WORKLOAD_NAMES
    names = []
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])
    # 4 + 22 runs per workload must fit the driver's 3420 s with room to
    # spare: a run is the timed budget plus set-up and one run of slack
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] * 1.6) < 3420


# ----------------------------------------------------------------------
# the one command, at 1/20 size
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def quick_results():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--quick"],
                          capture_output=True, text=True, timeout=120, cwd=str(ROOT))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads((BENCH / "out" / "results-seed7-quick.json").read_text())


def test_quick_run_is_correct_and_fingerprinted(quick_results):
    env = quick_results["environment"]
    for key in ("python", "nproc", "cpu_model", "load_1min_start", "load_1min_end",
                "noisy", "git_commit", "seed", "repeats", "sizes"):
        assert key in env
    assert [r["workload"] for r in quick_results["results"]] == list(run.WORKLOAD_NAMES)
    for result in quick_results["results"]:
        # no validation failure; in particular no handler outside the map
        assert result["errors"] == [], result["workload"]
        assert result["failed"] == 0 and result["attempted"] >= 1


def test_quick_run_emits_every_named_metric(quick_results):
    doc = run.load_contract()
    seen = set()
    for result in quick_results["results"]:
        for spec in doc["end_to_end"]:
            assert result["end_to_end"][spec["name"]] > 0, (result["workload"], spec["name"])
        assert result["end_to_end"]["failed_frac"] == 0
        seen |= set(result["per_layer"])
        assert result["per_layer"]["unites.ledger_unattributed_frac"] < 0.10
    missing = [m["name"] for m in doc["per_layer"] if m["name"] not in seen]
    assert not missing, f"named in BENCHMARK.json but never measured: {missing}"


def test_traced_line_carries_every_per_layer_metric(quick_results):
    doc = run.load_contract()
    result = quick_results["results"][0]
    line = json.loads(run.contract_line(
        {"metrics": result["per_layer"], "errors": [], "attempted": 3, "failed": 0},
        doc["per_layer"]))
    assert set(line["metrics"]) == {m["name"] for m in doc["per_layer"]}
    # a layer the workload never enters reads 0, not absent
    assert line["metrics"]["shard.epochs"] == {"value": 0.0, "unit": "count"}


def test_driver_form_prints_one_json_line_last():
    doc = run.load_contract()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "bulk_stream",
         "--seed", "5", "--seconds", "1", "--trace", "0", "--quick"],
        capture_output=True, text=True, timeout=120, cwd=str(ROOT))
    assert proc.returncode == 0, proc.stderr[-3000:]
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in doc["end_to_end"]}
    for spec in doc["end_to_end"]:
        assert line["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert line["metrics"][spec["name"]]["value"] > 0
