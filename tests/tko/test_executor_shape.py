"""One executor under ``src/``, selected by nothing.

Structural checks that keep it so: a second data path, a module-level
switch, or a kernel handler the repo benchmark cannot attribute would each
pass every behavioural test.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

from repro.core.churn import (
    TRUNK_DELAY, GroupedChurnScenario, grouped_duration)
from repro.shard.coordinator import ShardCoordinator
from repro.tko import executor as executor_module
from repro.tko.config import SessionConfig
from repro.tko.executor import CompiledExecutor
from repro.unites.obs.telemetry import TELEMETRY
from tests.conftest import TwoHosts, kernel_handler_labels

ROOT = Path(__file__).resolve().parents[2]


def _bench_spans():
    """The repo benchmark's own handler table, loaded from ``bench/``."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_exactly_one_class_under_src_defines_the_data_path():
    owners = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(item, ast.FunctionDef) and item.name == "_handle_data"
                    for item in node.body):
                owners.append(f"{path.relative_to(ROOT)}:{node.name}")
    assert owners == ["src/repro/tko/executor.py:CompiledExecutor"]


def test_executor_module_has_no_selector():
    source = ast.parse(inspect.getsource(executor_module))
    assert not [n for n in ast.walk(source) if isinstance(n, ast.Global)]
    defined_here = [name for name, obj in vars(executor_module).items()
                    if getattr(obj, "__module__", None) == executor_module.__name__]
    assert defined_here == ["CompiledExecutor"]
    session = TwoHosts().pa.create_session(SessionConfig(), "B", 7000)
    assert type(session.executor) is CompiledExecutor


def test_kernel_handlers_are_attributable_by_the_repo_benchmark():
    spans = _bench_spans()
    exe = TwoHosts().pa.create_session(SessionConfig(), "B", 7000).executor
    for handler in (exe._process, exe._pump_fire, exe._deliver_app):
        assert spans.handler_module(handler.__qualname__) == "tko", handler.__qualname__


class _TracedChurn(GroupedChurnScenario):
    """Grouped churn with telemetry on, reporting the handler labels its
    kernel timed — what the benchmark's traced run reads per process."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.system.enable_telemetry()

    def collect(self):
        out = dict(super().collect())
        out["handlers"] = sorted(kernel_handler_labels())
        return out


def build_traced_shard(shard_id, **kw):
    """Shard-worker builder (module level: workers import it by name)."""
    return _TracedChurn(shard_id=shard_id, **kw)


def test_every_handler_a_traced_world_dispatches_is_attributable():
    """Serial and 2-shard: a handler ``bench/spans.py`` cannot place makes
    ``bench/run.py`` report itself incorrect, and only ``bench/tests``
    would notice — e.g. a boundary link's eager half defined on
    ``GatewayLink`` instead of ``Link``."""
    spans = _bench_spans()
    kw = dict(n_connections=24, n_groups=4, seed=11)
    until = grouped_duration(24, 50, 0.02)
    try:
        serial = _TracedChurn(**kw)
        serial.run(until=until)
        labels = set(serial.collect()["handlers"])
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
    sharded = ShardCoordinator(
        builder=build_traced_shard, builder_kw=dict(n_shards=2, **kw),
        n_shards=2, until=until, lookahead=TRUNK_DELAY).run()
    assert sharded["coordinator"]["cross_frames"] > 0
    for shard in sharded["shards"]:
        labels.update(shard["handlers"])
    assert {"Link._land", "Link._drain", "Node.arrived"} <= labels
    assert not [name for name in sorted(labels)
                if spans.handler_module(name) is None]
