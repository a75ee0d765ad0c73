"""One executor under ``src/``, selected by nothing; one churn driver.

Structural checks that keep it so: a second data path, a module-level
switch, a second copy of the churn driver, or a kernel handler the repo
benchmark cannot attribute would each pass every behavioural test.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

from repro.core.churn import (
    TRUNK_DELAY, ChurnScenario, GroupedChurnScenario, grouped_duration)
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


#: the churn driver: every kernel callback a churn world schedules
DRIVER = ("_close", "_on_connected", "_on_failed", "_open_one", "_open_wave",
          "_send")


def test_both_churn_worlds_run_one_copy_of_the_driver():
    """``bench/spans.py`` places a churn handler by the class that defines
    it, and knows only ``ChurnScenario`` and ``GroupedChurnScenario``: the
    driver lives on the first and on no base class, subclass or copy."""
    classes = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = (f"{path.relative_to(ROOT)}:{node.name}", node)
    worlds = {"ChurnScenario"}
    while True:
        more = {name for name, (_, node) in classes.items() if any(
            isinstance(base, ast.Name) and base.id in worlds for base in node.bases)}
        if more <= worlds:
            break
        worlds |= more
    assert "GroupedChurnScenario" in worlds
    assert classes["ChurnScenario"][1].bases == []
    owners = sorted((classes[name][0], defined) for name in worlds
                    for defined in _class_body_names(classes[name][1])
                    if defined in DRIVER)
    assert owners == [("src/repro/core/churn.py:ChurnScenario", m) for m in DRIVER]


def _class_body_names(node: ast.ClassDef):
    """Names a class body binds: its methods and its assignments (an
    alias such as ``_send = staticmethod(...)`` is a definition too)."""
    for item in node.body:
        if isinstance(item, ast.FunctionDef):
            yield item.name
        elif isinstance(item, ast.Assign):
            yield from (t.id for t in item.targets if isinstance(t, ast.Name))


class _Traced:
    """A churn world with telemetry on, reporting the handler labels its
    kernel timed — what the benchmark's traced run reads per process."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.system.enable_telemetry()

    def collect(self):
        out = dict(super().collect())
        out["handlers"] = sorted(kernel_handler_labels())
        return out


class _TracedPair(_Traced, ChurnScenario):
    pass


class _TracedChurn(_Traced, GroupedChurnScenario):
    pass


def build_traced_shard(shard_id, **kw):
    """Shard-worker builder (module level: workers import it by name)."""
    return _TracedChurn(shard_id=shard_id, **kw)


def test_every_handler_a_traced_world_dispatches_is_attributable():
    """Both churn worlds, the grouped one serial and on 2 shards: a
    handler ``bench/spans.py`` cannot place makes ``bench/run.py`` report
    itself incorrect, and only ``bench/tests`` would notice — e.g. a
    boundary link's eager half defined on ``GatewayLink`` instead of
    ``Link``."""
    spans = _bench_spans()
    kw = dict(n_connections=24, n_groups=4, seed=11)
    until = grouped_duration(24, 0.02)
    labels = set()
    for world, world_kw in ((_TracedPair, dict(n_connections=24, seed=11)),
                            (_TracedChurn, kw)):
        try:
            serial = world(**world_kw)
            serial.run(until=until)
            labels.update(serial.collect()["handlers"])
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
    assert {"ChurnScenario.__init__.<locals>.<lambda>",
            "ChurnScenario._on_connected.<locals>.<lambda>"} <= labels
    sharded = ShardCoordinator(
        builder=build_traced_shard, builder_kw=dict(n_shards=2, **kw),
        n_shards=2, until=until, lookahead=TRUNK_DELAY).run()
    assert sharded["coordinator"]["cross_frames"] > 0
    for shard in sharded["shards"]:
        labels.update(shard["handlers"])
    assert {"Link._land", "Link._drain", "Node.arrived"} <= labels
    assert not [name for name in sorted(labels)
                if spans.handler_module(name) is None]
