"""One executor under ``src/``, selected by nothing.

Structural checks that keep it so: a second data path, a module-level
switch, or a kernel handler the repo benchmark cannot attribute would each
pass every behavioural test.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

from repro.tko import executor as executor_module
from repro.tko.config import SessionConfig
from repro.tko.executor import CompiledExecutor
from tests.conftest import TwoHosts

ROOT = Path(__file__).resolve().parents[2]


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
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    exe = TwoHosts().pa.create_session(SessionConfig(), "B", 7000).executor
    for handler in (exe._process, exe._pump_fire, exe._deliver_app):
        assert spans.handler_module(handler.__qualname__) == "tko", handler.__qualname__
