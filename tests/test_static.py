"""Static checks ruff would make, for an image that does not ship ruff.

Three rules: no unused import under ``src/repro/`` (pyflakes F401;
``__init__.py`` files are re-export hubs and exempt, as in the
``per-file-ignores`` of ``pyproject.toml``); the heavy imports a
simulated world never executes stay where they are deferred
(``tests/test_import_surface.py`` counts what a cold process loads); and
every class a session instantiates by the dozen keeps a fixed layout
(``tests/core/test_connection_footprint.py`` counts what that buys).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def unused_imports(path: Path) -> list:
    """Names a module imports and never reads.

    A name counts as read when it occurs as a ``Name`` anywhere in the
    module, in ``__all__``, or inside a string annotation (the
    ``TYPE_CHECKING`` idiom quotes the types it imports).
    """
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return sorted(f"{path.relative_to(SRC.parent)}:{line}: {name}"
                  for name, line in imported.items() if name not in read)


def test_no_unused_import_under_src():
    modules = [p for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"]
    assert len(modules) > 50  # the walk found the package
    offenders = [hit for path in modules for hit in unused_imports(path)]
    assert not offenders, "\n".join(offenders)


#: top-level module -> the one file under ``src/repro/`` that may import it
#: (at module level or inside a function); ``None``: nowhere
CONFINED = {
    "networkx": None,
    "asyncio": "transport/udp.py",
    "http.server": "unites/obs/server.py",
}


def imported_modules(path: Path) -> set:
    """Every dotted module name ``path`` imports, at any depth of nesting."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found |= {node.module} | {f"{node.module}.{a.name}" for a in node.names}
    return found


def test_heavy_imports_stay_confined():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        here = path.relative_to(SRC).as_posix()
        for name in imported_modules(path):
            for heavy, home in CONFINED.items():
                if (name == heavy or name.startswith(heavy + ".")) and here != home:
                    offenders.append(f"{here}: imports {name}")
    assert not offenders, "\n".join(offenders)
    for heavy, home in CONFINED.items():  # the rule still reads what it guards
        assert home is None or heavy in imported_modules(SRC / home)


def has_fixed_layout(cls: ast.ClassDef) -> bool:
    """``__slots__`` assigned in the class body, or ``@dataclass(slots=True)``."""
    in_body = any(
        isinstance(item, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets)
        for item in cls.body)
    by_decorator = any(
        isinstance(d, ast.Call) and any(
            k.arg == "slots" and getattr(k.value, "value", False) is True
            for k in d.keywords)
        for d in cls.decorator_list)
    return in_body or by_decorator


def test_mechanisms_and_session_state_declare_slots():
    """A new mechanism (or state container) without ``__slots__`` would
    quietly give every session a ``__dict__`` back."""
    files = sorted((SRC / "mechanisms").glob("*.py")) + [SRC / "tko" / "state.py"]
    classes = [(path, node) for path in files
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.ClassDef)]
    assert len(classes) > 40  # the walk found the hierarchies
    offenders = [f"{path.relative_to(SRC.parent)}:{node.lineno}: {node.name}"
                 for path, node in classes if not has_fixed_layout(node)]
    assert not offenders, "\n".join(offenders)


def test_nothing_under_src_reaches_into_an_instance_dict():
    """``vars(x)`` / ``x.__dict__`` on a slotted instance fails, and on the
    two classes that keep a ``__dict__`` (the documented shadowing seams)
    it materialises a dict object the layout otherwise avoids."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "__dict__") or (
                    isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "vars"):
                offenders.append(f"{path.relative_to(SRC.parent)}:{node.lineno}")
    assert not offenders, "\n".join(offenders)


#: the old terminal fork: a session ended through close *or* open-failure,
#: and a responder's state was released on one of the two only.  Each layer
#: now has one end path (``TKOSession._end`` → ``on_ended``,
#: ``ConnectionLifecycle.ended``, ``ConnectionManager.connection_ended``,
#: ``MANTTS._responder_ended``); none of these names may come back
FORK = {"notify_closed", "notify_open_failed", "on_open_failed",
        "connection_failed", "release_then"}


def names_used(path: Path) -> set:
    """Every identifier ``path`` defines, reads, assigns or passes by keyword."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.keyword, ast.arg)) and node.arg:
            found.add(node.arg)
    return found


def test_one_end_path_per_layer():
    offenders = [f"{path.relative_to(SRC.parent)}: {name}"
                 for path in sorted(SRC.rglob("*.py"))
                 for name in sorted(names_used(path) & FORK)]
    assert not offenders, "\n".join(offenders)
    # the rule still reads what it guards: the one path is there
    for module, name in (("tko/session.py", "_end"), ("tko/session.py", "on_ended"),
                         ("mantts/lifecycle.py", "ended"),
                         ("host/connmgr.py", "connection_ended"),
                         ("mantts/api.py", "_responder_ended")):
        assert name in names_used(SRC / module), (module, name)


def leads_with_a_name(arg: ast.expr) -> bool:
    """An end reason leads with a name (a ``repro.tko.ends`` constant, or a
    reason passed on), never with a string literal of its own."""
    if isinstance(arg, ast.IfExp):
        return leads_with_a_name(arg.body) and leads_with_a_name(arg.orelse)
    if isinstance(arg, ast.JoinedStr):
        first = arg.values[0] if arg.values else None
        return isinstance(first, ast.FormattedValue) and leads_with_a_name(first.value)
    return isinstance(arg, (ast.Name, ast.Attribute))


def test_every_end_names_a_reason_from_the_closed_set():
    calls = [(path, node) for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("abort", "_end", "ended")]
    assert len(calls) >= 10  # the walk found the raisers
    offenders = [f"{path.relative_to(SRC.parent)}:{node.lineno}"
                 for path, node in calls
                 if not node.args or not leads_with_a_name(node.args[0])]
    assert not offenders, "\n".join(offenders)
