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
