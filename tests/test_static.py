"""Static checks ruff would make, for an image that does not ship ruff.

One rule so far: no unused import under ``src/repro/`` (pyflakes F401).
``__init__.py`` files are re-export hubs and exempt, as in the
``per-file-ignores`` of ``pyproject.toml``.
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
