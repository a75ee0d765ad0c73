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


#: every place the data path may ask whether its session has ended, and why.
#: A late caller from outside meets ``TKOSession``'s public methods or the
#: protocol demux (``_teardown`` unbinds everything else); inside the
#: executor a check stands only where a kernel-held callback arrives late,
#: or where a call the executor made ended the session under its own frame
#: (re-entry).  Function -> (checks, why).
ENDED_SESSION_CHECKS = {
    "tko/executor.py": {
        "_process": (1, "late callback: a frame waited for the host CPU"),
        "_deliver_app": (1, "late callback: a playout-delayed delivery"),
        "_handle_data": (2, "re-entry: on_deliver, during a repaired group"),
        "_deliver_pdu": (1, "re-entry: on_deliver, part-way through a release"),
        "gap_timeout": (1, "re-entry: on_deliver, under the gap timer"),
        "handle_ack": (2, "re-entry: finalize_ack closed; recovery gave up"),
    },
    "tko/session.py": {
        "__init__": (1, "the flag starts down"),
        "_teardown": (1, "the flag goes up, once"),
        "connected": (1, "public: False once ended"),
        "closed": (1, "public"),
        "rng": (1, "public: raises, and builds no stream once ended"),
        "advertised_window": (1, "public: raises with the end reason"),
        "connect": (1, "public: raises with the end reason"),
        "send": (1, "public: raises with the end reason"),
        "segue": (1, "public: raises with the end reason"),
        "segment_size": (1, "public: raises with the end reason"),
        "pump": (1, "public: does nothing once ended"),
        "drain": (1, "public: calls back at once once ended"),
        "_end": (1, "public abort: one end, one on_ended"),
        "_maybe_finish_close": (1, "no close exchange once ended: a held "
                                   "handle's close(), a drain waiter's abort"),
    },
}
#: the hard bound on the executor's checks
EXECUTOR_CHECK_BOUND = 8


def is_ended_session_check(node: ast.AST) -> bool:
    """``x._closed`` anywhere, or ``s is (not) None`` / ``self.s is (not)
    None`` (a retired executor's ``s`` is ``None``)."""
    if isinstance(node, ast.Attribute) and node.attr == "_closed":
        return True
    if (isinstance(node, ast.Compare) and len(node.ops) == 1
            and isinstance(node.ops[0], (ast.Is, ast.IsNot))
            and isinstance(node.comparators[0], ast.Constant)
            and node.comparators[0].value is None):
        left = node.left
        return (isinstance(left, ast.Name) and left.id == "s") or (
            isinstance(left, ast.Attribute) and left.attr == "s"
            and isinstance(left.value, ast.Name) and left.value.id == "self")
    return False


def ended_session_checks(path: Path) -> dict:
    """Function name -> how many ended-session checks its body holds."""
    found = {}
    for fn in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(fn, ast.FunctionDef):
            n = sum(is_ended_session_check(node) for stmt in fn.body
                    for node in ast.walk(stmt))
            if n:
                found[fn.name] = n
    return found


def test_an_ended_session_is_checked_only_where_a_caller_comes_in():
    for module, named in ENDED_SESSION_CHECKS.items():
        found = ended_session_checks(SRC / module)
        assert found == {fn: n for fn, (n, _) in named.items()}, module
    executor = ENDED_SESSION_CHECKS["tko/executor.py"]
    assert sum(n for n, _ in executor.values()) <= EXECUTOR_CHECK_BOUND
    # the rendered closures are source in strings, out of the AST's sight
    assert "_closed" not in (SRC / "tko" / "genexec.py").read_text()
    # no stand-in session for a retired executor to point at
    assert "_CLOSED" not in names_used(SRC / "tko" / "session.py")


def test_every_notified_session_event_is_one_a_tracer_can_name():
    """A ``SessionTracer`` filter rejects names outside ``EVENTS``, so an
    event a session emits but ``EVENTS`` lacks could be recorded only
    unfiltered."""
    from repro.unites.trace import EVENTS

    oracles = Path(__file__).resolve().parent / "oracles"
    emitted = {}
    for path in sorted(SRC.rglob("*.py")) + sorted(oracles.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "_notify" and node.args
                    and isinstance(node.args[0], ast.Constant)):
                emitted.setdefault(node.args[0].value, f"{path.name}:{node.lineno}")
    assert len(emitted) >= 10  # the walk found the emitters
    unknown = [f"{where}: {event!r}" for event, where in emitted.items()
               if event not in EVENTS]
    assert not unknown, "\n".join(unknown)


#: the copy paths between collection and the repository that the one
#: UNITES sampler replaced
UNITES_COPY_PATHS = {"SessionCollector", "collectors", "to_repository",
                     "prometheus", "final_snapshot", "stop_all"}


def test_unites_collects_through_one_sampler():
    collect = SRC / "unites" / "collect.py"
    timers = [node.lineno for node in ast.walk(ast.parse(collect.read_text()))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "Timer"]
    assert len(timers) == 1, f"collect.py constructs a Timer at lines {timers}"
    offenders = [f"{path.relative_to(SRC.parent)}: {name}"
                 for path in sorted((SRC / "unites").rglob("*.py"))
                 for name in sorted(names_used(path) & UNITES_COPY_PATHS)]
    assert not offenders, "\n".join(offenders)
