"""What one connection costs, as a budget written down before the run.

A connection's footprint is a property of its *layout* (every class
instantiated per connection has ``__slots__``) and its *lifecycle* (a
closed session is a tombstone; nothing bound to live machinery outlives
it).  The gates are counts, never timings:

* **live** — 200 mixed-TSC connections, all established, every class has
  sent: traced bytes and GC-tracked objects per connection (both sessions,
  the MANTTS entities and the scenario's own pending sends).  26.8 KB /
  198 objects before the layout work;
* **closed, handle held** — every initiator session still referenced (the
  repo benchmark keeps them to read ``stats`` after the run): 15.0 KB / 125
  objects before;
* **closed, nothing held, no ``gc.collect()``** — the object count is back
  where it was: whatever cycle survived would show here;
* **structure** — no object a connection brings into being carries an
  instance ``__dict__``, bar the two documented shadowing seams;
* **quiescence** — ``AdaptiveSystem.check_quiescent()`` at 200 and 800.

Object counts hold on every Python the matrix runs; byte budgets are
CPython 3.11's (the benchmark's interpreter), reported elsewhere.
``python tests/core/test_connection_footprint.py OUT.txt`` writes
``tracemalloc``'s top 20 lines for the live and the closed-held state (the
CI artefact).
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

from repro.core.churn import CLASSES, ChurnScenario
from repro.tko.executor import CompiledExecutor
from repro.tko.session import TKOSession

N = 200
LIVE_BUDGET = (20 * 1024, 160)   # bytes, GC-tracked objects per connection
HELD_BUDGET = (4 * 1024, 35)     # per closed connection whose session is held
BYTES_ASSERTED = sys.version_info[:2] == (3, 11)


def quiet_churn(n: int) -> ChurnScenario:
    """``n`` connections, every wave open at once, no reopen, no bit
    errors (a corrupted FIN would leave a session closing for ever)."""
    sc = ChurnScenario(n_connections=n, seed=7, reopen_every=0)
    for u, v in sc.network.links:
        sc.network.set_link_ber(u, v, 0.0, bidirectional=False)
    return sc


def measured(sc: ChurnScenario, trace_top=None):
    """Run ``sc`` to "all sent" and to "all closed", keeping every
    initiator session; ``(bytes, objects)`` above the pre-open level at
    each point, after a collection (what is still *reachable*)."""
    held = []
    on_connected = sc._on_connected
    sc._on_connected = lambda conn, state: (
        held.append(conn.session), on_connected(conn, state))
    gc.collect()
    gc.disable()
    tracemalloc.start(1 if trace_top is None else 8)
    try:
        start = tracemalloc.take_snapshot() if trace_top is not None else None
        bytes0, objects0 = tracemalloc.get_traced_memory()[0], len(gc.get_objects())
        points = []
        for name, until in (("live", 1.9), ("closed", 10.0)):
            sc.run(until=until)
            gc.collect()
            points.append((tracemalloc.get_traced_memory()[0] - bytes0,
                           len(gc.get_objects()) - objects0))
            if trace_top is not None:
                trace_top[name] = tracemalloc.take_snapshot().compare_to(
                    start, "lineno")[:20]
            if name == "live":
                n = sc.n_connections
                assert sc.established == sc.live == n
                assert all(s.stats.msgs_sent >= 1 for s in held)
        assert sc.closed == sc.n_connections and all(s.closed for s in held)
        return points, held
    finally:
        tracemalloc.stop()
        gc.enable()


def setup_module(module):
    # code objects, templates of the four shapes, interned names: once
    quiet_churn(40).run(until=10.0)


def test_live_and_closed_held_budgets():
    points, held = measured(quiet_churn(N))
    (live_b, live_n), (held_b, held_n) = [(b / N, n / N) for b, n in points]
    print(f"\nlive {live_b / 1024:.1f} KB / {live_n:.0f} objects, "
          f"closed-held {held_b / 1024:.1f} KB / {held_n:.0f} objects per "
          f"connection (py{sys.version_info[0]}.{sys.version_info[1]})")
    assert live_n <= LIVE_BUDGET[1] and held_n <= HELD_BUDGET[1]
    if BYTES_ASSERTED:
        assert live_b <= LIVE_BUDGET[0] and held_b <= HELD_BUDGET[0]
    # what a held handle still answers
    s = held[0]
    assert s.stats.msgs_sent >= 1 and s.stats.closed_at is not None
    assert s.cfg is not None and s.conn_id and s.remote_host == "B"
    assert s.executor.fast_sends >= 0 and "recovery=" in s.context.describe()


def test_nothing_held_nothing_left_without_a_collection():
    """The same world first opens and closes a wave (so the pool's free
    list, the kernel's recycled records and the signalling sessions exist),
    then the 200: the count comes back without the cyclic collector."""
    sc = quiet_churn(40)
    sc.run(until=8.0)
    assert sc.closed == 40
    sc.system.sim.schedule(0.0, sc._open_wave, list(range(40, 40 + N)))
    sc.n_connections += N
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        sc.run(until=16.0)
        after = len(gc.get_objects())
    finally:
        gc.enable()
    assert sc.closed == sc.established == 40 + N
    assert after - before <= 0.02 * before, (before, after)
    assert sc.system.check_quiescent() == []


# ----------------------------------------------------------------------
#: the only per-connection classes whose instances may carry a ``__dict__``:
#: ``executor.send`` / ``.handle_frame`` are installed there at first use,
#: and ``session._handle_ack`` may be shadowed by tests and tools
DICT_ALLOWED = {CompiledExecutor, TKOSession}


def brought_into_being(root, preexisting: set) -> list:
    """Every object reachable from ``root`` that did not exist before."""
    seen, stack, out = set(preexisting), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        out.append(obj)
        stack.extend(gc.get_referents(obj))
    return out


def test_no_per_connection_object_has_an_instance_dict():
    sc = quiet_churn(len(CLASSES))  # one connection of each class
    gc.collect()
    preexisting = {id(o) for o in gc.get_objects()}
    sc.run(until=1.9)
    conns = list(sc.a.mantts.connections.values())
    assert sc.established == sc.live == len(CLASSES) == len(conns)
    offenders = set()
    for conn in conns:
        responder = [s for s in sc.b.mantts._peer_sessions.values()
                     if s.remote_port == conn.session.local_port]
        assert conn.session.stats.msgs_sent >= 1 and len(responder) == 1
        for root in (conn, responder[0]):
            for obj in brought_into_being(root, preexisting):
                cls = type(obj)
                if (cls.__module__.startswith("repro.")
                        and cls.__dictoffset__ and cls not in DICT_ALLOWED):
                    offenders.add(f"{cls.__module__}.{cls.__qualname__}")
        # and the two that may have one hold only the documented entries
        assert set(vars(conn.session.executor)) <= {"send", "handle_frame"}
        assert vars(conn.session) == {}
    assert not offenders, sorted(offenders)


# ----------------------------------------------------------------------
def test_churn_200_ends_without_a_leak():
    """As shipped (bit errors on) this world has a responder that gives its
    handshake up in ``syn-rcvd`` and an initiator whose FIN then finds no
    session.  Both end, through the same path as every other end, and
    leave nothing behind once the FIN retries have run out."""
    from tests.conftest import SETTLE_S  # (this file also runs as a script)

    sc = ChurnScenario(n_connections=200, seed=7).run(until=20.0)
    sc.run(until=20.0 + SETTLE_S)
    assert sc.system.check_quiescent() == []


def test_churn_800_ends_quiescent():
    sc = ChurnScenario(n_connections=800, seed=7)
    sc.run(until=4.0)
    busy = sc.system.check_quiescent()
    assert busy and all(v.startswith("not quiescent: ") for v in busy)
    sc.run(until=20.0)
    assert sc.system.check_quiescent() == []


if __name__ == "__main__":
    setup_module(None)
    top: dict = {}
    measured(quiet_churn(N), trace_top=top)
    with open(sys.argv[1], "w") as out:
        for name, stats in top.items():
            out.write(f"== {name}: top 20 lines by bytes above the pre-open "
                      f"level, {N} connections\n")
            out.writelines(f"{stat}\n" for stat in stats)
