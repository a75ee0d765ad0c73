"""The chaos harness: one lossy transfer, measured end to end.

:func:`run_impaired_transfer` stands up two full ADAPTIVE systems over a
cross-connected loopback fabric pair, impairs *both* directions with one
:class:`~repro.transport.impair.ImpairmentSpec`, negotiates MANTTS with
timeout-retry enabled, pushes ``n_messages`` checksummed payloads
through TKO, and reports what survived: delivery count, digest match,
pooled-PDU and slab-lease balance, and the ordered impairment traces.

Two modes share the code path:

* ``deterministic=True`` — both worlds share a
  :class:`~repro.sim.clock.SteppedClock` and are co-driven with
  ``poll=0``, so the entire run (protocol timers, impairment decisions,
  retransmissions) is a single-threaded deterministic replay: two
  fresh-process runs with the same arguments produce byte-identical
  traces.  (In one process, message ids from the global counter shift
  encoded lengths between calls; the *decision* sequence still
  repeats.)  This is the acceptance suite's reproducibility mode.
* ``deterministic=False`` — a real :class:`~repro.sim.clock.WallClock`,
  real sleeps: the bench mode, measuring genuine lossy-path recovery
  time.

Used by ``tests/transport/test_chaos_acceptance.py`` and
``examples/lossy_transfer_demo.py``.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Optional

from repro.sim.clock import SteppedClock, WallClock
from repro.transport.impair import ImpairmentSpec
from repro.transport.loopback import loopback_pair

SERVICE_PORT = 7100


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for c in sorted(chunks):
        h.update(bytes(c))
    return h.hexdigest()


def run_impaired_transfer(
    spec: Optional[ImpairmentSpec] = None,
    n_messages: int = 10,
    msg_size: int = 2048,
    seed: int = 1,
    deterministic: bool = True,
    step_dt: float = 2e-4,
    connect_cap: float = 30.0,
    transfer_cap: float = 60.0,
    negotiation_retries: int = 4,
    negotiation_backoff: float = 0.25,
) -> Dict[str, Any]:
    """One checksummed n×size transfer over a hostile loopback path.

    Returns a result dict; see the assertions in the chaos acceptance
    suite for the guarantees each field backs.
    """
    # repro.core pulls in the whole stack; keep the module import light
    from repro.core.system import AdaptiveSystem
    from repro.mantts.acd import ACD
    from repro.tko.pdu import PDU_POOL

    if spec is None:
        spec = ImpairmentSpec(seed=seed, loss=0.2, dup=0.1, reorder=0.1)
    clock = SteppedClock(dt=step_dt) if deterministic else WallClock()
    poll = 0.0 if deterministic else None
    ta, tb = loopback_pair(seed=seed, clock=clock)
    imp_a = ta.impair(spec)
    imp_b = tb.impair(spec)
    pool0 = (PDU_POOL.acquired, PDU_POOL.recycled)

    sys_a = AdaptiveSystem(seed=seed, transport=ta)
    sys_b = AdaptiveSystem(seed=seed + 1, transport=tb)
    a = sys_a.node("A", mips=400.0)
    b = sys_b.node("B", mips=400.0)
    for node in (a, b):
        node.mantts.negotiation_retries = negotiation_retries
        node.mantts.negotiation_backoff = negotiation_backoff

    got: list = []
    b.mantts.register_service(SERVICE_PORT, on_deliver=lambda d, m: got.append(d))

    outcome: Dict[str, Any] = {}
    conn = a.mantts.open(
        ACD(participants=("B",), service_port=SERVICE_PORT),
        on_connected=lambda c: outcome.setdefault("connected", True),
        on_failed=lambda reason: outcome.setdefault("failed", reason),
    )
    sys_a.run(until=ta.clock.now() + connect_cap,
              stop_when=lambda: bool(outcome), poll=poll)

    payloads = []
    if outcome.get("connected"):
        for i in range(n_messages):
            body = (f"{i:04d}:".encode()
                    + bytes((i + j) & 0xFF for j in range(msg_size)))
            payloads.append(body[:msg_size])
        for p in payloads:
            conn.send(p)
        sys_a.run(until=ta.clock.now() + transfer_cap,
                  stop_when=lambda: len(got) >= len(payloads), poll=poll)
        conn.close()

        # quiesce: FIN/ACK exchanges (a lost one is retried until the
        # closer gives up), in-flight duplicates, and lossy signalling
        # retransmissions must all resolve before the pool balance means
        # anything — run until they do (bounded)
        def _settled() -> bool:
            return conn.session.closed and (PDU_POOL.acquired - pool0[0]
                                            == PDU_POOL.recycled - pool0[1])

        sys_a.run(until=ta.clock.now() + 0.5, poll=poll)
        sys_a.run(until=ta.clock.now() + 60.0,
                  stop_when=_settled, poll=poll)

    trace = list(imp_a.trace) + ["--"] + list(imp_b.trace)
    result: Dict[str, Any] = {
        "connected": bool(outcome.get("connected")),
        "failed": outcome.get("failed"),
        "sent": len(payloads),
        "delivered": len(got),
        "digest_ok": bool(payloads) and _digest(got) == _digest(payloads),
        "trace": trace,
        "trace_digest": hashlib.sha256("\n".join(trace).encode()).hexdigest(),
        "frames_sent": imp_a.frames_sent + imp_b.frames_sent,
        "send_errors": imp_a.send_errors + imp_b.send_errors,
        "pool_delta": (PDU_POOL.acquired - pool0[0],
                       PDU_POOL.recycled - pool0[1]),
        "slab_leases_live": (ta.network.arena.live_leases
                             + tb.network.arena.live_leases),
        "quiescence": sys_a.check_quiescent() + sys_b.check_quiescent(),
        "timeline_s": ta.clock.now(),
    }
    ta.close()
    tb.close()
    return result
