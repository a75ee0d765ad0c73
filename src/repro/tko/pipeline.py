"""Compiling a mechanism stack into a flat, costed pipeline (§4.2.2).

The paper frames Stage III in the Synthesis/SELF tradition: the
synthesizer emits "an executable session object representation", not a
pile of objects consulted per packet.  ``CompiledPipeline`` is that
representation — the nine bound mechanisms flattened into

* an ordered tuple of :class:`~repro.mechanisms.base.StageSpec` per path
  (``SEND_SLOTS`` / ``RECV_SLOTS`` order), and
* **closed-form per-PDU charges**: for each path a fixed base, a per-byte
  coefficient, and a dispatch-indirection term, so the executor computes
  ``base + per_byte * n + dispatch`` instead of walking the slot table
  through dynamic dispatch.

A mechanism declares its cost once, in ``compile_stage()``; the protocol
interpreter's *work* is modelled as those instruction counts charged to
the host CPU, and the *binding style* models the customization trade-off
of §4.2.2:

* ``dynamic``   — a freshly synthesized configuration: every mechanism
  call goes through the dispatch table (full virtual-call indirection);
* ``reconfigurable`` — a cached reconfigurable template: bindings are
  pre-resolved but still indirect enough to allow segue (reduced cost);
* ``static``    — a fully customized template: calls are inline-expanded,
  zero indirection — and segue is *impossible* (the template is
  "guaranteed not to change"), which the session enforces.  Each static
  template also carries a code-size estimate so the template cache can
  report the "code bloat" cost of inline expansion that the paper borrows
  from the Synthesis kernel discussion.

The arithmetic is bit-identical to a per-PDU walk of the slot table (the
oracle kept under ``tests/oracles/``) by construction: every mechanism
fixed/per-byte cost is an exact multiple of 0.5 (their sum is exact in
any order) and the single inexact operand — ``dispatches *
virtual_dispatch * binding_factor`` — is added last, exactly as the walk
accumulates it.  Compiling therefore changes *wall* time only, never
simulated time.

Recompilation is cheap and scoped: ``segue`` re-invokes ``compile_stage``
for only the swapped slot and re-derives the scalars; a full recompile
happens only on ``update_config``.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, Optional

from repro.netsim.frame import PRIO_HIGH, PRIO_NORMAL
from repro.unites.obs.telemetry import TELEMETRY as _TELEMETRY

if TYPE_CHECKING:  # pragma: no cover
    from repro.mechanisms.base import StageSpec
    from repro.tko.session import TKOSession

#: indirection multiplier per binding style (× virtual_dispatch cost)
BINDING_FACTOR = {"dynamic": 1.0, "reconfigurable": 0.4, "static": 0.0}

#: estimated machine-code bytes per inline-expanded mechanism (static only)
CODE_BYTES_PER_MECHANISM = 1800

#: network-layer encapsulation below the transport PDU, bytes
NETWORK_HEADER_BYTES = 24

#: context slots whose mechanisms touch every outgoing DATA PDU — this is
#: also the compiled pipeline's send-stage order
SEND_SLOTS = ("connection", "transmission", "detection", "recovery",
              "sequencing", "delivery", "buffer")
#: slots touching every incoming DATA PDU (receive-stage order)
RECV_SLOTS = ("connection", "detection", "recovery", "sequencing",
              "delivery", "jitter", "buffer")

#: transmission mechanisms whose window accounting needs the sender state
#: machine to track outstanding PDUs even when recovery never retransmits
_WINDOWED_TRANSMISSION = ("stop-and-wait", "sliding-window", "window-rate", "tcp-aimd")


class CompiledPipeline:
    """Immutable product of compiling one mechanism stack for one host.

    Every scalar is a function of (config signature, host ``CpuCosts``),
    so a :class:`~repro.tko.templates.Template` keeps one pipeline per
    cost table and every hit on that host shares it.  ``codegen`` is the
    one slot filled later: :func:`repro.tko.genexec.codegen` parks what it
    derives from this pipeline there (structural key, closure factories
    with the session-independent bindings applied), once, for every sharer.
    """

    __slots__ = (
        "specs",
        "codegen",
        "costs",
        "binding_factor",
        "send_base",
        "send_per_byte",
        "send_dispatch",
        "send_def_fixed",
        "send_def_per_byte",
        "recv_base_aligned",
        "recv_base_unaligned",
        "recv_per_byte",
        "recv_dispatch",
        "recv_def_fixed",
        "recv_def_per_byte",
        "control_aligned",
        "control_unaligned",
        "data_priority",
        "track_outstanding",
        "ordered",
        "dedup",
        "accept_out_of_order",
        "retransmits",
    )

    def __init__(self, session: "TKOSession", specs: Dict[str, "StageSpec"]) -> None:
        self.specs = dict(specs)
        self.codegen = None
        cfg = session.cfg
        self.costs = costs = session.host.cpu.costs
        factor = BINDING_FACTOR[cfg.binding]
        self.binding_factor = factor

        send_base = float(costs.layer_fixed)
        send_pb = 0.0
        send_disp = 0
        send_def_fixed = 0.0
        send_def_pb = 0.0
        for slot in SEND_SLOTS:
            spec = specs[slot]
            if slot == "detection" and spec.overlaps_tx:
                send_def_fixed += spec.send_fixed
                send_def_pb += spec.send_per_byte
            else:
                send_base += spec.send_fixed
                send_pb += spec.send_per_byte
            send_disp += spec.dispatch_send
        self.send_base = send_base
        self.send_per_byte = send_pb
        # identical expression shape to the oracle's walk so float rounding
        # matches bit-for-bit (left-assoc, factor multiplied last)
        self.send_dispatch = send_disp * costs.virtual_dispatch * factor
        self.send_def_fixed = send_def_fixed
        self.send_def_per_byte = send_def_pb

        recv_fixed = 0.0
        recv_pb = 0.0
        recv_disp = 0
        recv_def_fixed = 0.0
        recv_def_pb = 0.0
        for slot in RECV_SLOTS:
            spec = specs[slot]
            if slot == "detection" and spec.overlaps_tx:
                recv_def_fixed += spec.recv_fixed
                recv_def_pb += spec.recv_per_byte
            else:
                recv_fixed += spec.recv_fixed
                recv_pb += spec.recv_per_byte
            recv_disp += spec.dispatch_recv
        self.recv_base_aligned = (
            float(costs.layer_fixed + costs.header_parse_aligned) + recv_fixed
        )
        self.recv_base_unaligned = (
            float(costs.layer_fixed + costs.header_parse_unaligned) + recv_fixed
        )
        self.recv_per_byte = recv_pb
        self.recv_dispatch = recv_disp * costs.virtual_dispatch * factor
        self.recv_def_fixed = recv_def_fixed
        self.recv_def_per_byte = recv_def_pb

        self.control_aligned = float(costs.layer_fixed + costs.header_parse_aligned)
        self.control_unaligned = float(costs.layer_fixed + costs.header_parse_unaligned)

        self.data_priority = PRIO_HIGH if cfg.priority else PRIO_NORMAL
        # the mechanisms' policy flags (class constants), read from here by
        # the executor instead of being copied onto every session
        ctx = session.context
        self.ordered = ctx.sequencing.ordered
        self.dedup = ctx.sequencing.dedup
        self.accept_out_of_order = ctx.recovery.accept_out_of_order
        self.retransmits = ctx.recovery.retransmits
        self.track_outstanding = (
            self.retransmits or cfg.transmission in _WINDOWED_TRANSMISSION
        )

    # ------------------------------------------------------------------
    # closed-form charges (the per-PDU fast path)
    # ------------------------------------------------------------------
    def send_charge(self, nbytes: int):
        return (
            self.send_base + self.send_per_byte * nbytes + self.send_dispatch,
            self.send_def_fixed + self.send_def_per_byte * nbytes,
        )

    def recv_charge(self, nbytes: int, compact: bool):
        base = self.recv_base_aligned if compact else self.recv_base_unaligned
        return (
            base + self.recv_per_byte * nbytes + self.recv_dispatch,
            self.recv_def_fixed + self.recv_def_per_byte * nbytes,
        )

    def control_charge(self, compact: bool) -> float:
        return self.control_aligned if compact else self.control_unaligned

    def breakdown(self, nbytes: int, compact: bool) -> Dict[str, float]:
        """Per-mechanism instruction breakdown for one DATA PDU, both paths.

        The paper's whitebox metric "the number of instructions required
        to execute a protocol function" (§4.3), resolved per Figure 5
        slot.  Keys are slot names plus ``os-fixed`` (layer bookkeeping +
        header parse) and ``dispatch`` (binding indirection).
        """
        costs = self.costs
        parse = costs.header_parse_aligned if compact else costs.header_parse_unaligned
        out = {"os-fixed": 2.0 * costs.layer_fixed + parse}
        dispatches = 0
        for slot in dict.fromkeys(SEND_SLOTS + RECV_SLOTS):
            spec = self.specs[slot]
            total = 0.0
            if slot in SEND_SLOTS:
                total += spec.send_fixed + spec.send_per_byte * nbytes
                dispatches += spec.dispatch_send
            if slot in RECV_SLOTS:
                total += spec.recv_fixed + spec.recv_per_byte * nbytes
                dispatches += spec.dispatch_recv
            out[slot] = total
        out["dispatch"] = dispatches * costs.virtual_dispatch * self.binding_factor
        return out

    def charge_bindings(self) -> Dict[str, object]:
        """The closed-form charge scalars as codegen closure bindings.

        :mod:`repro.tko.genexec` folds these constants into the rendered
        send/recv closures; keeping the name → scalar mapping here means
        the fold can never drift from the charge expressions above.
        """
        return {
            "SB": self.send_base, "SPB": self.send_per_byte,
            "SD": self.send_dispatch, "DF": self.send_def_fixed,
            "DPB": self.send_def_per_byte, "PRIORITY": self.data_priority,
            "RBA": self.recv_base_aligned, "RBU": self.recv_base_unaligned,
            "RPB": self.recv_per_byte, "RD": self.recv_dispatch,
            "RDF": self.recv_def_fixed, "RDPB": self.recv_def_per_byte,
            "CA": self.control_aligned, "CU": self.control_unaligned,
        }


def compile_stages(session: "TKOSession") -> Dict[str, "StageSpec"]:
    """Run every bound mechanism's compile hook (all nine slots)."""
    from repro.tko.context import SLOTS

    ctx = session.context
    return {slot: ctx.get(slot).compile_stage() for slot in SLOTS}


def _fold(session: "TKOSession", specs) -> CompiledPipeline:
    return CompiledPipeline(
        session, compile_stages(session) if specs is None else specs)


def compile_pipeline(
    session: "TKOSession",
    specs: Optional[Dict[str, "StageSpec"]] = None,
    reason: str = "synthesize",
    shared: Optional[CompiledPipeline] = None,
) -> CompiledPipeline:
    """The pipeline ``session`` runs, with UNITES accounting.

    ``shared`` is a template's finished pipeline for this host's cost
    table: a hit compiles nothing and every sharer holds the same object.
    ``specs`` alone is a template's stage table met under another cost
    table (or a segue's re-spliced one): only the scalars are folded.
    All telemetry (span, compile counter, cache hit/miss counter,
    wall-time histogram) sits behind the ``TELEMETRY.enabled`` guard so
    the disabled-telemetry overhead bound holds.
    """
    if not _TELEMETRY.enabled:
        return shared or _fold(session, specs)

    cached = shared is not None or specs is not None
    t0 = time.perf_counter()
    with _TELEMETRY.span(
        "pipeline:compile", "tko", conn=session.conn_id, reason=reason, cached=cached
    ):
        pipe = shared or _fold(session, specs)
    m = _TELEMETRY.metrics
    m.counter(
        "pipeline_compiles_total",
        labels={"reason": reason},
        help="compiled-pipeline builds by trigger",
    ).inc()
    if reason == "synthesize":
        m.counter(
            "pipeline_cache_total",
            labels={"result": "hit" if cached else "miss"},
            help="compiled-pipeline template cache hits/misses",
        ).inc()
    m.histogram(
        "pipeline_compile_seconds",
        help="wall time to compile one session pipeline",
    ).observe(time.perf_counter() - t0)
    return pipe
