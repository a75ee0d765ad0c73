"""Per-session rendered send/recv functions (the paper's customization,
taken to its end state).

:class:`~repro.tko.executor.CompiledExecutor` flattens mechanism dispatch
into prebound entry points driven by generic methods; this module goes
one step further and **emits Python source** for each session's hot path:
stage bodies inlined into one function, the per-stage loop gone, and the
compiled pipeline's charge scalars folded in as closure constants.  This
is the §4.2.2 "static template" idea — a protocol *guaranteed not to
change* may be inline-expanded — applied dynamically: any structural
change (segue, update_config, repipeline) simply regenerates the closure.

Determinism contract: the rendered send executes the *same operations in
the same order* as the executor's ``general_send`` route, and every
situation it does not specialize for — telemetry on, observers attached,
a protocol graph below the session, multi-fragment messages, paused or
closing states, a non-empty send queue — falls back to that route wholesale
*before* consuming any state (no message id drawn, no piggyback config
popped).  The churn delivery digest is the identity check; see
``tests/tko/test_genexec_identity.py``.

Rendered code objects are cached process-wide by *structural key* (the
booleans that change the emitted source).  Binding is two-stage: what is
a function of (config signature, host ``CpuCosts``) — charge scalars,
frame geometry, module constants — is bound once per compiled pipeline
and rides on it (``CompiledPipeline.codegen``, shared through the
template cache); what is per-session is bound **at first use**, per
direction, by the executor.  A session that never sends never pays for a
send closure, and ``recompile`` only *invalidates* what is installed.

The per-session half is bound as the rendered function's *default
arguments* (one tuple per function, not one cell object per name), and
only what the body for this shape reads is bound.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from repro.mechanisms.base import TransmissionControl
from repro.mechanisms.detection import (
    InternetChecksum, NoDetection, _ChecksumBase)
from repro.mechanisms.retransmission import NoRecovery, _RetransmitBase
from repro.mechanisms.transmission import (
    NoTransmissionControl, RateControl, SlidingWindow, StopAndWait,
    WindowRate)
from repro.netsim.frame import Frame, _frame_ids
from repro.tko.message import TKOMessage, _msg_ids
from repro.tko.pdu import (
    COMPACT_HEADER_SIZE,
    LEGACY_HEADER_BASE,
    LEGACY_OPTION_SIZE,
    PDU,
    PDU_POOL,
    TRAILER_CHECKSUM_SIZE,
    PduType,
    _msg_counter,
)
from repro.tko.pipeline import NETWORK_HEADER_BYTES
from repro.tko.state import SendEntry
from repro.unites.obs.telemetry import TELEMETRY as _TELEMETRY

#: structural key -> compiled binder source; the process-wide codegen cache
_FACTORY_CACHE: Dict[Tuple, Any] = {}

#: stats a bench or test can read to prove the cache amortizes
codegen_stats = {"rendered": 0, "factory_hits": 0, "installed": 0}


def _send_source(track: bool, compact: bool, send_deferred: bool,
                 tx_kind: str, rec_kind: str, det_kind: str) -> str:
    """Render the fused single-fragment send function.

    Operation order is a faithful inline of ``CompiledExecutor``'s
    ``general_send`` → ``_send_body`` → ``pump`` → ``_send_data`` →
    ``transmit`` → ``Host.transmit`` chain for the specialized case; the charge
    expressions keep the compiled pipeline's exact association order so
    float arithmetic stays bit-identical.

    ``tx_kind`` / ``rec_kind`` / ``det_kind`` select mechanism-body
    inlines; ``_mechanism_kinds`` only picks a non-"generic" kind after
    proving (by method identity on the exact class) that the inline below
    is the code that would have run.
    """
    # -- transmission control: can_send / send_gap / on_send -----------
    if tx_kind in ("window-rate", "sliding-window"):
        can_send_block = (
            "        peer = state.peer_window\n"
            "        win = WIN if peer is None or WIN < peer else peer\n"
            "        if len(outstanding) >= win:\n"
            "            exe._queue().append(pdu)\n"
            "            return msg_id\n"
        )
    elif tx_kind == "stop-and-wait":
        can_send_block = (
            "        if outstanding:\n"
            "            exe._queue().append(pdu)\n"
            "            return msg_id\n"
        )
    elif tx_kind in ("rate", "none"):
        can_send_block = ""  # can_send() is constant True
    else:
        can_send_block = (
            "        if not tx.can_send():\n"
            "            exe._queue().append(pdu)\n"
            "            return msg_id\n"
        )
    if tx_kind in ("window-rate", "rate"):
        gap_block = (
            "        now = sim._now\n"
            "        gap = rate_obj._next_slot - now\n"
            "        if gap > 0.0:\n"
            "            exe._queue().append(pdu)\n"
            "            exe._schedule_pump(gap)\n"
            "            return msg_id\n"
        )
        now_block = ""  # ``now`` already bound by the gap inline
        tx_on_send_block = (
            "        rate_obj._next_slot = "
            "max(now, rate_obj._next_slot) + 1.0 / float(rate_obj._rate)\n"
        )
    elif tx_kind in ("none", "stop-and-wait", "sliding-window"):
        gap_block = ""  # send_gap() is constant 0.0
        now_block = "        now = sim._now\n"
        tx_on_send_block = ""  # base on_send is a no-op
    else:
        gap_block = (
            "        gap = tx.send_gap()\n"
            "        if gap > 0:\n"
            "            exe._queue().append(pdu)\n"
            "            exe._schedule_pump(gap)\n"
            "            return msg_id\n"
        )
        now_block = "        now = sim._now\n"
        tx_on_send_block = "        tx.on_send(pdu)\n"

    track_block = (
        "        outstanding[seq] = SendEntry(pdu, first_sent=now, last_sent=now)\n"
        if track else ""
    )

    # -- error recovery: on_send (loss-clock arm + repair extras) ------
    if rec_kind == "retransmit":
        rec_block = (
            "        ev = rec_timer._event\n"
            "        if ev is None or ev.cancelled:\n"
            "            rec_timer.schedule(s.rtt.rto)\n"
        )
        extras_loop = ""
    elif rec_kind == "norecovery":
        rec_block = ""
        extras_loop = ""
    else:
        rec_block = "        extras = rec.on_send(pdu)\n"
        extras_loop = (
            "        for extra in extras:\n"
            "            exe.transmit(extra, False)\n"
        )

    # -- error detection: attach -----------------------------------------
    if det_kind == "internet":
        det_block = (
            "        pdu.checksum = msg.checksum16()\n"
            "        pdu.checksum_placement = DET_PLACEMENT\n"
        )
    elif det_kind == "checksum":
        det_block = (
            "        pdu.checksum = det._compute(pdu)\n"
            "        pdu.checksum_placement = DET_PLACEMENT\n"
        )
    elif det_kind == "nodetect":
        det_block = (
            "        pdu.checksum = None\n"
            "        pdu.checksum_placement = None\n"
        )
    else:
        det_block = "        det.attach(pdu)\n"

    release_block = (
        "" if track else
        "        if pdu.pooled:\n"
        "            pdu.release()\n"
    )
    deferred_block = (
        "        deferred = DF + DPB * n\n"
        "        if deferred > 0.0:\n"
        "            cpu.charge(deferred)\n"
        if send_deferred else ""
    )
    size_expr = (
        "FSIZE + n + pdu.aux_size" if compact
        else "FSIZE + OPT * len(pdu.options) + n + pdu.aux_size"
    )
    # -- what only the session can supply, beside ``s`` and ``exe``:
    # (name, expression), bound once in ``make_send`` as default arguments
    binds = [
        ("conn", "ctx.connection"), ("dlv", "ctx.delivery"), ("host", "s.host"),
        ("net", "host.network"), ("cpu", "host.cpu"), ("net_send", "net.send"),
        ("sim", "s.sim"), ("state", "s.state"), ("stats", "s.stats"),
        ("layers", "s.protocol.layers if s.protocol is not None else ()"),
        ("seg_cell", "[-1, 0]"),
        ("seg_cached", "hasattr(net, 'topology_version')"),
    ]
    if track or tx_kind in ("window-rate", "sliding-window", "stop-and-wait"):
        binds.append(("outstanding", "state.outstanding"))
    if tx_kind in ("window-rate", "sliding-window"):
        binds.append(("WIN", "s.cfg.window"))
    if tx_kind == "window-rate":
        binds.append(("rate_obj", "ctx.transmission._rate"))
    elif tx_kind == "rate":
        binds.append(("rate_obj", "ctx.transmission"))
    elif tx_kind == "generic":
        binds.append(("tx", "ctx.transmission"))
    if rec_kind == "retransmit":
        binds.append(("rec_timer", "ctx.recovery._timer"))
    elif rec_kind == "generic":
        binds.append(("rec", "ctx.recovery"))
    if det_kind in ("checksum", "generic"):
        binds.append(("det", "ctx.detection"))
    bind_lines = "".join(f"    {name} = {expr}\n" for name, expr in binds)
    defaults = ", ".join(f"{name}={name}" for name, _ in binds)
    return f"""\
def make_send(exe):
    s = exe.s; ctx = s.context
{bind_lines}
    def generated_send(data, s=s, exe=exe, {defaults}):
        # anything the fast path does not specialize for takes the
        # general route, before any state is consumed
        if (telemetry.enabled or s.observers or layers
                or s._paused or s._closing
                or not conn.connected or s._send_queue):
            # graph *layers* force the fallback; a bare protocol mux with
            # an empty graph egresses exactly like host.transmit, which
            # the fast path inlines below
            return exe.general_send(data)
        n = len(data)
        if seg_cached:
            tv = net.topology_version
            if tv != seg_cell[0]:
                seg_cell[1] = s.segment_size()
                seg_cell[0] = tv
            seg = seg_cell[1]
        else:
            seg = s.segment_size()
        if data.__class__ is not bytes or not 0 < n <= seg:
            # mutable buffers take the general route (its ctor snapshots
            # them); wire-size bytes are wrapped below without a copy
            return exe.general_send(data)
        exe.fast_sends += 1
        msg_id = next(msg_counter)
        stats.msgs_sent += 1
        msg = TKOMessage.__new__(TKOMessage)  # inline ctor: bytes, n > 0
        msg.id = next(msg_ids)
        msg._headers = []
        msg._segments = [memoryview(data)]
        msg.meter = s.copy_meter
        msg._leases = None
        if s._pooling:
            pdu = pool_acquire(DATA, s.conn_id, src_port=s.local_port,
                               dst_port=s.remote_port, compact=COMPACT)
        else:
            pdu = PDU(DATA, s.conn_id, src_port=s.local_port,
                      dst_port=s.remote_port, compact=COMPACT)
        seq = state.snd_nxt
        state.snd_nxt = seq + 1
        pdu.seq = seq
        pdu.msg_id = msg_id
        pdu.message = msg
        pb = conn.piggyback_config()
        if pb is not None:
            pdu.options['cfg'] = pb
{can_send_block}{gap_block}{now_block}        pdu.timestamp = now
{track_block}{rec_block}{tx_on_send_block}{det_block}        critical = SB + SPB * n + SD
        stats.data_bytes_sent += n
        if pdu.pooled:
            pdu._refs += 1    # the wire's reference (inlined retain)
        frame = Frame.__new__(Frame)
        frame.id = next(frame_ids)
        frame.src = host.name
        frame.dst = dlv.frame_dst()
        frame.size = {size_expr}
        frame.payload = pdu
        frame.priority = PRIORITY
        frame.corrupted = False
        frame.hops = 0
        frame.multicast_dsts = None
        frame.created_at = now
        frame.trace = []
        frame.heartbeat = False
        stats.pdus_sent += 1
        stats.wire_bytes_sent += frame.size
        host.frames_sent += 1
        cpu.submit(INTERRUPT + critical, net_send, frame)
{deferred_block}{release_block}{extras_loop}        return msg_id

    return generated_send
"""


def _recv_source(recv_deferred: bool) -> str:
    """Render the specialized frame-receive charge function (total: it
    needs no fallback; ``_process`` is the executor's own method)."""
    deferred_block = (
        "            deferred = RDF + RDPB * n\n"
        "            if deferred > 0.0:\n"
        "                cpu.submit(cost, process, pdu, frame)\n"
        "                cpu.charge(deferred)\n"
        "                return\n"
        if recv_deferred else ""
    )
    return f"""\
def make_recv(exe):
    process = exe._process; cpu = exe.s.host.cpu

    def generated_handle_frame(pdu, frame, process=process, cpu=cpu):
        # no ended-session test: ``retire`` deletes this closure
        t = pdu.ptype
        if t is DATA or t is PARITY:
            n = pdu.data_size
            cost = (RBA if pdu.compact else RBU) + RPB * n + RD
{deferred_block}        else:
            cost = CA if pdu.compact else CU
        cpu.submit(cost, process, pdu, frame)

    return generated_handle_frame
"""


def _factory(kind: str, key: Tuple, render: Callable[[], str],
             ns: Dict[str, Any]) -> Callable:
    """Define ``make_<kind>`` over ``ns`` and return it.

    The code object is cached process-wide by structural key; ``ns`` —
    one compiled pipeline's session-independent bindings — becomes the
    globals of every closure the returned binder makes.  The binder takes
    the executor and reads the per-session half off it.
    """
    cache_key = (kind,) + key
    code = _FACTORY_CACHE.get(cache_key)
    if code is None:
        code = compile(render(), f"<genexec:{kind}{key}>", "exec")
        _FACTORY_CACHE[cache_key] = code
        codegen_stats["rendered"] += 1
    else:
        codegen_stats["factory_hits"] += 1
    exec(code, ns)
    return ns["make_" + kind]


def _mechanism_kinds(ctx) -> Tuple[str, str, str]:
    """Classify a context's bound mechanisms for body inlining.

    A non-"generic" kind is claimed only for the *exact* class whose
    method bodies the generated source reproduces (and, for hooks a
    subclass could override, only when the bound method **is** the
    base implementation) — any user subclass or unknown mechanism
    falls back to calling the mechanism's own methods.
    """
    tx = ctx.transmission
    tcls = type(tx)
    base_on_send = tcls.on_send is TransmissionControl.on_send
    if (tcls is WindowRate and type(tx._window) is SlidingWindow
            and type(tx._rate) is RateControl):
        tx_kind = "window-rate"
    elif tcls is RateControl:
        tx_kind = "rate"
    elif tcls is NoTransmissionControl and base_on_send:
        tx_kind = "none"
    elif tcls is StopAndWait and base_on_send:
        tx_kind = "stop-and-wait"
    elif tcls is SlidingWindow and base_on_send:
        tx_kind = "sliding-window"
    else:
        tx_kind = "generic"

    rec = ctx.recovery
    rcls = type(rec)
    if (issubclass(rcls, _RetransmitBase)
            and rcls.on_send is _RetransmitBase.on_send
            and rcls._arm is _RetransmitBase._arm
            and rec._timer is not None):
        rec_kind = "retransmit"
    elif rcls.on_send is NoRecovery.on_send:
        rec_kind = "norecovery"
    else:
        rec_kind = "generic"

    det = ctx.detection
    dcls = type(det)
    if dcls is InternetChecksum:
        det_kind = "internet"
    elif (issubclass(dcls, _ChecksumBase)
            and dcls.attach is _ChecksumBase.attach):
        det_kind = "checksum"
    elif dcls is NoDetection:
        det_kind = "nodetect"
    else:
        det_kind = "generic"
    return tx_kind, rec_kind, det_kind


def codegen(exe) -> Tuple[Tuple, Callable, Callable]:
    """``(structural key, make_send, make_recv)`` for ``exe``'s pipeline.

    Derived once per :class:`CompiledPipeline` and parked on it: every
    session a template stamps from that pipeline finds it there, and a
    session that diverged (its ``recompile`` built a private pipeline)
    derives its own.  Everything here is session-independent.
    """
    pipe = exe.pipeline
    if pipe.codegen is None:
        ctx = exe.s.context
        placement = getattr(ctx.detection, "placement", None)
        trailer = TRAILER_CHECKSUM_SIZE if placement == "trailer" else 0
        compact = bool(exe.s.cfg.compact_headers)
        header = COMPACT_HEADER_SIZE if compact else LEGACY_HEADER_BASE
        send_deferred = (pipe.send_def_fixed != 0.0
                         or pipe.send_def_per_byte != 0.0)
        recv_deferred = (pipe.recv_def_fixed != 0.0
                         or pipe.recv_def_per_byte != 0.0)
        key = (pipe.track_outstanding, compact, send_deferred,
               *_mechanism_kinds(ctx))
        ns = {
            "telemetry": _TELEMETRY, "pool_acquire": PDU_POOL.acquire,
            "PDU": PDU, "DATA": PduType.DATA, "PARITY": PduType.PARITY,
            "SendEntry": SendEntry, "Frame": Frame,
            "frame_ids": _frame_ids, "TKOMessage": TKOMessage,
            "msg_counter": _msg_counter, "msg_ids": _msg_ids,
            "DET_PLACEMENT": placement,
            "FSIZE": header + trailer + NETWORK_HEADER_BYTES,
            "OPT": LEGACY_OPTION_SIZE, "COMPACT": compact,
            "INTERRUPT": exe.s.host.cpu.costs.interrupt,
            # the closed-form charge scalars, folded by the pipeline
            # itself (SB/SPB/SD/DF/DPB/PRIORITY + the recv/control family)
            **pipe.charge_bindings(),
        }
        pipe.codegen = (
            key,
            _factory("send", key, lambda: _send_source(*key), ns),
            _factory("recv", (recv_deferred,),
                     lambda: _recv_source(recv_deferred), ns),
        )
    return pipe.codegen
