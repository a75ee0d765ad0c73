"""Per-session generated send/recv functions (the paper's customization,
taken to its end state).

:class:`~repro.tko.executor.CompiledExecutor` flattened mechanism dispatch
into prebound entry points driven by a generic method; this module goes
one step further and **emits Python source** for each session's hot path:
stage bodies inlined into one function, the per-stage loop gone, and the
compiled pipeline's charge scalars folded in as closure constants.  This
is the §4.2.2 "static template" idea — a protocol *guaranteed not to
change* may be inline-expanded — applied dynamically: any structural
change (segue, update_config, repipeline) simply regenerates the closure.

Determinism contract: the generated fast path executes the *same
operations in the same order* as ``CompiledExecutor`` (which is itself
bit-identical to ``ReferenceExecutor``), and every situation the fast
path does not specialize for — telemetry on, observers attached, a
protocol graph below the session, multi-fragment messages, pause/close
states, a non-empty send queue — falls back to the compiled path wholesale
*before* consuming any state (no message id drawn, no piggyback config
popped).  The churn delivery digest is the identity check; see
``tests/tko/test_genexec_identity.py``.

Generated code objects are cached process-wide by *structural key* (the
booleans that change the emitted source); per-session numeric constants
bind through the factory's closure, so a thousand same-shaped sessions
share one code object and pay only a closure construction each.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from repro.netsim.frame import Frame, _frame_ids
from repro.tko.executor import CompiledExecutor, _msg_counter
from repro.tko.interpreter import NETWORK_HEADER_BYTES
from repro.tko.message import TKOMessage, _msg_ids
from repro.tko.pdu import (
    COMPACT_HEADER_SIZE,
    LEGACY_HEADER_BASE,
    LEGACY_OPTION_SIZE,
    PDU,
    PDU_POOL,
    TRAILER_CHECKSUM_SIZE,
    PduType,
)
from repro.tko.state import SendEntry
from repro.tko.util import noop
from repro.unites.obs.telemetry import TELEMETRY as _TELEMETRY

#: structural key -> exec-compiled factory; the process-wide codegen cache
_FACTORY_CACHE: Dict[Tuple, Callable] = {}

#: stats a bench or test can read to prove the cache amortizes
codegen_stats = {"rendered": 0, "factory_hits": 0, "installed": 0}


def _send_source(track: bool, compact: bool, send_deferred: bool,
                 tx_kind: str, rec_kind: str, det_kind: str) -> str:
    """Render the fused single-fragment send function.

    Operation order is a faithful inline of ``CompiledExecutor``'s
    ``_send_body`` → ``pump`` → ``_send_data`` → ``transmit`` →
    ``Host.transmit`` chain for the specialized case; the charge
    expressions keep the compiled pipeline's exact association order so
    float arithmetic stays bit-identical.

    ``tx_kind`` / ``rec_kind`` / ``det_kind`` select mechanism-body
    inlines; ``_install_generated`` only picks a non-"generic" kind after
    proving (by method identity on the exact class) that the inline below
    is the code that would have run.
    """
    # -- transmission control: can_send / send_gap / on_send -----------
    if tx_kind in ("window-rate", "sliding-window"):
        can_send_block = (
            "        peer = state.peer_window\n"
            "        win = WIN if peer is None or WIN < peer else peer\n"
            "        if len(outstanding) >= win:\n"
            "            queue.append(pdu)\n"
            "            return msg_id\n"
        )
    elif tx_kind == "stop-and-wait":
        can_send_block = (
            "        if outstanding:\n"
            "            queue.append(pdu)\n"
            "            return msg_id\n"
        )
    elif tx_kind in ("rate", "none"):
        can_send_block = ""  # can_send() is constant True
    else:
        can_send_block = (
            "        if not can_send():\n"
            "            queue.append(pdu)\n"
            "            return msg_id\n"
        )
    if tx_kind in ("window-rate", "rate"):
        gap_block = (
            "        now = sim._now\n"
            "        gap = rate_obj._next_slot - now\n"
            "        if gap > 0.0:\n"
            "            queue.append(pdu)\n"
            "            schedule_pump(gap)\n"
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
            "        gap = send_gap()\n"
            "        if gap > 0:\n"
            "            queue.append(pdu)\n"
            "            schedule_pump(gap)\n"
            "            return msg_id\n"
        )
        now_block = "        now = sim._now\n"
        tx_on_send_block = "        tx_on_send(pdu)\n"

    track_block = (
        "        state_track(SendEntry(pdu, first_sent=now, last_sent=now))\n"
        if track else ""
    )

    # -- error recovery: on_send (loss-clock arm + repair extras) ------
    if rec_kind == "retransmit":
        rec_block = (
            "        ev = rec_timer._event\n"
            "        if ev is None or ev.cancelled:\n"
            "            rec_timer.schedule(rtt.rto)\n"
        )
        extras_loop = ""
    elif rec_kind == "norecovery":
        rec_block = ""
        extras_loop = ""
    else:
        rec_block = "        extras = rec_on_send(pdu)\n"
        extras_loop = (
            "        for extra in extras:\n"
            "            exe_transmit(extra, False)\n"
        )

    # -- error detection: attach -----------------------------------------
    if det_kind == "internet":
        det_block = (
            "        pdu.checksum = msg.checksum16()\n"
            "        pdu.checksum_placement = DET_PLACEMENT\n"
        )
    elif det_kind == "checksum":
        det_block = (
            "        pdu.checksum = det_compute(pdu)\n"
            "        pdu.checksum_placement = DET_PLACEMENT\n"
        )
    elif det_kind == "nodetect":
        det_block = (
            "        pdu.checksum = None\n"
            "        pdu.checksum_placement = None\n"
        )
    else:
        det_block = "        det_attach(pdu)\n"

    release_block = (
        "" if track else
        "        if pdu.pooled:\n"
        "            pdu.release()\n"
    )
    deferred_block = (
        "        deferred = DF + DPB * n\n"
        "        if deferred > 0.0:\n"
        "            cpu_charge(deferred)\n"
        if send_deferred else ""
    )
    size_expr = (
        "FSIZE + n + pdu.aux_size" if compact
        else "FSIZE + OPT * len(pdu.options) + n + pdu.aux_size"
    )
    return f"""\
def make_send(b):
    exe = b['exe']; s = b['s']; sim = b['sim']; conn = b['conn']
    compiled_send = b['compiled_send']; telemetry = b['telemetry']
    pool_acquire = b['pool_acquire']; PDU = b['PDU']; DATA = b['DATA']
    SendEntry = b['SendEntry']; Frame = b['Frame']; frame_ids = b['frame_ids']
    TKOMessage = b['TKOMessage']; msg_counter = b['msg_counter']
    msg_ids = b['msg_ids']; state = b['state']; state_track = b['state_track']
    rec_on_send = b['rec_on_send']; tx_on_send = b['tx_on_send']
    det_attach = b['det_attach']; frame_dst = b['frame_dst']
    can_send = b['can_send']; send_gap = b['send_gap']; pb_fn = b['pb_fn']
    cpu_submit = b['cpu_submit']; cpu_charge = b['cpu_charge']
    net_send = b['net_send']; host = b['host']
    exe_transmit = b['exe_transmit']; schedule_pump = b['schedule_pump']
    noop = b['noop']; seg_cell = b['seg_cell']; seg_fn = b['seg_fn']
    net = b['net']; seg_cached = b['seg_cached']
    layers = b['layers']; fast_cell = b['fast_cell']
    outstanding = b['outstanding']; WIN = b['WIN']; rate_obj = b['rate_obj']
    rec_timer = b['rec_timer']; rtt = b['rtt']
    det_compute = b['det_compute']; DET_PLACEMENT = b['DET_PLACEMENT']
    SB = b['SB']; SPB = b['SPB']; SD = b['SD']; DF = b['DF']; DPB = b['DPB']
    PRIORITY = b['PRIORITY']; FSIZE = b['FSIZE']; OPT = b['OPT']
    CONN = b['CONN']; SP = b['SP']; DP = b['DP']; COMPACT = b['COMPACT']
    INTERRUPT = b['INTERRUPT']; HOSTNAME = b['HOSTNAME']
    meter = b['meter']; queue = b['queue']; stats = b['stats']

    def generated_send(data):
        # anything the fast path does not specialize for takes the
        # compiled route, before any state is consumed
        if (telemetry.enabled or s.observers or layers
                or s._paused or s._closing or s._closed
                or not conn.connected or queue):
            # graph *layers* force the fallback; a bare protocol mux with
            # an empty graph egresses exactly like host.transmit, which
            # the fast path inlines below
            return compiled_send(data)
        n = len(data)
        if seg_cached:
            tv = net.topology_version
            if tv != seg_cell[0]:
                seg_cell[1] = seg_fn()
                seg_cell[0] = tv
            seg = seg_cell[1]
        else:
            seg = seg_fn()
        if data.__class__ is not bytes or not 0 < n <= seg:
            # mutable buffers take the compiled route (its ctor snapshots
            # them); wire-size bytes are wrapped below without a copy
            return compiled_send(data)
        fast_cell[0] += 1
        msg_id = next(msg_counter)
        stats.msgs_sent += 1
        msg = TKOMessage.__new__(TKOMessage)  # inline ctor: bytes, n > 0
        msg.id = next(msg_ids)
        msg._headers = []
        msg._segments = [memoryview(data)]
        msg.meter = meter
        msg._leases = None
        if s._pooling:
            pdu = pool_acquire(DATA, CONN, src_port=SP, dst_port=DP,
                               compact=COMPACT)
        else:
            pdu = PDU(DATA, CONN, src_port=SP, dst_port=DP, compact=COMPACT)
        seq = state.snd_nxt
        state.snd_nxt = seq + 1
        pdu.seq = seq
        pdu.msg_id = msg_id
        pdu.message = msg
        pb = pb_fn()
        if pb is not None:
            pdu.options['cfg'] = pb
{can_send_block}{gap_block}{now_block}        pdu.timestamp = now
{track_block}{rec_block}{tx_on_send_block}{det_block}        critical = SB + SPB * n + SD
        stats.data_bytes_sent += n
        if pdu.pooled:
            pdu._refs += 1    # the wire's reference (inlined retain)
        frame = Frame.__new__(Frame)
        frame.id = next(frame_ids)
        frame.src = HOSTNAME
        frame.dst = frame_dst()
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
        cpu_submit(INTERRUPT + critical, net_send, frame)
{deferred_block}{release_block}{extras_loop}        return msg_id

    return generated_send
"""


def _recv_source(recv_deferred: bool) -> str:
    """Render the specialized frame-receive charge function (a total
    replacement — no fallback needed; ``_process`` stays compiled)."""
    deferred_block = (
        "            deferred = RDF + RDPB * n\n"
        "            if deferred > 0.0:\n"
        "                cpu_submit(cost, process, pdu, frame)\n"
        "                cpu_charge(deferred)\n"
        "                return\n"
        if recv_deferred else ""
    )
    return f"""\
def make_recv(b):
    s = b['s']; process = b['process']; cpu_submit = b['cpu_submit']
    cpu_charge = b['cpu_charge']; DATA = b['DATA']; PARITY = b['PARITY']
    RBA = b['RBA']; RBU = b['RBU']; RPB = b['RPB']; RD = b['RD']
    RDF = b['RDF']; RDPB = b['RDPB']; CA = b['CA']; CU = b['CU']

    def generated_handle_frame(pdu, frame):
        if s._closed:
            return
        t = pdu.ptype
        if t is DATA or t is PARITY:
            n = pdu.data_size
            cost = (RBA if pdu.compact else RBU) + RPB * n + RD
{deferred_block}        else:
            cost = CA if pdu.compact else CU
        cpu_submit(cost, process, pdu, frame)

    return generated_handle_frame
"""


def _factory(kind: str, key: Tuple, render: Callable[[], str]) -> Callable:
    cache_key = (kind,) + key
    factory = _FACTORY_CACHE.get(cache_key)
    if factory is None:
        src = render()
        ns: Dict[str, Any] = {}
        exec(compile(src, f"<genexec:{kind}{key}>", "exec"), ns)
        factory = ns["make_send" if kind == "send" else "make_recv"]
        _FACTORY_CACHE[cache_key] = factory
        codegen_stats["rendered"] += 1
    else:
        codegen_stats["factory_hits"] += 1
    return factory


class GeneratedExecutor(CompiledExecutor):
    """Compiled executor whose send/recv entry points are exec-generated.

    ``recompile`` (prime, segue, update_config, repipeline) re-derives the
    structural key, fetches or renders the factory, and installs fresh
    closures as *instance attributes* — shadowing the compiled methods for
    every caller that goes through ``session.executor.send`` /
    ``.handle_frame``, while the compiled methods remain reachable as the
    fallback and for every cold path.
    """

    kind = "generated"
    pools_pdus = True

    def recompile(self, reason: str, specs=None) -> None:
        super().recompile(reason, specs=specs)
        self._install_generated()

    @property
    def fast_sends(self) -> int:
        """How many sends took the generated fast path (vs falling back)."""
        return self._fast_cell[0]

    # ------------------------------------------------------------------
    def _mechanism_kinds(self) -> Tuple[str, str, str]:
        """Classify the bound mechanisms for body inlining.

        A non-"generic" kind is claimed only for the *exact* class whose
        method bodies the generated source reproduces (and, for hooks a
        subclass could override, only when the bound method **is** the
        base implementation) — any user subclass or unknown mechanism
        falls back to calling through the prebound entry points.
        """
        from repro.mechanisms.base import TransmissionControl
        from repro.mechanisms.detection import (
            InternetChecksum, NoDetection, _ChecksumBase)
        from repro.mechanisms.retransmission import (
            NoRecovery, _RetransmitBase)
        from repro.mechanisms.transmission import (
            NoTransmissionControl, RateControl, SlidingWindow, StopAndWait,
            WindowRate)

        tx = self._tx
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

        rec = self._rec
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

        det = self._det
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

    def _install_generated(self) -> None:
        s = self.s
        if getattr(self, "_fast_cell", None) is None:
            self._fast_cell = [0]  # survives recompiles; one per session
        pipe = self.pipeline
        det = self._det
        placement = getattr(det, "placement", None)
        trailer = TRAILER_CHECKSUM_SIZE if placement == "trailer" else 0
        compact = bool(s.cfg.compact_headers)
        header = (COMPACT_HEADER_SIZE if compact else LEGACY_HEADER_BASE)
        send_deferred = (pipe.send_def_fixed != 0.0
                         or pipe.send_def_per_byte != 0.0)
        recv_deferred = (pipe.recv_def_fixed != 0.0
                         or pipe.recv_def_per_byte != 0.0)
        track = pipe.track_outstanding
        net = s.host.network
        seg_cached = hasattr(net, "topology_version")
        tx_kind, rec_kind, det_kind = self._mechanism_kinds()

        #: the structural key of the installed send closure — the template
        #: cache records this at warm time so diagnostics can tie a cached
        #: configuration to the codegen shape serving it
        self.codegen_key = (track, compact, send_deferred, seg_cached,
                            tx_kind, rec_kind, det_kind)
        send_factory = _factory(
            "send", self.codegen_key,
            lambda: _send_source(track, compact, send_deferred,
                                 tx_kind, rec_kind, det_kind))
        recv_factory = _factory(
            "recv", (recv_deferred,),
            lambda: _recv_source(recv_deferred))

        bindings = {
            "exe": self, "s": s, "sim": s.sim, "conn": self._conn,
            "compiled_send": CompiledExecutor.send.__get__(self),
            "telemetry": _TELEMETRY,
            "pool_acquire": PDU_POOL.acquire, "PDU": PDU,
            "DATA": PduType.DATA, "PARITY": PduType.PARITY,
            "SendEntry": SendEntry, "Frame": Frame, "frame_ids": _frame_ids,
            "TKOMessage": TKOMessage, "msg_counter": _msg_counter,
            "msg_ids": _msg_ids, "state": s.state,
            "state_track": s.state.track,
            "rec_on_send": self._rec_on_send, "tx_on_send": self._tx_on_send,
            "det_attach": self._det_attach, "frame_dst": self._frame_dst,
            "can_send": self._tx_can_send, "send_gap": self._tx_send_gap,
            "pb_fn": self._conn.piggyback_config,
            "cpu_submit": s.host.cpu.submit, "cpu_charge": s.host.cpu.charge,
            "net_send": net.send,
            "host": s.host, "exe_transmit": self.transmit,
            "schedule_pump": self._schedule_pump, "noop": noop,
            "seg_cell": [-1, 0], "seg_fn": s.segment_size, "net": net,
            "seg_cached": seg_cached,
            "layers": s.protocol.layers if s.protocol is not None else (),
            "fast_cell": self._fast_cell,
            # mechanism-inline bindings (None when the kind is "generic";
            # the rendered source for that kind never references them)
            "outstanding": s.state.outstanding, "WIN": s.cfg.window,
            "rate_obj": (self._tx._rate if tx_kind == "window-rate"
                         else self._tx if tx_kind == "rate" else None),
            "rec_timer": getattr(self._rec, "_timer", None),
            "rtt": s.rtt,
            "det_compute": getattr(self._det, "_compute", None),
            "DET_PLACEMENT": getattr(self._det, "placement", None),
            "process": self._process,
            "FSIZE": header + trailer + NETWORK_HEADER_BYTES,
            "OPT": LEGACY_OPTION_SIZE,
            "CONN": s.conn_id, "SP": s.local_port, "DP": s.remote_port,
            "COMPACT": compact, "INTERRUPT": s.host.cpu.costs.interrupt,
            "HOSTNAME": s.host.name, "meter": s.copy_meter,
            "queue": s._send_queue, "stats": s.stats,
            # the closed-form charge scalars, folded by the pipeline itself
            # (SB/SPB/SD/DF/DPB/PRIORITY + the recv/control family)
            **pipe.charge_bindings(),
        }
        # instance attributes shadow the class methods for attribute
        # lookups through session.executor.<name>
        self.send = send_factory(bindings)
        self.handle_frame = recv_factory(bindings)
        codegen_stats["installed"] += 1
