"""TKO_Session: the junction of protocol and session architectures (§4.2.1).

A session encapsulates the context needed to process one association's
PDUs — addresses, sequence state, RTT estimate — and drives them through
the mechanism pipeline installed in its :class:`~repro.tko.context.TKOContext`.
The session is deliberately *generic*: every protocol behaviour (when to
retransmit, whether to buffer out of order, how to acknowledge, whether to
handshake) lives in the pluggable mechanisms, which is exactly what makes
run-time reconfiguration (:meth:`segue`) possible.

The per-PDU data path itself lives in :mod:`repro.tko.executor`: a session
holds the association state (send queue, windows, RTT, stats, lifecycle)
and delegates send/receive processing to its executor, which runs the
compiled flat pipeline (:mod:`repro.tko.pipeline`).  This module keeps
everything that is *state machine* (its end included), not *hot path*.

Send path:   app message → fragmentation → sequence assignment →
             transmission control gate → recovery bookkeeping (+FEC parity)
             → checksum attach → CPU charge → frame → network.
Receive path: frame → CPU charge → detection verify → type dispatch →
             receive window (ordering/dup policy) → reassembly →
             jitter playout → application callback.

Sessions are substrate-blind: "network" above is whatever fabric the
host is attached to — the simulated :class:`~repro.netsim.network.
Network` or a real transport backend's fabric (``repro.transport``).
Path MTU, the per-session RNG stream, and frame hand-off all go through
the same surface; on a real substrate the fabric serializes frames with
the versioned wire codec and owns the pooled PDU's wire reference from
that point on.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.host.nic import Host
from repro.netsim.frame import Frame
from repro.sim.kernel import Simulator
from repro.sim.timers import TimerWheel
from repro.tko.config import SessionConfig
from repro.tko.context import TKOContext
from repro.tko.ends import GRACEFUL_CLOSE
from repro.tko.executor import CompiledExecutor
from repro.tko.pdu import PDU, PDU_POOL, PduType
from repro.tko.pipeline import NETWORK_HEADER_BYTES
from repro.tko.state import (
    Reassembler,
    ReceiveWindow,
    RttEstimator,
    SendEntry,
    SenderState,
    SessionStats,
)

#: conservative transport-header allowance when deriving segment size
_HEADER_ALLOWANCE = 32


class TKOSession:
    """One transport association on one host.

    A fixed-layout record while it lives, a tombstone once closed:
    ``_teardown`` lets go of everything bound to live machinery, so an
    unheld closed session is freed by reference count and a *held* one
    answers only what is read after close: ``stats``, ``rtt``, ``cfg``,
    ``conn_id`` and the addresses, ``closed``, ``executor.fast_sends``,
    ``context.describe()``.  Its end is answered where a caller comes in,
    not on the data path: a late frame finds no demux binding, ``send``
    raises with the end reason, ``abort`` / ``close`` / ``pump`` /
    ``resume`` do nothing and ``drain`` calls back at once.  The instance
    ``__dict__`` exists for one seam, shadowing ``_handle_ack``.
    """

    __slots__ = (
        "host", "sim", "cfg", "context", "conn_id", "local_port",
        "remote_host", "remote_port", "on_deliver", "on_connected",
        "on_ended", "on_signalling", "protocol",
        "state", "recv_window", "reassembler", "rtt", "stats", "timers",
        "copy_meter", "observers", "executor", "_send_queue", "_pump_event",
        "_closing", "_closed", "_paused", "_drain_waiters", "_pdu_buffers",
        "_pooling", "_gap_timer", "_rng_name", "__dict__",
    )

    def __init__(
        self,
        host: Host,
        cfg: SessionConfig,
        context: TKOContext,
        conn_id: int,
        local_port: int,
        remote_host: str,
        remote_port: int,
        on_deliver: Optional[Callable[[bytes, dict], None]] = None,
        on_connected: Optional[Callable[[], None]] = None,
        on_ended: Optional[Callable[[str], None]] = None,
        protocol: Optional[Any] = None,
        pipeline_specs: Optional[dict] = None,
        shared_pipeline: Optional[Any] = None,
    ) -> None:
        self.host = host
        self.sim: Simulator = host.sim
        self.cfg = cfg
        self.context = context
        self.conn_id = conn_id
        self.local_port = local_port
        self.remote_host = remote_host
        self.remote_port = remote_port
        self.on_deliver = on_deliver
        self.on_connected = on_connected
        #: called once, with a :mod:`repro.tko.ends` reason, however the
        #: session ends (close, abort, handshake or FIN give-up)
        self.on_ended = on_ended
        self.on_signalling: Optional[Callable[[PDU], None]] = None
        self.protocol = protocol

        self.state = SenderState()
        self.recv_window = ReceiveWindow()
        self.reassembler = Reassembler()
        self.rtt = RttEstimator(cfg.rto_initial, cfg.rto_min)
        self.stats = SessionStats()
        self.stats.opened_at = self.sim.now
        self.timers = TimerWheel(self.sim)
        self._rng_name = f"session:{host.name}:{conn_id}"
        self.copy_meter = host.copy_meter

        #: observers notified of protocol events (UNITES tracing attaches
        #: here); each is called as observer(event: str, session, **details)
        self.observers: list = []
        #: the executor swaps in a deque when the first PDU has to wait
        self._send_queue = ()
        self._pump_event = None
        self._closing = False
        self._closed = False
        self._paused = False
        self._drain_waiters: list = []
        self._pdu_buffers: dict = {}
        self._pooling = False
        #: made by the executor the first time a gap has to be waited out
        self._gap_timer = None

        self.executor = CompiledExecutor(self)
        context.bind(self)
        self.executor.recompile("synthesize", pipeline_specs, shared_pipeline)
        self._refresh_pooling()

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def connected(self) -> bool:
        return not self._closed and self.context.connection.connected

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def rng(self):
        """This session's random stream, made when first drawn from.

        Stream identity is ``(root_seed, name)``, so creation time cannot
        change the numbers; a session that never meets a corrupted frame
        never builds a stream or grows the stream table, and the detection
        miss test (one ``random()`` per corrupted frame) draws without numpy.
        """
        return self.host.network.rng.stream(self._rng_name)

    def _notify(self, event: str, **details) -> None:
        if not self.observers:
            return
        for observer in self.observers:
            observer(event, self, **details)

    def advertised_window(self) -> int:
        """Receive window advertised on outgoing ACKs: bounded by both the
        configured window and current buffer-pool pressure."""
        buffered = len(self.recv_window.buffer)
        pool_share = int((1.0 - self.host.buffers.fill_fraction) * self.cfg.window)
        return max(0, min(self.cfg.window - buffered, pool_share))

    # ------------------------------------------------------------------
    # application API (hot paths delegate to the executor)
    # ------------------------------------------------------------------
    def connect(self) -> None:
        """Begin establishment; the connected callback fires on success."""
        self.context.connection.active_open()

    def send(self, data: bytes) -> int:
        """Queue an application message; returns its message id.

        The message is fragmented to the path segment size, each fragment
        gets a sequence number immediately (queue order is wire order), and
        the transmission-control pump releases fragments as window/pacing
        allow.
        """
        if self._closed:
            raise RuntimeError(
                f"session ended: {self.stats.aborted or GRACEFUL_CLOSE}")
        return self.executor.send(data)

    def pump(self) -> None:
        """Release queued DATA PDUs as transmission control allows."""
        if not self._closed:
            self.executor.pump()

    def handle_frame(self, pdu: PDU, frame: Frame) -> None:
        """Entry from the protocol demultiplexer (charges CPU, then runs)."""
        self.executor.handle_frame(pdu, frame)

    def retransmit_entry(self, entry: SendEntry) -> None:
        """Re-emit one unacknowledged PDU (recovery mechanisms call this)."""
        self.executor.retransmit_entry(entry)

    def _handle_ack(self, pdu: PDU, from_host: str) -> None:
        # kept as a real method (not a prebound alias) so tests and tools
        # can shadow it on the instance; the executor routes through here
        self.executor.handle_ack(pdu, from_host)

    # ------------------------------------------------------------------
    # quiesce (mid-stream renegotiation support)
    # ------------------------------------------------------------------
    def pause(self) -> None:
        """Gate the transmission pump: no *new* DATA PDUs leave the queue.

        Recovery keeps retransmitting already-outstanding PDUs (so a
        :meth:`drain` can complete across loss) and ACK processing runs
        normally; only first transmissions are held.  Queued messages are
        neither lost nor reordered — they flow the moment :meth:`resume`
        reopens the gate.
        """
        if self._paused:
            return
        self._paused = True
        self._notify("pause")

    def resume(self) -> None:
        """Reopen the transmission pump and release anything queued."""
        if not self._paused:
            return
        self._paused = False
        self._notify("resume")
        self.pump()

    def drain(self, callback: Callable[[], None]) -> None:
        """Invoke ``callback`` once no PDU is outstanding (unACKed).

        With the pump paused this quiesces the wire: everything sent has
        been acknowledged and everything else is still queued locally, so
        a configuration swap cannot lose or double-deliver a PDU.
        """
        if self._closed or not self.state.outstanding:
            callback()
            return
        self._drain_waiters.append(callback)

    def _check_drained(self) -> None:
        if self._drain_waiters and not self.state.outstanding:
            waiters, self._drain_waiters = self._drain_waiters, []
            for cb in waiters:
                cb()

    def close(self) -> None:
        """Graceful close: drain queued and unacknowledged data, flush any
        partial FEC group, then run the connection termination exchange."""
        if self._closing:
            return
        self._closing = True
        self._maybe_finish_close()

    def abort(self, reason: str) -> None:
        """Non-graceful termination: buffered data is abandoned."""
        self._end(reason)

    # ------------------------------------------------------------------
    # reconfiguration (segue)
    # ------------------------------------------------------------------
    def segue(self, slot: str, replacement) -> None:
        """Swap one mechanism at run time (Figure 5's segue operation).

        Static templates are "guaranteed not to change" (§4.2.2): their
        inline-expanded code cannot be rebound, so segue is refused.  Only
        the swapped slot's stage is recompiled; ``adopt()`` inside
        ``context.segue`` has already transferred the mechanism state.
        """
        if self.cfg.binding == "static":
            raise RuntimeError(
                "session was customized as a static template; segue requires "
                "a reconfigurable or dynamic binding"
            )
        self.context.segue(slot, replacement)
        self.executor.refresh_slot(slot)
        self._refresh_pooling()
        self.stats.reconfigurations += 1
        self._notify("segue", slot=slot, mechanism=replacement.name)
        # reconfiguration is not free: charge the rebinding bookkeeping
        self.host.cpu.charge(2000.0)
        self.pump()

    def update_config(self, cfg: SessionConfig) -> None:
        """Install a revised parameter set (same mechanisms, new numbers)."""
        self.cfg = cfg
        self.executor.recompile("update-config")
        self._refresh_pooling()

    def repipeline(self, slot: str) -> None:
        """One mechanism's compiled cost changed in place (e.g. multicast
        membership altered the delivery stage); re-derive that stage."""
        self.executor.refresh_slot(slot, reason="repipeline")

    def recheck_acks(self) -> None:
        """Re-evaluate outstanding completion (multicast members left)."""
        delivery = self.context.delivery
        pending = getattr(delivery, "pending_complete", None)
        if pending is None:
            return
        for seq in list(self.state.outstanding):
            if pending(seq):
                self.executor.finalize_ack(seq)
        self.pump()

    def _refresh_pooling(self) -> None:
        """Decide whether DATA/ACK shells may come from the free list.

        Pooling needs every reference-holder accounted for; multicast
        delivery (one shell on several wires with per-member completion)
        and FEC senders (groups park shells until parity is emitted) are
        not worth the bookkeeping, so those configurations opt out.
        """
        eligible = (
            self.executor.pools_pdus
            and self.context.delivery.name == "unicast"
            and getattr(self.context.recovery, "POOL_SAFE", True)
        )
        if self._pooling and not eligible:
            # queued shells were acquired under the old rules: demote them
            # to plain PDUs so nothing ever recycles them
            for pdu in self._send_queue:
                pdu.pooled = False
        self._pooling = eligible

    # ------------------------------------------------------------------
    # PDU construction & emission
    # ------------------------------------------------------------------
    def make_pdu(self, ptype: PduType) -> PDU:
        if self._pooling and (ptype is PduType.DATA or ptype is PduType.ACK):
            return PDU_POOL.acquire(
                ptype,
                self.conn_id,
                src_port=self.local_port,
                dst_port=self.remote_port,
                compact=self.cfg.compact_headers,
            )
        return PDU(
            ptype,
            self.conn_id,
            src_port=self.local_port,
            dst_port=self.remote_port,
            compact=self.cfg.compact_headers,
        )

    def segment_size(self) -> int:
        """Max user bytes per DATA PDU for the current path.

        FEC configurations reserve extra headroom: a PARITY PDU is as
        large as the biggest data shard in its group *plus* per-shard
        group metadata, and it must still fit the path MTU.
        """
        if self.cfg.segment_size is not None:
            return self.cfg.segment_size
        dst = self.context.delivery.destinations()[0]
        mtu = self.host.network.path_mtu(self.host.name, dst) or 1500
        headroom = _HEADER_ALLOWANCE
        if self.cfg.recovery.startswith("fec"):
            from repro.mechanisms.fec import META_BYTES_PER_SHARD

            headroom += META_BYTES_PER_SHARD * self.cfg.fec_k
        if self.protocol is not None:
            # encapsulation added by graph layers below the transport
            headroom += sum(l.header_bytes for l in self.protocol.layers)
        return max(64, mtu - NETWORK_HEADER_BYTES - headroom)

    def emit_control(self, pdu: PDU) -> None:
        """Transmit on the out-of-band control path (Figure 3)."""
        self.executor.transmit(pdu, True)

    def emit_pdu(self, pdu: PDU) -> None:
        """Transmit a non-tracked PDU (ACKs, probes) on the data path."""
        self.executor.transmit(pdu, False)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def notify_connected(self) -> None:
        if self.stats.established_at is None:
            self.stats.established_at = self.now
            self._notify("connected")
            if self.on_connected is not None:
                self.on_connected()
        self.pump()

    def _end(self, reason: str) -> None:
        """The one way a session ends: tear down, then ``on_ended(reason)``."""
        if self._closed:
            return
        if reason == GRACEFUL_CLOSE:
            self._notify("close")
        else:
            self.stats.aborted = reason
            self._notify("abort", reason=reason)
        on_ended = self.on_ended
        self._teardown()
        if on_ended is not None:
            on_ended(reason)

    def _maybe_finish_close(self) -> None:
        if not self._closing or self._closed:
            return
        if self._send_queue or self.state.outstanding:
            return
        flush = getattr(self.context.recovery, "flush", None)
        if flush is not None:
            for extra in flush():
                self.executor.transmit(extra, False)
        self.context.connection.close()

    def _teardown(self) -> None:
        self._closed = True
        self.stats.closed_at = self.now
        # a drain can no longer complete; its initiator learns the outcome
        # from the session's on_ended instead
        self._drain_waiters.clear()
        # an abort abandons data still queued or awaiting acknowledgement;
        # the retransmission queue's creator references die with it, or
        # the pool leaks one shell per unacked PDU (hostile paths abort
        # sessions with full windows — see the chaos acceptance suite)
        for entry in self.state.outstanding.values():
            if entry.pdu.pooled:
                entry.pdu.release()
        for pdu in self._send_queue:
            if pdu.pooled:
                pdu.release()
        self._send_queue = ()
        # the receive side parks wire references too: fragments waiting for
        # the rest of their message, arrivals held for in-order release
        for pdu in self.reassembler.drain():
            pdu.discard()
        for pdu in self.recv_window.buffer.values():
            if pdu is not None:
                pdu.discard()
        self.timers.cancel_all()
        self.host.network.rng.discard(self._rng_name)
        if self._pump_event is not None:
            self.sim.cancel(self._pump_event)
            self._pump_event = None
        self.context.teardown()
        for buf in self._pdu_buffers.values():
            self.host.buffers.free(buf)
        if self.protocol is not None:
            self.protocol.session_closed(self)
        # the tombstone (class docstring: what a held handle still answers)
        self.executor.retire()
        self.state = self.recv_window = self.reassembler = None
        self.timers = self._gap_timer = self._pdu_buffers = None
        self.on_deliver = self.on_connected = self.on_ended = None
        self.on_signalling = None
        self.observers.clear()  # stays a list: a tracer may still detach
