"""The session data path: one executor over the compiled pipeline.

``TKOSession`` owns the association's *state* (addresses, windows, RTT,
stats, lifecycle); the per-PDU *hot path* lives in the
:class:`CompiledExecutor` every session constructs.  It executes the
:class:`~repro.tko.pipeline.CompiledPipeline`: closed-form per-PDU
charges, mechanisms read off the context's slots (one load each, no dict
or ``__getattr__`` walk per PDU), telemetry behind ``TELEMETRY.enabled``
guards, and free-listed DATA/ACK shells from
:data:`repro.tko.pdu.PDU_POOL` when the configuration is pool-safe.

There are two send routes and the code picks between them per call from
what it observes.  ``send`` and ``handle_frame`` bind, at a session's
first use of that direction, the closures :mod:`repro.tko.genexec`
renders for the session's shape; the rendered send serves a wire-size
``bytes`` payload on an idle, connected, unobserved session and hands
everything else to :meth:`CompiledExecutor.general_send` before consuming
any state.  Both routes perform the same operations in the same order, so
simulated time is identical; only wall time differs — which is the
paper's Synthesis/SELF point.

The behavioural oracle — a per-slot walk of the mechanism table that
re-derives every PDU's charge from ``compile_stage()`` at run time —
lives in ``tests/oracles/``; the test tree substitutes it for the one
name :mod:`repro.tko.session` constructs.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Tuple

from repro.netsim.frame import Frame, PRIO_CONTROL
from repro.tko.genexec import codegen, codegen_stats
from repro.tko.message import TKOMessage
from repro.tko.pdu import PDU, PduType, _msg_counter
from repro.tko.pipeline import NETWORK_HEADER_BYTES, compile_pipeline
from repro.tko.state import SendEntry
from repro.unites.obs.telemetry import TELEMETRY as _TELEMETRY

if TYPE_CHECKING:  # pragma: no cover
    from repro.tko.session import TKOSession


class CompiledExecutor:
    """Executes the compiled pipeline: flat stages, closed-form charges.

    It keeps nothing per mechanism: the general route reads each one off
    the context's slots and the policy constants (``ordered``, ``dedup``,
    …) off the shared pipeline.  Segue calls :meth:`refresh_slot`, which
    recompiles only the swapped stage's spec and re-splices — ``adopt()``
    has already transferred mechanism state.

    ``send`` / ``handle_frame`` below run at a session's *first use* of
    that direction: they bind the rendered closure, install it as an
    *instance attribute* — shadowing themselves for every later caller
    that goes through ``session.executor.send`` / ``.handle_frame`` — and
    run it.  ``recompile`` deletes the installed attributes, so the next
    use binds afresh against the new pipeline.  Those two are the only
    entries the instance ``__dict__`` ever holds.
    """

    __slots__ = ("s", "pipeline", "fast_sends", "__dict__")

    #: whether this executor's sessions may draw DATA/ACK shells from the pool
    pools_pdus = True

    def __init__(self, session: "TKOSession") -> None:
        self.s = session
        self.pipeline = None
        #: how many sends the rendered closure served itself (vs handing to
        #: :meth:`general_send`); counted across invalidations
        self.fast_sends = 0

    # -- compilation -----------------------------------------------------
    def recompile(self, reason: str, specs=None, shared=None) -> None:
        """(Re)build the pipeline; what was rendered from the old one goes.

        ``specs`` is a template's cached stage table and ``shared`` its
        finished pipeline for this host (see ``compile_pipeline``).
        """
        if self.pipeline is not None:
            self._unrender()
        self.pipeline = compile_pipeline(self.s, specs, reason, shared)

    def _unrender(self) -> None:
        # not ``__dict__.pop``: that materialises a dict on every instance
        for name in ("send", "handle_frame"):
            try:
                delattr(self, name)
            except AttributeError:
                pass  # that direction was never used

    def retire(self, closed: "TKOSession") -> None:
        """Torn down: keep ``fast_sends`` only, and point at ``closed`` (a
        closed session that is nobody's) so the session ↔ executor cycle is
        gone and every late entry still meets its closed-session exit."""
        self._unrender()
        self.pipeline = None
        self.s = closed

    def refresh_slot(self, slot: str, reason: str = "segue") -> None:
        """One mechanism was swapped; recompile that stage only."""
        specs = dict(self.pipeline.specs)
        specs[slot] = self.s.context.get(slot).compile_stage()
        self.recompile(reason, specs=specs)

    @property
    def codegen_key(self) -> Tuple:
        """Structural key of the send closure serving this session — the
        template cache records it at warm time so diagnostics can tie a
        cached configuration to the codegen shape serving it."""
        return codegen(self)[0]

    # -- send path -------------------------------------------------------
    def send(self, data: bytes) -> int:
        if self.s._closed:
            return self.general_send(data)  # raises; a tombstone renders nothing
        self.send = fn = codegen(self)[1](self)
        codegen_stats["installed"] += 1
        return fn(data)

    def general_send(self, data: bytes) -> int:
        """Send without specializing: any payload, any session state.

        The rendered closure's guard falls back here; it fragments to the
        path segment size, queues, and lets :meth:`pump` release PDUs as
        transmission control allows.
        """
        s = self.s
        if s._closed or s._closing:
            raise RuntimeError("session is closed")
        msg_id = next(_msg_counter)
        if _TELEMETRY.enabled:
            with _TELEMETRY.span("session-send", "tko", msg_id=msg_id,
                                 nbytes=len(data), conn=s.conn_id):
                self._send_body(msg_id, data)
        else:
            self._send_body(msg_id, data)
        return msg_id

    def _send_body(self, msg_id: int, data: bytes) -> None:
        s = self.s
        s.stats.msgs_sent += 1
        msg = TKOMessage(data, meter=s.copy_meter)
        seg = s.segment_size()  # per-send: the path MTU can change under us
        total = msg.data_length
        piggyback = s.context.connection.piggyback_config()
        queue = self._queue()
        if 0 < total <= seg:
            # single-fragment fast path: the message *is* the payload, so
            # skip the split/take machinery entirely (frag 0 of 1 is what
            # make_pdu hands back already)
            pdu = s.make_pdu(PduType.DATA)
            pdu.seq = s.state.next_seq()
            pdu.msg_id = msg_id
            pdu.message = msg
            if piggyback is not None:
                pdu.options["cfg"] = piggyback
            queue.append(pdu)
            self.pump()
            return
        frag_count = max(1, -(-total // seg))
        make_pdu = s.make_pdu
        next_seq = s.state.next_seq
        for i in range(frag_count):
            part = msg.take(min(seg, msg.data_length)) if total else TKOMessage(b"", meter=s.copy_meter)
            pdu = make_pdu(PduType.DATA)
            pdu.seq = next_seq()
            pdu.msg_id = msg_id
            pdu.frag_index = i
            pdu.frag_count = frag_count
            pdu.message = part
            if piggyback is not None:
                pdu.options["cfg"] = piggyback
                piggyback = None
            queue.append(pdu)
        self.pump()

    def _queue(self) -> deque:
        """The send queue, made by the first PDU that has to wait in it."""
        s = self.s
        queue = s._send_queue
        if queue.__class__ is not deque:
            queue = s._send_queue = deque()
        return queue

    def pump(self) -> None:
        s = self.s
        if s._closed or s._paused or not s.context.connection.connected:
            return
        queue = s._send_queue
        if queue:
            tx = s.context.transmission
            while queue and tx.can_send():
                gap = tx.send_gap()
                if gap > 0:
                    self._schedule_pump(gap)
                    return
                self._send_data(queue.popleft())
        if s._closing:
            s._maybe_finish_close()

    def _schedule_pump(self, delay: float) -> None:
        s = self.s
        if s._pump_event is not None and not s._pump_event.cancelled:
            return
        s._pump_event = s.sim.schedule(delay, self._pump_fire)

    def _pump_fire(self) -> None:
        self.s._pump_event = None
        self.pump()

    def _send_data(self, pdu: PDU) -> None:
        s = self.s
        now = s.sim.now
        pdu.timestamp = now
        tracked = self.pipeline.track_outstanding
        if tracked:
            s.state.track(SendEntry(pdu, first_sent=now, last_sent=now))
        ctx = s.context
        rec = ctx.recovery
        if _TELEMETRY.enabled:
            rec.count_invoke("encode")
            with rec.invoke_span("encode"):
                extras = rec.on_send(pdu)
            ctx.transmission.count_invoke("on_send")
        else:
            extras = rec.on_send(pdu)
        ctx.transmission.on_send(pdu)
        self.transmit(pdu, False)
        if not tracked and pdu.pooled:
            pdu.release()  # creator ref; tracked entries keep it until ACKed
        for extra in extras:
            self.transmit(extra, False)

    def transmit(self, pdu: PDU, control: bool) -> None:
        s = self.s
        if s._closed:
            return
        ctx = s.context
        if _TELEMETRY.enabled:
            ctx.detection.count_invoke("attach")
        ctx.detection.attach(pdu)
        pipe = self.pipeline
        stats = s.stats
        if pdu.ptype is PduType.DATA:
            n = pdu.data_size
            critical = pipe.send_base + pipe.send_per_byte * n + pipe.send_dispatch
            deferred = pipe.send_def_fixed + pipe.send_def_per_byte * n
            dst = ctx.delivery.frame_dst()
            priority = pipe.data_priority
            stats.data_bytes_sent += n
        else:
            critical = pipe.control_aligned if pdu.compact else pipe.control_unaligned
            deferred = 0.0
            dst = s.remote_host
            priority = PRIO_CONTROL if (control or pdu.is_control) else pipe.data_priority
        if pdu.pooled:
            # The wire's reference.  On the sim substrate the receive path
            # releases it; on a real substrate the fabric consumes it at
            # send time (success or any failure path) — past the codec no
            # local receive path will ever see this shell again.
            pdu.retain()
        frame = Frame(
            src=s.host.name,
            dst=dst,
            size=pdu.wire_size + NETWORK_HEADER_BYTES,
            payload=pdu,
            priority=priority,
            created_at=s.sim.now,
        )
        stats.pdus_sent += 1
        stats.wire_bytes_sent += frame.size
        if s.observers:
            s._notify("pdu-sent", pdu=pdu, size=frame.size)
        if s.protocol is not None:
            # descend the protocol graph (any installed layers) to the NIC
            s.protocol.egress(frame, extra_instructions=critical)
        else:
            s.host.transmit(frame, extra_instructions=critical)
        if deferred > 0.0:
            # trailer checksum: computed during serialization — CPU burns
            # the cycles but the frame does not wait for them
            s.host.cpu.charge(deferred)

    def retransmit_entry(self, entry: SendEntry) -> None:
        s = self.s
        if s._closed:
            return
        entry.retries += 1
        entry.last_sent = s.sim.now
        s.stats.retransmissions += 1
        s._notify("retransmit", seq=entry.pdu.seq, retries=entry.retries)
        clone = entry.pdu.retransmit_clone()
        self.transmit(clone, False)

    # -- receive path ----------------------------------------------------
    def handle_frame(self, pdu: PDU, frame: Frame) -> None:
        if self.s._closed:
            # refused by its listener's ``on_session``: retire the frame
            return self._process(pdu, frame)
        self.handle_frame = fn = codegen(self)[2](self)
        codegen_stats["installed"] += 1
        fn(pdu, frame)

    def _process(self, pdu: PDU, frame: Frame) -> None:
        s = self.s
        if s._closed:
            # closed while this frame waited for the CPU: retire it the way
            # ``TKOProtocol._unclaimed`` does (a multicast PDU is shared)
            if frame.multicast_dsts is None:
                pdu.discard()
            return
        s.stats.pdus_received += 1
        if s.observers:
            s._notify("pdu-received", pdu=pdu, corrupted=frame.corrupted)
        ctx = s.context
        if _TELEMETRY.enabled:
            ctx.detection.count_invoke("verify")
        if not ctx.detection.verify(pdu, frame.corrupted):
            if s.observers:
                s._notify("pdu-rejected", pdu=pdu)
            pdu.discard()
            return
        t = pdu.ptype
        if t is PduType.DATA:
            self._handle_data(pdu)  # consumes the wire reference
        elif t is PduType.ACK:
            s._handle_ack(pdu, frame.src)
            if pdu.pooled:
                pdu.release()
        elif t is PduType.PARITY:
            for rebuilt in ctx.recovery.on_receive_repair(pdu):
                self._handle_data(rebuilt)
            pdu.discard()  # the repair window copied the shard out
        elif t is PduType.PROBE:
            reply = s.make_pdu(PduType.PROBE_REPLY)
            reply.timestamp = pdu.timestamp
            s.emit_control(reply)
        elif t in (PduType.CONFIG, PduType.CONFIG_ACK, PduType.PROBE_REPLY):
            if s.on_signalling is not None:
                s.on_signalling(pdu)
        else:
            ctx.connection.handle_control(pdu)

    def _handle_data(self, pdu: PDU) -> None:
        s = self.s
        if s._closed:
            # closed by ``on_deliver`` with a repaired group half handed over
            pdu.discard()
            return
        buf = s.host.buffers.alloc(max(1, pdu.wire_size))
        if buf is None:
            s.stats.buffer_drops += 1
            pdu.discard()
            return
        s._pdu_buffers[pdu.id] = buf
        ctx = s.context
        rec = ctx.recovery
        ack = ctx.ack
        pipe = self.pipeline
        rec.note_data_received(pdu)
        deliverable, accepted, gap = s.recv_window.accept(
            pdu,
            accept_ooo=pipe.accept_out_of_order,
            ordered=pipe.ordered,
            dedup=pipe.dedup,
        )
        if gap:
            ack.on_gap(pdu)
            self._arm_gap_timer()
        if accepted:
            if _TELEMETRY.enabled:
                ack.count_invoke("on_data")
            ack.on_data(pdu)
        else:
            # discarded (GBN out-of-order / duplicate): release its buffer
            self._release_buffer(pdu)
            if not gap:
                # stale duplicate below the window: the ACK that covered
                # it was lost on the way back.  Re-acknowledge now (TCP's
                # segment-below-window rule) or the sender retransmits a
                # delivered PDU all the way to its give-up limit.
                ack.on_gap(pdu)
        for out in deliverable:
            self._deliver_pdu(out)
        # a data arrival can complete an FEC group whose parity came first
        # (FEC senders never pool, so ``pdu`` is always intact here)
        repair = rec.repair_opportunity
        if repair is not None and not s._closed:
            for rebuilt in repair(pdu):
                self._handle_data(rebuilt)
        if not accepted:
            pdu.discard()  # wire ref of a rejected PDU, dropped last

    def _release_buffer(self, pdu: PDU) -> None:
        s = self.s
        buf = s._pdu_buffers.pop(pdu.id, None)
        if buf is not None:
            s.host.buffers.free(buf)

    def _deliver_pdu(self, pdu: PDU) -> None:
        s = self.s
        if s._closed:
            # closed by ``on_deliver`` part-way through a release of
            # several PDUs: the rest end as ``_teardown`` ends parked ones
            pdu.discard()
            return
        frags = s.reassembler.add(pdu)
        self._release_buffer(pdu)
        if frags is None:
            return  # wire ref parked in the reassembler until complete
        combined = TKOMessage((), meter=s.copy_meter)
        for f in frags:
            msg = f.message
            if msg is not None:
                combined.concat(msg)
                # ``combined`` holds the bytes now: the fragment's own slab
                # claim (a decoded PDU's receive lease) ends here
                msg.release_payload()
        first = frags[0]
        for f in frags[1:]:
            if f.pooled:
                f.release()  # payload now referenced by ``combined``
        jitter = s.context.jitter
        if _TELEMETRY.enabled:
            jitter.count_invoke("release_delay")
        delay = jitter.release_delay(first)
        if delay > 0:
            s.sim.schedule(delay, self._deliver_app, combined, first)
        else:
            self._deliver_app(combined, first)

    def _deliver_app(self, message: TKOMessage, first: PDU) -> None:
        s = self.s
        if s._closed:
            # a playout-delayed delivery outlived its session: nothing
            # will materialize the message or read ``first`` any more
            message.release_payload()
            if first.pooled:
                first.release()
            return
        data = message.materialize()  # the one app-boundary copy
        costs = s.host.cpu.costs
        s.host.cpu.charge(costs.per_byte_copy * len(data) + costs.context_switch)
        latency = s.sim.now - first.timestamp if first.timestamp else 0.0
        stats = s.stats
        stats.msgs_delivered += 1
        stats.data_bytes_delivered += len(data)
        stats.record_latency(latency)
        s._notify("deliver", msg_id=first.msg_id, nbytes=len(data), latency=latency)
        if s.on_deliver is not None:
            s.on_deliver(
                data,
                {
                    "msg_id": first.msg_id,
                    "sent_at": first.timestamp,
                    "latency": latency,
                    "reconstructed": bool(first.options.get("fec_reconstructed")),
                },
            )
        if first.pooled:
            first.release()  # held since reassembly for the meta fields above

    def handle_ack(self, pdu: PDU, from_host: str) -> None:
        s = self.s
        s.stats.acks_received += 1
        ctx = s.context
        rec = ctx.recovery
        if _TELEMETRY.enabled:
            ctx.transmission.count_invoke("on_ack")
            rec.count_invoke("on_ack")
        ctx.transmission.on_ack(pdu)
        outstanding = s.state.outstanding
        if pdu.ack is not None:
            ack = pdu.ack
            delivery = ctx.delivery
            for seq in [q for q in outstanding if q < ack]:
                if delivery.ack_complete(seq, from_host):
                    self.finalize_ack(seq)
                    if s._closed:
                        # this ack completed a pending close (torn down
                        # synchronously): the pdu has nothing left to drive
                        return
        if pdu.sack:
            destinations = set(ctx.delivery.destinations())
            for seq in pdu.sack:
                entry = outstanding.get(seq)
                if entry is not None:
                    entry.sacked_by.add(from_host)
                    entry.sacked = entry.sacked_by >= destinations
        rec.on_ack(pdu, from_host)
        self.pump()

    def finalize_ack(self, seq: int) -> None:
        s = self.s
        entry = s.state.release(seq)
        if entry is None:
            return
        if entry.retries == 0:  # Karn's rule: clean samples only
            s.rtt.update(s.sim.now - entry.first_sent)
        else:
            s.rtt.note_progress()
        pdu = entry.pdu
        if pdu.pooled:
            pdu.release()  # the retransmission queue's (creator) reference
        if s._drain_waiters:
            s._check_drained()
        s._maybe_finish_close()

    def _arm_gap_timer(self) -> None:
        pipe = self.pipeline
        if pipe.retransmits or not pipe.ordered:
            return
        s = self.s
        timer = s._gap_timer
        if timer is None:
            # only ordered delivery without retransmission ever owns one
            timer = s._gap_timer = s.timers.timer(self.gap_timeout)
        if not timer.armed:
            timer.schedule(s.cfg.gap_timeout)

    def gap_timeout(self) -> None:
        s = self.s
        released = s.recv_window.skip_gap()
        if released:
            s.stats.gap_skips += 1
        for pdu in released:
            self._deliver_pdu(pdu)
        if not s._closed and s.recv_window.buffer:
            s._gap_timer.schedule(s.cfg.gap_timeout)
