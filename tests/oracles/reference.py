"""The behavioural oracle: the pre-compilation data path, kept verbatim.

:class:`ReferenceExecutor` walks the mechanism table per slot through
attribute dispatch, enters the send span unconditionally, never pools, and
has :class:`CostModel` re-derive every PDU's charge at run time.  It shares
only cold state-machine methods with the executor under ``src/``, so the
identity tests compare two independent hot paths.

The walk evaluates each mechanism's ``compile_stage()`` *live, per PDU*: it
catches a drifted fold order in ``CompiledPipeline``, a missed trailer
deferral and a cost that changed without a ``repipeline``.  Absolute
charges are pinned by frozen counters (``tests/tko/test_deferred_charges``,
``tests/golden``).  Substituted through ``tests/conftest.py::executors``.
"""

from __future__ import annotations

from typing import Tuple

from repro.netsim.frame import Frame, PRIO_CONTROL, PRIO_HIGH, PRIO_NORMAL
from repro.tko.executor import CompiledExecutor
from repro.tko.message import TKOMessage
from repro.tko.pdu import PDU, PduType, _msg_counter
from repro.tko.pipeline import (
    BINDING_FACTOR, NETWORK_HEADER_BYTES, RECV_SLOTS, SEND_SLOTS)
from repro.tko.state import SendEntry
from repro.unites.obs.telemetry import TELEMETRY as _TELEMETRY


class CostModel:
    """Per-PDU instruction charges from a walk of the live mechanism table."""

    def __init__(self, session) -> None:
        self.session = session

    def _walk(self, slots, side: str, critical: float, nbytes: int) -> Tuple[float, float]:
        s = self.session
        deferred = 0.0
        dispatches = 0
        for slot in slots:
            spec = s.context.get(slot).compile_stage()
            c = getattr(spec, side + "_fixed") + getattr(spec, side + "_per_byte") * nbytes
            if slot == "detection" and spec.overlaps_tx:
                # a trailer checksum is computed while earlier bytes are
                # already on the wire: CPU burns, the frame does not wait
                deferred += c
            else:
                critical += c
            dispatches += getattr(spec, "dispatch_" + side)
        critical += (dispatches * s.host.cpu.costs.virtual_dispatch
                     * BINDING_FACTOR[s.cfg.binding])
        return critical, deferred

    def send_charge(self, pdu: PDU) -> Tuple[float, float]:
        """(critical_path, deferrable) instructions for transmitting ``pdu``."""
        fixed = float(self.session.host.cpu.costs.layer_fixed)
        return self._walk(SEND_SLOTS, "send", fixed, pdu.data_size)

    def recv_charge(self, pdu: PDU) -> Tuple[float, float]:
        """(critical_path, deferrable) instructions for receiving ``pdu``."""
        return self._walk(RECV_SLOTS, "recv", self.control_charge(pdu), pdu.data_size)

    def control_charge(self, pdu: PDU) -> float:
        """Instructions for a control PDU (handshake/ACK/signalling)."""
        costs = self.session.host.cpu.costs
        parse = costs.header_parse_aligned if pdu.compact else costs.header_parse_unaligned
        return float(costs.layer_fixed + parse)


class ReferenceExecutor(CompiledExecutor):
    """Every hot-path method is the original ``TKOSession`` code with
    ``self`` replaced by ``self.s``."""

    pools_pdus = False
    #: it compiles nothing and renders nothing
    pipeline = None
    codegen_key = None

    def __init__(self, session) -> None:
        super().__init__(session)
        self.cost_model = CostModel(session)

    def recompile(self, reason: str, specs=None, shared=None) -> None:
        pass

    def refresh_slot(self, slot: str, reason: str = "segue") -> None:
        pass

    # -- send path -------------------------------------------------------
    def send(self, data: bytes) -> int:
        s = self.s
        if s._closed or s._closing:
            raise RuntimeError("session is closed")
        msg_id = next(_msg_counter)
        with _TELEMETRY.span("session-send", "tko", msg_id=msg_id,
                             nbytes=len(data), conn=s.conn_id):
            s.stats.msgs_sent += 1
            msg = TKOMessage(data, meter=s.copy_meter)
            seg = s.segment_size()
            total = msg.data_length
            frag_count = max(1, -(-total // seg))
            piggyback = s.context.connection.piggyback_config()
            queue = self._queue()
            for i in range(frag_count):
                part = msg.take(min(seg, msg.data_length)) if total else TKOMessage(b"", meter=s.copy_meter)
                pdu = s.make_pdu(PduType.DATA)
                pdu.seq = s.state.next_seq()
                pdu.msg_id = msg_id
                pdu.frag_index = i
                pdu.frag_count = frag_count
                pdu.message = part
                if piggyback is not None:
                    pdu.options["cfg"] = piggyback
                    piggyback = None
                queue.append(pdu)
            self.pump()
        return msg_id

    def pump(self) -> None:
        s = self.s
        if s._closed or s._paused or not s.context.connection.connected:
            return
        tx = s.context.transmission
        while s._send_queue and tx.can_send():
            gap = tx.send_gap()
            if gap > 0:
                self._schedule_pump(gap)
                return
            pdu = s._send_queue.popleft()
            self._send_data(pdu)
        s._maybe_finish_close()

    def _track_outstanding(self) -> bool:
        s = self.s
        return (
            s.context.recovery.retransmits
            or s.cfg.transmission
            in ("stop-and-wait", "sliding-window", "window-rate", "tcp-aimd")
        )

    def _send_data(self, pdu: PDU) -> None:
        s = self.s
        pdu.timestamp = s.sim.now
        if self._track_outstanding():
            s.state.track(SendEntry(pdu, first_sent=s.sim.now, last_sent=s.sim.now))
        recovery = s.context.recovery
        if _TELEMETRY.enabled:
            recovery.count_invoke("encode")
            with recovery.invoke_span("encode"):
                extras = list(recovery.on_send(pdu))
            s.context.transmission.count_invoke("on_send")
        else:
            extras = list(recovery.on_send(pdu))
        s.context.transmission.on_send(pdu)
        self.transmit(pdu, control=False)
        for extra in extras:
            self.transmit(extra, control=False)

    def transmit(self, pdu: PDU, control: bool) -> None:
        s = self.s
        if s._closed:
            return
        if _TELEMETRY.enabled:
            s.context.detection.count_invoke("attach")
        s.context.detection.attach(pdu)
        if pdu.ptype is PduType.DATA:
            critical, deferred = self.cost_model.send_charge(pdu)
            dst = s.context.delivery.frame_dst()
            priority = PRIO_HIGH if s.cfg.priority else PRIO_NORMAL
            s.stats.data_bytes_sent += pdu.data_size
        else:
            critical = self.cost_model.control_charge(pdu)
            deferred = 0.0
            dst = s.remote_host
            priority = PRIO_CONTROL if (control or pdu.is_control) else (
                PRIO_HIGH if s.cfg.priority else PRIO_NORMAL
            )
        frame = Frame(
            src=s.host.name,
            dst=dst,
            size=pdu.wire_size + NETWORK_HEADER_BYTES,
            payload=pdu,
            priority=priority,
            created_at=s.sim.now,
        )
        s.stats.pdus_sent += 1
        s.stats.wire_bytes_sent += frame.size
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

    # -- receive path ----------------------------------------------------
    def handle_frame(self, pdu: PDU, frame: Frame) -> None:
        s = self.s
        if s._closed:
            return self._process(pdu, frame)  # retires the frame
        deferred = 0.0
        if pdu.ptype in (PduType.DATA, PduType.PARITY):
            cost, deferred = self.cost_model.recv_charge(pdu)
        else:
            cost = self.cost_model.control_charge(pdu)
        s.host.cpu.submit(cost, self._process, pdu, frame)
        if deferred > 0.0:
            s.host.cpu.charge(deferred)

    def _process(self, pdu: PDU, frame: Frame) -> None:
        s = self.s
        if s._closed:
            if frame.multicast_dsts is None:
                pdu.discard()
            return
        s.stats.pdus_received += 1
        s._notify("pdu-received", pdu=pdu, corrupted=frame.corrupted)
        if _TELEMETRY.enabled:
            s.context.detection.count_invoke("verify")
        if not s.context.detection.verify(pdu, frame.corrupted):
            s._notify("pdu-rejected", pdu=pdu)
            pdu.discard()
            return
        t = pdu.ptype
        if t is PduType.DATA:
            self._handle_data(pdu)
        elif t is PduType.ACK:
            s._handle_ack(pdu, frame.src)
        elif t is PduType.PARITY:
            for rebuilt in s.context.recovery.on_receive_repair(pdu):
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
            s.context.connection.handle_control(pdu)

    def _handle_data(self, pdu: PDU) -> None:
        s = self.s
        if s._closed:  # closed by a callback under a caller mid-loop
            pdu.discard()
            return
        ctx = s.context
        buf = s.host.buffers.alloc(max(1, pdu.wire_size))
        if buf is None:
            s.stats.buffer_drops += 1
            pdu.discard()
            return
        s._pdu_buffers[pdu.id] = buf
        ctx.recovery.note_data_received(pdu)
        seqm = ctx.sequencing
        deliverable, accepted, gap = s.recv_window.accept(
            pdu,
            accept_ooo=ctx.recovery.accept_out_of_order,
            ordered=seqm.ordered,
            dedup=seqm.dedup,
        )
        if gap:
            ctx.ack.on_gap(pdu)
            self._arm_gap_timer()
        if accepted:
            if _TELEMETRY.enabled:
                ctx.ack.count_invoke("on_data")
            ctx.ack.on_data(pdu)
        else:
            # discarded (GBN out-of-order / duplicate): release its buffer
            self._release_buffer(pdu)
            if not gap:
                # stale duplicate below the window: the ACK that covered
                # it was lost on the way back.  Re-acknowledge now (TCP's
                # segment-below-window rule) or the sender retransmits a
                # delivered PDU all the way to its give-up limit.
                ctx.ack.on_gap(pdu)
        for out in deliverable:
            self._deliver_pdu(out)
        # a data arrival can complete an FEC group whose parity came first
        repair = getattr(ctx.recovery, "repair_opportunity", None)
        if repair is not None and not s._closed:
            for rebuilt in repair(pdu):
                self._handle_data(rebuilt)
        if not accepted:
            pdu.discard()  # a rejected PDU's slab claim, dropped last

    def _deliver_pdu(self, pdu: PDU) -> None:
        s = self.s
        if s._closed:  # ``on_deliver`` closed it part-way through a release
            pdu.discard()
            return
        frags = s.reassembler.add(pdu)
        self._release_buffer(pdu)
        if frags is None:
            return
        combined = TKOMessage((), meter=s.copy_meter)
        for f in frags:
            msg = f.message
            if msg is not None:
                combined.concat(msg)
                # ``combined`` holds the bytes now: the fragment's own slab
                # claim (a decoded PDU's receive lease) ends here
                msg.release_payload()
        first = frags[0]
        if _TELEMETRY.enabled:
            s.context.jitter.count_invoke("release_delay")
        delay = s.context.jitter.release_delay(first)
        if delay > 0:
            s.sim.schedule(delay, self._deliver_app, combined, first)
        else:
            self._deliver_app(combined, first)

    def handle_ack(self, pdu: PDU, from_host: str) -> None:
        s = self.s
        s.stats.acks_received += 1
        ctx = s.context
        if _TELEMETRY.enabled:
            ctx.transmission.count_invoke("on_ack")
            ctx.recovery.count_invoke("on_ack")
        ctx.transmission.on_ack(pdu)
        if pdu.ack is not None:
            for seq in [q for q in s.state.outstanding if q < pdu.ack]:
                if ctx.delivery.ack_complete(seq, from_host):
                    self.finalize_ack(seq)
        if s._closed:
            # this ack completed a pending close (finalize_ack ->
            # _maybe_finish_close tears the session down synchronously
            # under non-blocking connection management); the mechanisms
            # are unbound now, so the pdu has nothing left to drive
            return
        if pdu.sack:
            destinations = set(ctx.delivery.destinations())
            for seq in pdu.sack:
                entry = s.state.outstanding.get(seq)
                if entry is not None:
                    entry.sacked_by.add(from_host)
                    entry.sacked = entry.sacked_by >= destinations
        ctx.recovery.on_ack(pdu, from_host)
        self.pump()

    def _arm_gap_timer(self) -> None:
        s = self.s
        ctx = s.context
        if ctx.recovery.retransmits or not ctx.sequencing.ordered:
            return
        if s._gap_timer is None:
            s._gap_timer = s.timers.timer(self.gap_timeout)
        if not s._gap_timer.armed:
            s._gap_timer.schedule(s.cfg.gap_timeout)
