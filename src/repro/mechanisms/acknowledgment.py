"""Acknowledgment mechanisms (the reporting third of
``Reliability_Management``).

The receiver-side policy deciding *when* and *what* to acknowledge:

* ``NoAck`` — silence (pure datagram / FEC-only configurations);
* ``CumulativeAck`` — one ACK per accepted DATA PDU carrying the next
  expected sequence number; out-of-order arrivals trigger duplicate ACKs,
  which the sender's fast-retransmit logic counts;
* ``DelayedAck`` — cumulative, but withheld up to ``cfg.ack_delay`` (or
  until a second PDU arrives), halving ACK traffic for streams — the
  "timer settings for delayed acknowledgments" negotiable of Table 2;
* ``SelectiveAck`` — cumulative + a SACK vector of out-of-order sequence
  numbers held in the receive buffer, enabling selective repeat.

ACKs advertise the local free receive window on every emission.
"""

from __future__ import annotations


from repro.mechanisms.base import Acknowledgment
from repro.tko.pdu import PDU, PduType

#: cap on sequence numbers reported per SACK vector (header space)
SACK_LIMIT = 16


class NoAck(Acknowledgment):
    """Never acknowledge."""

    __slots__ = ()

    name = "none"
    SEND_COST = 0.0
    RECV_COST = 0.0
    DISPATCH_SEND = 0
    DISPATCH_RECV = 1

    def on_data(self, pdu: PDU) -> None:
        return None


class CumulativeAck(Acknowledgment):
    """Immediate cumulative acknowledgment of every accepted PDU."""

    __slots__ = ()

    name = "cumulative"
    SEND_COST = 0.0
    RECV_COST = 50.0

    def _emit_ack(self) -> None:
        s = self.session
        ack = s.make_pdu(PduType.ACK)
        ack.ack = s.recv_window.rcv_nxt
        ack.window = s.advertised_window()
        s.stats.acks_sent += 1
        s.emit_pdu(ack)
        if ack.pooled:
            ack.release()  # creator ref; the wire holds its own

    def on_data(self, pdu: PDU) -> None:
        self._emit_ack()

    def on_gap(self, pdu: PDU) -> None:
        # Duplicate cumulative ACK — the sender's loss signal.
        self._emit_ack()


class DelayedAck(CumulativeAck):
    """Cumulative ACKs withheld up to ``ack_delay`` or every second PDU."""

    __slots__ = ("_pending", "_timer")

    name = "delayed"
    RECV_COST = 40.0
    DISPATCH_RECV = 2

    def __init__(self) -> None:
        super().__init__()
        self._pending = 0
        self._timer = None

    def bind(self, session) -> None:
        super().bind(session)
        self._timer = session.timers.timer(self._timeout, interval=session.cfg.ack_delay)

    def unbind(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None  # timer -> bound method -> self is a cycle
        super().unbind()

    def on_data(self, pdu: PDU) -> None:
        self._pending += 1
        if self._pending >= 2:
            self.flush()
        elif not self._timer.armed:
            self._timer.schedule(self.session.cfg.ack_delay)

    def on_gap(self, pdu: PDU) -> None:
        # Gaps must be reported immediately; delaying dup-ACKs would defeat
        # fast retransmit.
        self.flush()

    def flush(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._pending = 0
        self._emit_ack()

    def _timeout(self) -> None:
        if self._pending:
            self._pending = 0
            self._emit_ack()

    def adopt(self, old: Acknowledgment) -> None:
        # Any ACK owed under the old scheme is emitted on switch so the
        # sender never stalls across a segue.
        if isinstance(old, DelayedAck) and old._pending:
            self._pending = old._pending
            self.flush()


class SelectiveAck(CumulativeAck):
    """Cumulative + SACK vector of buffered out-of-order sequences."""

    __slots__ = ()

    name = "selective"
    RECV_COST = 70.0
    DISPATCH_RECV = 2

    def _emit_ack(self) -> None:
        s = self.session
        ack = s.make_pdu(PduType.ACK)
        ack.ack = s.recv_window.rcv_nxt
        ack.window = s.advertised_window()
        buffered = sorted(s.recv_window.buffered_seqs())[:SACK_LIMIT]
        ack.sack = tuple(buffered) if buffered else None
        s.stats.acks_sent += 1
        s.emit_pdu(ack)
        if ack.pooled:
            ack.release()
