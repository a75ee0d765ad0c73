"""Retransmission-based error recovery (go-back-N / selective repeat).

These are the two schemes the paper's policy examples switch between
(§3(C)): go-back-N minimises receiver buffering (out-of-order PDUs are
discarded) at the price of redundant retransmission under loss; selective
repeat resends only what was actually lost but requires the receiver to
buffer out-of-order arrivals and the ACK scheme to report them (SACK).

Both use one retransmission timer per session with exponential backoff,
Karn-style RTT sampling (no samples from retransmitted PDUs — enforced in
the session's ACK accounting), and 3-duplicate-ACK fast retransmit.

``adopt`` transfers the unacknowledged-PDU queue across a segue, which is
what makes the on-the-fly GBN ↔ SR switch of experiment E3 loss-free (the
property MSP demonstrated and ADAPTIVE adds policy control over).
"""

from __future__ import annotations

from typing import Iterable, List

from repro.mechanisms.base import ErrorRecovery
from repro.tko.ends import RETRANSMISSION_LIMIT
from repro.tko.pdu import PDU

#: duplicate-ACK count that triggers fast retransmit
FAST_RETRANSMIT_DUPS = 3


class NoRecovery(ErrorRecovery):
    """Fire and forget — losses are final (datagram / media service)."""

    __slots__ = ()

    name = "none"
    SEND_COST = 5.0
    RECV_COST = 5.0
    DISPATCH_SEND = 1
    DISPATCH_RECV = 0
    accept_out_of_order = True
    retransmits = False

    def on_send(self, pdu: PDU) -> Iterable[PDU]:
        return ()

    def on_ack(self, pdu: PDU, from_host: str = "") -> None:
        return None

    def on_receive_repair(self, pdu: PDU) -> List[PDU]:
        return []


class _RetransmitBase(ErrorRecovery):
    """Shared timer/backoff/fast-retransmit machinery."""

    __slots__ = ("_timer", "_dup_acks", "_last_ack_by_host", "_max_ack_seen",
                 "_in_recovery")

    retransmits = True
    SEND_COST = 90.0
    RECV_COST = 40.0
    DISPATCH_SEND = 2
    DISPATCH_RECV = 2

    def __init__(self) -> None:
        super().__init__()
        self._timer = None
        self._dup_acks = 0
        #: highest cumulative ACK seen per acknowledging host — multicast
        #: members each acknowledge every sequence, so duplicates must be
        #: judged against the *sender's* history with that host
        self._last_ack_by_host: dict = {}
        self._max_ack_seen = -1
        # fast-recovery latch: at most one fast retransmit per loss event;
        # re-armed only when the cumulative ACK advances again
        self._in_recovery = False

    def bind(self, session) -> None:
        super().bind(session)
        self._timer = session.timers.timer(self._on_timeout, interval=session.cfg.rto_initial)

    def unbind(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None  # timer -> bound method -> self is a cycle
        super().unbind()

    def adopt(self, old: ErrorRecovery) -> None:
        # The outstanding queue lives in shared session state, so nothing
        # must be copied — but the replacement must keep the loss clock
        # running if there is still unacknowledged data.
        if self.session.state.outstanding_count() > 0:
            self._arm()
        if isinstance(old, _RetransmitBase):
            self._dup_acks = old._dup_acks
            self._last_ack_by_host = old._last_ack_by_host
            self._max_ack_seen = old._max_ack_seen

    # ------------------------------------------------------------------
    def _arm(self) -> None:
        self._timer.schedule(self.session.rtt.rto)

    def on_send(self, pdu: PDU) -> Iterable[PDU]:
        if not self._timer.armed:
            self._arm()
        return ()

    def on_ack(self, pdu: PDU, from_host: str = "") -> None:
        s = self.session
        if pdu.ack is None:
            return
        last_from_host = self._last_ack_by_host.get(from_host, -1)
        if pdu.ack > last_from_host:
            # progress from this host's point of view: never a duplicate
            self._last_ack_by_host[from_host] = pdu.ack
            if pdu.ack > self._max_ack_seen:
                self._max_ack_seen = pdu.ack
                self._dup_acks = 0
                self._in_recovery = False
            # restart the loss clock for remaining data
            if s.state.outstanding_count() > 0:
                self._arm()
            else:
                self._timer.cancel()
        elif (
            pdu.ack == last_from_host
            and s.state.outstanding_count() > 0
            and not self._in_recovery
        ):
            self._dup_acks += 1
            if self._dup_acks == FAST_RETRANSMIT_DUPS:
                self._dup_acks = 0
                self._in_recovery = True
                s.stats.fast_retransmits += 1
                self._fast_retransmit()

    def outstanding_count(self) -> int:
        return self.session.state.outstanding_count()

    # -- scheme-specific -------------------------------------------------
    def _on_timeout(self) -> None:
        raise NotImplementedError

    def _fast_retransmit(self) -> None:
        raise NotImplementedError

    def on_receive_repair(self, pdu: PDU) -> List[PDU]:
        return []  # retransmission schemes carry no PARITY units

    def _give_up_check(self) -> bool:
        s = self.session
        for entry in s.state.outstanding.values():
            if entry.retries > s.cfg.max_retries:
                s.abort(RETRANSMISSION_LIMIT)
                return True
        return False


class GoBackN(_RetransmitBase):
    """Retransmit *everything* outstanding on loss; receiver keeps no
    out-of-order state."""

    __slots__ = ()

    name = "gbn"
    accept_out_of_order = False

    def _on_timeout(self) -> None:
        s = self.session
        if s.state.outstanding_count() == 0:
            return
        s.rtt.backoff()
        s.context.transmission.on_loss()
        for entry in list(s.state.outstanding.values()):
            s.retransmit_entry(entry)
        if self._give_up_check():
            return
        self._arm()

    def _fast_retransmit(self) -> None:
        # Go-back-N semantics: resume from the first unacknowledged PDU.
        s = self.session
        s.context.transmission.on_loss()
        for entry in list(s.state.outstanding.values()):
            s.retransmit_entry(entry)
        self._give_up_check()


class SelectiveRepeat(_RetransmitBase):
    """Retransmit only PDUs not covered by cumulative ACK or SACK."""

    __slots__ = ()

    name = "sr"
    accept_out_of_order = True
    SEND_COST = 100.0
    RECV_COST = 50.0

    def _unrepaired_entries(self):
        return [e for e in self.session.state.outstanding.values() if not e.sacked]

    def _on_timeout(self) -> None:
        s = self.session
        missing = self._unrepaired_entries()
        if not missing:
            if s.state.outstanding_count() > 0:
                self._arm()
            return
        s.rtt.backoff()
        s.context.transmission.on_loss()
        for entry in missing:
            s.retransmit_entry(entry)
        if self._give_up_check():
            return
        self._arm()

    def _fast_retransmit(self) -> None:
        missing = self._unrepaired_entries()
        if missing:
            self.session.context.transmission.on_loss()
            self.session.retransmit_entry(missing[0])
            self._give_up_check()
