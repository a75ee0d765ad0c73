"""Connection management mechanisms (Figure 5's ``Connection_Management``).

Three concrete schemes, matching §4.1.1's negotiation alternatives:

* ``ImplicitConnection`` — no handshake; configuration information rides
  the first DATA PDU ("piggybacked along with the application's first
  PDU"), so a request-response exchange pays zero setup round trips;
* ``Explicit2Way`` — SYN / SYN-ACK: one RTT of setup, the paper's
  "2-way handshake" option for explicit management;
* ``Explicit3Way`` — SYN / SYN-ACK / CONFIRM: full three-way agreement
  (the TCP-style conservative default used by the TP4-like baseline).

Handshake PDUs (SYN family) are control units and travel on the
out-of-band control path (Figure 3): they carry ``PRIO_CONTROL`` so
signalling "does not interpret packets containing control information" on
the data fast path.  Teardown PDUs (FIN / FIN-ACK) deliberately travel
*in-band* instead — a priority-class FIN would overtake the session's
final data in switch queues and close the peer before delivery completes.
"""

from __future__ import annotations

from typing import Optional

from repro.mechanisms.base import ConnectionManagement
from repro.tko.ends import FIN_TIMEOUT, GRACEFUL_CLOSE, HANDSHAKE_TIMEOUT
from repro.tko.pdu import PDU, PduType

#: retransmissions of a waiting state's PDU (SYN, SYN-ACK or FIN) before
#: the session ends with that state's timeout reason
MAX_HANDSHAKE_RETRIES = 5


class _SchemeBase(ConnectionManagement):
    """What every scheme shares: a ``state`` label and the FIN exchange (a
    FIN is answered and ends the session, as does an awaited FIN-ACK)."""

    __slots__ = ("state",)

    @property
    def connected(self) -> bool:
        return self.state == "open"

    def handle_control(self, pdu: PDU) -> bool:
        s = self.session
        if pdu.ptype is PduType.FIN:
            self.state = "closed"
            s.emit_pdu(s.make_pdu(PduType.FIN_ACK))
        elif pdu.ptype is not PduType.FIN_ACK:
            return False
        elif self.state == "fin-wait":
            self.state = "closed"
        else:
            return True  # nothing waits for this FIN-ACK
        s._end(GRACEFUL_CLOSE)
        return True


class ImplicitConnection(_SchemeBase):
    """Zero-handshake establishment with config piggybacked on first DATA."""

    __slots__ = ("_first_data_sent",)

    name = "implicit"
    SEND_COST = 15.0
    RECV_COST = 15.0
    DISPATCH_SEND = 1
    DISPATCH_RECV = 1

    def __init__(self) -> None:
        super().__init__()
        self.state = "open"
        self._first_data_sent = False

    def active_open(self) -> None:
        # Nothing on the wire; the session may transmit immediately.
        if self.session is not None:
            self.session.notify_connected()

    def passive_open(self, pdu: PDU) -> None:
        self.active_open()  # creation of the session *is* the establishment

    def piggyback_config(self) -> Optional[dict]:
        if self._first_data_sent:
            return None
        self._first_data_sent = True
        assert self.session is not None
        # the full configuration rides the first DATA PDU so the responder
        # can synthesize a matching session with zero setup round trips
        return self.session.cfg.to_dict()

    def close(self) -> None:
        # Implicit close is still announced so the peer can free resources,
        # but the closer does not wait for the FIN-ACK (non-blocking).
        s = self.session
        if self.state == "open":
            self.state = "closed"
            s.emit_pdu(s.make_pdu(PduType.FIN))
        s._end(GRACEFUL_CLOSE)

    def adopt(self, old: "ConnectionManagement") -> None:
        self.state = "open" if old.connected else "closed"
        self._first_data_sent = True


class _ExplicitBase(_SchemeBase):
    """Shared SYN / FIN machinery for the explicit handshake variants.

    Each waiting state — ``syn-sent``, ``syn-rcvd``, ``fin-wait`` — resends
    its PDU (SYN, SYN-ACK, FIN) on one timer after ``rto_initial · 2^k``;
    after ``MAX_HANDSHAKE_RETRIES`` the session ends with a timeout reason.
    """

    __slots__ = ("_retries", "_syn_timer")

    SEND_COST = 30.0
    RECV_COST = 30.0

    def __init__(self) -> None:
        super().__init__()
        self.state = "closed"  # closed/syn-sent/syn-rcvd/open/fin-wait
        self._retries = 0
        self._syn_timer = None

    def unbind(self) -> None:
        if self._syn_timer is not None:
            self._syn_timer.cancel()
            self._syn_timer = None  # timer -> bound method -> self is a cycle
        super().unbind()

    def piggyback_config(self) -> Optional[dict]:
        return None  # config was exchanged during the handshake

    def active_open(self) -> None:
        assert self.session is not None
        self._wait("syn-sent")

    def _wait(self, state: str) -> None:
        """Enter a waiting state: send its PDU, start the retry count."""
        self.state = state
        self._retries = 0
        self._send_waiting_pdu()

    def _send_waiting_pdu(self) -> None:
        s = self.session
        if self.state == "syn-sent":
            syn = s.make_pdu(PduType.SYN)
            syn.options["cfg"] = s.cfg.to_dict()
            syn.options["window"] = s.cfg.window
            s.emit_control(syn)
        elif self.state == "syn-rcvd":
            s.emit_control(s.make_pdu(PduType.SYN_ACK))
        else:  # fin-wait: in-band, behind the session's final data
            s.emit_pdu(s.make_pdu(PduType.FIN))
        if self._syn_timer is None:
            self._syn_timer = s.timers.timer(self._timeout, interval=s.cfg.rto_initial)
        self._syn_timer.schedule(s.cfg.rto_initial * (2 ** self._retries))

    def _timeout(self) -> None:
        state = self.state
        if state not in ("syn-sent", "syn-rcvd", "fin-wait"):
            return
        self._retries += 1
        if self._retries > MAX_HANDSHAKE_RETRIES:
            self.state = "closed"
            self.session._end(FIN_TIMEOUT if state == "fin-wait"
                              else f"{HANDSHAKE_TIMEOUT}: {state}")
            return
        self.session.stats.control_retransmissions += 1
        self._send_waiting_pdu()

    def _opened(self) -> None:
        self.state = "open"
        if self._syn_timer is not None:
            self._syn_timer.cancel()

    def close(self) -> None:
        if self.state != "open":
            self.state = "closed"
            self.session._end(GRACEFUL_CLOSE)
            return
        self._wait("fin-wait")

    def adopt(self, old: "ConnectionManagement") -> None:
        # A live session never re-handshakes; inherit openness.
        if old.connected:
            self.state = "open"


class Explicit2Way(_ExplicitBase):
    """SYN / SYN-ACK establishment (one round trip)."""

    __slots__ = ()

    name = "explicit-2way"
    DISPATCH_SEND = 1
    DISPATCH_RECV = 2

    def passive_open(self, pdu: PDU) -> None:
        s = self.session
        self.state = "open"
        s.state.peer_window = pdu.options.get("window", s.state.peer_window)
        s.emit_control(s.make_pdu(PduType.SYN_ACK))
        s.notify_connected()

    def handle_control(self, pdu: PDU) -> bool:
        s = self.session
        if pdu.ptype is PduType.SYN:
            # duplicate SYN (our SYN-ACK was lost): re-acknowledge
            s.emit_control(s.make_pdu(PduType.SYN_ACK))
            return True
        if pdu.ptype is PduType.SYN_ACK:
            if self.state == "syn-sent":
                self._opened()
                s.notify_connected()
            return True
        return super().handle_control(pdu)


class Explicit3Way(_ExplicitBase):
    """SYN / SYN-ACK / CONFIRM establishment (TCP-style three-way)."""

    __slots__ = ()

    name = "explicit-3way"
    DISPATCH_SEND = 1
    DISPATCH_RECV = 3

    def passive_open(self, pdu: PDU) -> None:
        s = self.session
        s.state.peer_window = pdu.options.get("window", s.state.peer_window)
        # a lost CONFIRM is covered by the SYN-ACK's retransmissions
        self._wait("syn-rcvd")

    def handle_control(self, pdu: PDU) -> bool:
        s = self.session
        if pdu.ptype is PduType.SYN:
            if self.state == "syn-rcvd":
                s.emit_control(s.make_pdu(PduType.SYN_ACK))
            return True
        if pdu.ptype is PduType.SYN_ACK:
            if self.state == "syn-sent":
                self._opened()
                s.emit_control(s.make_pdu(PduType.CONFIRM))
                s.notify_connected()
            else:
                # duplicate SYN-ACK: re-confirm so the passive side opens
                s.emit_control(s.make_pdu(PduType.CONFIRM))
            return True
        if pdu.ptype is PduType.CONFIRM:
            if self.state == "syn-rcvd":
                self._opened()
                s.notify_connected()
            return True
        return super().handle_control(pdu)
