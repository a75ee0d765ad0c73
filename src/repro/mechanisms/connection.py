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
from repro.tko.pdu import PDU, PduType

#: handshake retransmission ceiling before the open attempt is abandoned
MAX_HANDSHAKE_RETRIES = 5


class ImplicitConnection(ConnectionManagement):
    """Zero-handshake establishment with config piggybacked on first DATA."""

    __slots__ = ("_connected", "_first_data_sent", "_closed")

    name = "implicit"
    SEND_COST = 15.0
    RECV_COST = 15.0
    DISPATCH_SEND = 1
    DISPATCH_RECV = 1

    def __init__(self) -> None:
        super().__init__()
        self._connected = True
        self._first_data_sent = False
        self._closed = False

    @property
    def connected(self) -> bool:
        return self._connected and not self._closed

    def active_open(self) -> None:
        # Nothing on the wire; the session may transmit immediately.
        if self.session is not None:
            self.session.notify_connected()

    def passive_open(self, pdu: PDU) -> None:
        # Creation of the session *is* the establishment.
        if self.session is not None:
            self.session.notify_connected()

    def piggyback_config(self) -> Optional[dict]:
        if self._first_data_sent:
            return None
        self._first_data_sent = True
        assert self.session is not None
        # the full configuration rides the first DATA PDU so the responder
        # can synthesize a matching session with zero setup round trips
        return self.session.cfg.to_dict()

    def handle_control(self, pdu: PDU) -> bool:
        if pdu.ptype is PduType.FIN:
            self._closed = True
            self.session.emit_pdu(self.session.make_pdu(PduType.FIN_ACK))
            self.session.notify_closed()
            return True
        if pdu.ptype is PduType.FIN_ACK:
            self._closed = True
            self.session.notify_closed()
            return True
        return False

    def close(self) -> None:
        # Implicit close is still announced so the peer can free resources,
        # but the closer does not wait for the FIN-ACK (non-blocking).
        if not self._closed:
            self._closed = True
            self.session.emit_pdu(self.session.make_pdu(PduType.FIN))
            self.session.notify_closed()

    def adopt(self, old: "ConnectionManagement") -> None:
        self._connected = old.connected
        self._first_data_sent = True


class _ExplicitBase(ConnectionManagement):
    """Shared SYN machinery for the explicit handshake variants."""

    __slots__ = ("state", "_retries", "_syn_timer")

    SEND_COST = 30.0
    RECV_COST = 30.0

    def __init__(self) -> None:
        super().__init__()
        self.state = "closed"  # closed/syn-sent/syn-rcvd/open/fin-wait/closing
        self._retries = 0
        self._syn_timer = None

    def unbind(self) -> None:
        if self._syn_timer is not None:
            self._syn_timer.cancel()
            self._syn_timer = None  # timer -> bound method -> self is a cycle
        super().unbind()

    @property
    def connected(self) -> bool:
        return self.state == "open"

    def piggyback_config(self) -> Optional[dict]:
        return None  # config was exchanged during the handshake

    # -- active side ----------------------------------------------------
    def active_open(self) -> None:
        assert self.session is not None
        self.state = "syn-sent"
        self._send_syn()

    def _send_syn(self) -> None:
        s = self.session
        syn = s.make_pdu(PduType.SYN)
        syn.options["cfg"] = s.cfg.to_dict()
        syn.options["window"] = s.cfg.window
        s.emit_control(syn)
        if self._syn_timer is None:
            self._syn_timer = s.timers.timer(self._syn_timeout, interval=s.cfg.rto_initial)
        self._syn_timer.schedule(s.cfg.rto_initial * (2 ** self._retries))

    def _syn_timeout(self) -> None:
        if self.state not in ("syn-sent", "syn-rcvd"):
            return
        self._retries += 1
        if self._retries > MAX_HANDSHAKE_RETRIES:
            self.state = "closed"
            self.session.notify_open_failed("handshake timeout")
            return
        self.session.stats.control_retransmissions += 1
        self._send_syn()

    # -- teardown ---------------------------------------------------------
    def close(self) -> None:
        s = self.session
        if self.state != "open":
            self.state = "closed"
            s.notify_closed()
            return
        self.state = "fin-wait"
        s.emit_pdu(s.make_pdu(PduType.FIN))

    def _handle_common_control(self, pdu: PDU) -> bool:
        s = self.session
        if pdu.ptype is PduType.FIN:
            self.state = "closed"
            s.emit_pdu(s.make_pdu(PduType.FIN_ACK))
            s.notify_closed()
            return True
        if pdu.ptype is PduType.FIN_ACK:
            if self.state == "fin-wait":
                self.state = "closed"
                s.notify_closed()
            return True
        return False

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
                self.state = "open"
                if self._syn_timer is not None:
                    self._syn_timer.cancel()
                s.notify_connected()
            return True
        return self._handle_common_control(pdu)


class Explicit3Way(_ExplicitBase):
    """SYN / SYN-ACK / CONFIRM establishment (TCP-style three-way)."""

    __slots__ = ()

    name = "explicit-3way"
    DISPATCH_SEND = 1
    DISPATCH_RECV = 3

    def passive_open(self, pdu: PDU) -> None:
        s = self.session
        self.state = "syn-rcvd"
        s.state.peer_window = pdu.options.get("window", s.state.peer_window)
        s.emit_control(s.make_pdu(PduType.SYN_ACK))
        # Guard against a lost CONFIRM with the SYN retransmit timer.
        if self._syn_timer is None:
            self._syn_timer = s.timers.timer(self._synack_timeout, interval=s.cfg.rto_initial)
        self._syn_timer.schedule(s.cfg.rto_initial)

    def _synack_timeout(self) -> None:
        if self.state != "syn-rcvd":
            return
        self._retries += 1
        if self._retries > MAX_HANDSHAKE_RETRIES:
            self.state = "closed"
            self.session.notify_open_failed("handshake timeout (syn-rcvd)")
            return
        self.session.stats.control_retransmissions += 1
        self.session.emit_control(self.session.make_pdu(PduType.SYN_ACK))
        self._syn_timer.schedule(self.session.cfg.rto_initial * (2 ** self._retries))

    def handle_control(self, pdu: PDU) -> bool:
        s = self.session
        if pdu.ptype is PduType.SYN:
            if self.state == "syn-rcvd":
                s.emit_control(s.make_pdu(PduType.SYN_ACK))
            return True
        if pdu.ptype is PduType.SYN_ACK:
            if self.state == "syn-sent":
                self.state = "open"
                if self._syn_timer is not None:
                    self._syn_timer.cancel()
                s.emit_control(s.make_pdu(PduType.CONFIRM))
                s.notify_connected()
            else:
                # duplicate SYN-ACK: re-confirm so the passive side opens
                s.emit_control(s.make_pdu(PduType.CONFIRM))
            return True
        if pdu.ptype is PduType.CONFIRM:
            if self.state == "syn-rcvd":
                self.state = "open"
                if self._syn_timer is not None:
                    self._syn_timer.cancel()
                s.notify_connected()
            return True
        return self._handle_common_control(pdu)
