"""Transmission control mechanisms (Figure 5's ``Transmission_Management``).

The hierarchy covers the design space the paper's policies select from:

* ``NoTransmissionControl`` — release immediately (datagram service);
* ``StopAndWait`` — at most one PDU outstanding (TELNET-grade);
* ``SlidingWindow`` — classic window flow control, honouring the peer's
  advertisement negotiated at setup (Table 2's "initial window
  advertisements");
* ``RateControl`` — an inter-PDU gap pacing scheme; §4.1.2's example
  reconfiguration ("increase the inter-PDU gap used by the rate control
  mechanism in response to perceived network congestion") is the
  :meth:`RateControl.set_rate` segue target;
* ``WindowRate`` — both constraints at once (the paper's note that
  high-speed virtual-circuit networks want rate *and* window control).
"""

from __future__ import annotations

from typing import Optional

from repro.mechanisms.base import TransmissionControl
from repro.tko.pdu import PDU


class NoTransmissionControl(TransmissionControl):
    """Unconstrained release — the underweight end of the design space."""

    __slots__ = ()

    name = "none"
    SEND_COST = 10.0
    RECV_COST = 5.0
    DISPATCH_SEND = 1
    DISPATCH_RECV = 0

    def can_send(self) -> bool:
        return True

    def send_gap(self) -> float:
        return 0.0


class StopAndWait(TransmissionControl):
    """One PDU in flight at a time."""

    __slots__ = ()

    name = "stop-and-wait"
    SEND_COST = 40.0
    RECV_COST = 30.0

    def can_send(self) -> bool:
        return self.session.state.outstanding_count() == 0

    def send_gap(self) -> float:
        return 0.0


class SlidingWindow(TransmissionControl):
    """Window-limited release: outstanding < min(own, peer advertisement)."""

    __slots__ = ()

    name = "sliding-window"
    SEND_COST = 80.0
    RECV_COST = 60.0
    DISPATCH_SEND = 2
    DISPATCH_RECV = 2

    def effective_window(self) -> int:
        s = self.session
        peer = s.state.peer_window
        own = s.cfg.window
        return min(own, peer) if peer is not None else own

    def can_send(self) -> bool:
        return self.session.state.outstanding_count() < self.effective_window()

    def send_gap(self) -> float:
        return 0.0

    def on_ack(self, pdu: PDU) -> None:
        # Window advertisements ride every ACK.
        if pdu.window:
            self.session.state.peer_window = pdu.window


class RateControl(TransmissionControl):
    """Pacing via an inter-PDU gap; the gap is the segue-adjustable knob."""

    __slots__ = ("_rate", "_next_slot")

    name = "rate"
    SEND_COST = 60.0
    RECV_COST = 10.0

    def __init__(self, rate_pps: Optional[float] = None) -> None:
        super().__init__()
        self._rate = rate_pps
        self._next_slot = 0.0

    def bind(self, session) -> None:
        super().bind(session)
        if self._rate is None:
            self._rate = session.cfg.rate_pps or 1000.0

    @property
    def rate_pps(self) -> float:
        return float(self._rate or 0.0)

    def set_rate(self, rate_pps: float) -> None:
        """Adjust the pacing rate in place (MANTTS' congestion response)."""
        if rate_pps <= 0:
            raise ValueError("rate must be positive")
        self._rate = rate_pps

    def can_send(self) -> bool:
        return True

    def send_gap(self) -> float:
        now = self.session.now
        return max(0.0, self._next_slot - now)

    def on_send(self, pdu: PDU) -> None:
        now = self.session.now
        gap = 1.0 / float(self._rate)
        self._next_slot = max(now, self._next_slot) + gap

    def adopt(self, old: TransmissionControl) -> None:
        if isinstance(old, RateControl):
            self._next_slot = old._next_slot


class WindowRate(TransmissionControl):
    """Sliding window *and* rate pacing combined."""

    __slots__ = ("_window", "_rate")

    name = "window-rate"
    SEND_COST = 110.0
    RECV_COST = 60.0
    DISPATCH_SEND = 3
    DISPATCH_RECV = 2

    def __init__(self, rate_pps: Optional[float] = None) -> None:
        super().__init__()
        self._window = SlidingWindow()
        self._rate = RateControl(rate_pps)

    def bind(self, session) -> None:
        super().bind(session)
        self._window.bind(session)
        self._rate.bind(session)

    @property
    def rate_pps(self) -> float:
        return self._rate.rate_pps

    def set_rate(self, rate_pps: float) -> None:
        self._rate.set_rate(rate_pps)

    def can_send(self) -> bool:
        return self._window.can_send()

    def send_gap(self) -> float:
        return self._rate.send_gap()

    def on_send(self, pdu: PDU) -> None:
        self._rate.on_send(pdu)

    def on_ack(self, pdu: PDU) -> None:
        self._window.on_ack(pdu)

    def adopt(self, old: TransmissionControl) -> None:
        self._rate.adopt(old if isinstance(old, RateControl) else getattr(old, "_rate", old))
