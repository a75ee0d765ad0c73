"""Jitter control: playout buffering for isochronous delivery.

Table 1's isochronous service classes (voice, raw video) are *jitter*
sensitive, not latency-optimal: the application wants PDU n delivered at
``send_time(n) + D`` for a constant D, converting network delay variance
into a fixed offset.  ``PlayoutBuffer`` implements the classic fixed-delay
playout point; messages arriving after their deadline are delivered
immediately and counted late (the metric the UNITES jitter analysis
reports).
"""

from __future__ import annotations

from repro.mechanisms.base import JitterControl
from repro.tko.pdu import PDU


class NoJitterControl(JitterControl):
    """Deliver as soon as complete."""

    __slots__ = ()

    name = "none"
    SEND_COST = 0.0
    RECV_COST = 0.0
    DISPATCH_SEND = 0
    DISPATCH_RECV = 1

    def release_delay(self, pdu: PDU) -> float:
        return 0.0


class PlayoutBuffer(JitterControl):
    """Fixed-offset playout: release at ``origin_timestamp + playout_delay``."""

    __slots__ = ("_delay",)

    name = "playout"
    SEND_COST = 5.0
    RECV_COST = 40.0
    DISPATCH_RECV = 2

    def __init__(self, playout_delay: float | None = None) -> None:
        super().__init__()
        self._delay = playout_delay

    def bind(self, session) -> None:
        super().bind(session)
        if self._delay is None:
            self._delay = session.cfg.playout_delay

    @property
    def playout_delay(self) -> float:
        return float(self._delay or 0.0)

    def set_delay(self, delay: float) -> None:
        """Re-tune the playout point (an SCS-adjust reconfiguration)."""
        if delay < 0:
            raise ValueError("playout delay cannot be negative")
        self._delay = delay

    def release_delay(self, pdu: PDU) -> float:
        s = self.session
        target = pdu.timestamp + self.playout_delay
        delay = target - s.now
        if delay <= 0:
            s.stats.late_arrivals += 1
            return 0.0
        return delay

    def adopt(self, old: JitterControl) -> None:
        if isinstance(old, PlayoutBuffer):
            self._delay = old._delay
