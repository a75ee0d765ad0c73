"""Timer abstractions over the event kernel.

``Timer`` is the semantic model for the paper's ``TKO_Event`` class (§4.2.1):
an object that *schedules itself* to expire one or more times, may be
cancelled, and is triggered asynchronously by the kernel.  ``TimerWheel``
groups many timers under one owner so a dying session can cancel its whole
timer population in one call — the common teardown path for protocol
machinery (retransmission, delayed-ACK, keepalive timers).

``TimerWheel`` here is an *ownership registry*, not a scheduling structure;
the kernel's :class:`repro.sim.kernel.HierarchicalTimerWheel` is the
time-ordered container that ``Timer`` expiries route through (via
``Simulator.schedule_timer``) so cancel-heavy timers die in O(1) — see
``docs/performance.md``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.kernel import Event, Simulator


class Timer:
    """A restartable one-shot or periodic timer.

    Parameters
    ----------
    sim:
        The simulator supplying virtual time.
    fn / args:
        Callback run at each expiry.
    interval:
        Expiry delay in seconds; for periodic timers, also the period.
    periodic:
        When True the timer re-arms itself after each expiry until
        :meth:`cancel` is called.
    """

    __slots__ = ("sim", "fn", "args", "interval", "periodic", "_event", "expirations")

    def __init__(
        self,
        sim: Simulator,
        fn: Callable[..., Any],
        *args: Any,
        interval: float = 0.0,
        periodic: bool = False,
    ) -> None:
        self.sim = sim
        self.fn = fn
        self.args = args
        self.interval = interval
        self.periodic = periodic
        self._event: Optional[Event] = None
        self.expirations = 0

    # -- state -----------------------------------------------------------
    @property
    def armed(self) -> bool:
        """True while an expiry is scheduled."""
        return self._event is not None and not self._event.cancelled

    # -- control ----------------------------------------------------------
    def schedule(self, interval: Optional[float] = None) -> None:
        """(Re)arm the timer ``interval`` seconds from now.

        Mirrors ``TKO_Event::schedule``; re-arming an armed timer replaces
        the pending expiry (i.e. it restarts the countdown).
        """
        if interval is not None:
            self.interval = interval
        self.cancel()
        self._event = self.sim.schedule_timer(self.interval, self._expire)

    def cancel(self) -> None:
        """Disarm without firing (``TKO_Event::cancel``); idempotent."""
        if self._event is not None:
            self.sim.cancel(self._event)
            self._event = None

    def _expire(self) -> None:
        """Internal: kernel callback (``TKO_Event::expire``)."""
        self._event = None
        self.expirations += 1
        if self.periodic:
            self._event = self.sim.schedule_timer(self.interval, self._expire)
        self.fn(*self.args)


class TimerWheel:
    """A registry of timers sharing one owner lifecycle.

    Sessions allocate timers through their wheel; ``cancel_all`` is invoked
    on session teardown so no timer outlives the context it points into.
    """

    __slots__ = ("sim", "_timers")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._timers: list[Timer] = []

    def timer(
        self,
        fn: Callable[..., Any],
        *args: Any,
        interval: float = 0.0,
        periodic: bool = False,
    ) -> Timer:
        """Create (but do not arm) a timer owned by this wheel."""
        t = Timer(self.sim, fn, *args, interval=interval, periodic=periodic)
        self._timers.append(t)
        return t

    def after(self, delay: float, fn: Callable[..., Any], *args: Any) -> Timer:
        """Create *and arm* a one-shot timer firing ``delay`` seconds out."""
        t = self.timer(fn, *args, interval=delay)
        t.schedule()
        return t

    def every(self, period: float, fn: Callable[..., Any], *args: Any) -> Timer:
        """Create *and arm* a periodic timer."""
        t = self.timer(fn, *args, interval=period, periodic=True)
        t.schedule()
        return t

    def cancel_all(self) -> None:
        """Disarm every timer created through this wheel."""
        for t in self._timers:
            t.cancel()

    def __len__(self) -> int:
        return len(self._timers)
