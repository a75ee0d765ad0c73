"""Core discrete-event simulation kernel.

The kernel is allocation-light and cancellation-tolerant.  Every pending
occurrence is one plain tuple ``(time, priority, seq, fn, args, handle)``:
``seq`` is unique, so ``heapq`` decides every comparison in C on the
first three fields and event ordering never executes Python.  ``handle``
is ``None`` for fire-and-forget work (``schedule_transient*``) and the
:class:`Event` a cancellable scheduling call returned otherwise.  Pending
events live in two structures ordered by ``(time, priority, seq)``:

* a **binary heap** — the general store for events that usually fire
  (frame arrivals, CPU completions, workload wake-ups);
* a **hierarchical timer wheel** in front of the heap — the home of the
  cancel-heavy timer class (retransmission, delayed-ACK, keepalive,
  monitor timers routed through :meth:`Simulator.schedule_timer`).  A
  wheel-parked timer that is cancelled dies in O(1) *without ever
  touching the heap*: no ``heappush``, no lazy-deletion pop later.  Only
  timers that survive long enough to become imminent are flushed into
  the heap, which restores the exact ``(time, priority, seq)`` total
  order, so wheel routing never changes which event fires next.

The ``seq`` field guarantees a deterministic total order for simultaneous
events, which is what makes every experiment in :mod:`benchmarks` exactly
repeatable — the property the paper's UNITES subsystem calls *controlled,
empirical experimentation* (§4.3).

Heap-resident events cancel lazily (handle marked, entry skipped when
popped), but the queue **compacts** the heap in place when cancelled
entries come to dominate it, so pathological churn cannot grow the heap
without bound.

See ``docs/performance.md`` for the design rationale, the compaction
policy, and the determinism argument.
"""

from __future__ import annotations

import math
from heapq import heapify as _heapify, heappop as _heappop, heappush as _heappush
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.unites.obs.telemetry import TELEMETRY as _TELEMETRY


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling into the past, re-running, ...)."""


class Event:
    """Cancellable handle for one scheduled occurrence.

    Returned by :meth:`Simulator.schedule`, :meth:`~Simulator.schedule_at`
    and :meth:`~Simulator.schedule_timer`; safe to keep for as long as the
    caller likes — :meth:`Simulator.cancel` on a handle that has fired or
    was already cancelled is a no-op.  Handles are never compared: the
    heap orders the entry tuple, not this record.

    Attributes
    ----------
    time:
        Absolute virtual time (seconds) at which the event fires.
    priority:
        Secondary ordering key; lower fires first among same-time events.
    seq:
        Kernel-assigned monotone sequence number — the final tie-breaker that
        makes simultaneous-event ordering deterministic.
    fn / args:
        Callback invoked as ``fn(*args)`` when the event fires.  The run
        loop clears ``fn`` as it pops the entry, which is how ``cancel``
        recognises a handle that has already fired.
    wheeled:
        Kernel-internal: the event is currently parked in the timer wheel
        (cleared when it is flushed into the heap).
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled",
                 "wheeled")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.wheeled = False

    def cancel(self) -> None:
        """Mark the event so the kernel skips it (idempotent, O(1))."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.9f} prio={self.priority} seq={self.seq} {state}>"


#: finest wheel granularity — 1/1024 s is binary-exact, so bucket starts
#: and the flush horizon stay drift-free under float arithmetic
WHEEL_GRANULARITY = 1.0 / 1024.0
#: buckets a level spans before an event escalates to the next level
WHEEL_SPAN = 64
#: level granularities: ~1 ms, 62.5 ms, 4 s (sparse dict buckets make the
#: top level's horizon effectively unbounded)
WHEEL_LEVELS = 3

#: heap compaction: rebuild in place once at least this many cancelled
#: entries sit in the heap AND they are at least half of its depth
COMPACT_MIN_CANCELLED = 512


class HierarchicalTimerWheel:
    """Sparse hierarchical timer wheel for the cancel-heavy timer class.

    Buckets are ``dict[int, list[Event]]`` keyed by ``floor(time / g)`` per
    level (granularity ``g`` multiplies by :data:`WHEEL_SPAN` each level),
    with a per-level heap of occupied bucket indices, so the wheel is O(1)
    to insert and O(1) to cancel regardless of horizon.

    ``flushed_until`` is the g0-aligned horizon below which every surviving
    event has already been flushed into the binary heap.  The invariant —
    *every wheel-parked event's time is ≥ ``flushed_until``* — is what lets
    the queue pop the heap top without looking at the wheel whenever that
    top is strictly inside the horizon, and it is why wheel routing cannot
    perturb the ``(time, priority, seq)`` total order: events always fire
    from the heap, and they are flushed into it strictly before any event
    at their time can be popped.
    """

    __slots__ = ("granularities", "_buckets", "_occupied", "flushed_until",
                 "min_start", "live", "cancelled_killed", "flushed", "inserted")

    def __init__(self) -> None:
        self.granularities = tuple(
            WHEEL_GRANULARITY * (WHEEL_SPAN ** lvl) for lvl in range(WHEEL_LEVELS)
        )
        self._buckets = tuple({} for _ in range(WHEEL_LEVELS))
        self._occupied = tuple([] for _ in range(WHEEL_LEVELS))
        self.flushed_until = 0.0
        #: cached earliest occupied-bucket start (inf when empty): a pop
        #: can take the heap top without touching the wheel whenever
        #: ``top.time < min_start`` — O(1) instead of a per-pop level scan
        self.min_start = float("inf")
        #: live (non-cancelled) events currently parked in the wheel
        self.live = 0
        #: timers that died in O(1) while parked (never touched the heap)
        self.cancelled_killed = 0
        #: live events flushed from wheel to heap (survived to imminence)
        self.flushed = 0
        #: total accepted insertions
        self.inserted = 0

    # ------------------------------------------------------------------
    def insert(self, ev: Event) -> bool:
        """Park ``ev``; False means the caller must heap it instead.

        Rejection happens only when the event lands inside (or in a bucket
        spanning) the already-flushed horizon — those few go straight to
        the heap to preserve the flush invariant.
        """
        t = ev.time
        fu = self.flushed_until
        if t < fu:
            return False
        delta = t - fu
        lvl = WHEEL_LEVELS - 1
        for i, g in enumerate(self.granularities):
            if delta < g * WHEEL_SPAN:
                lvl = i
                break
        g = self.granularities[lvl]
        idx = int(t / g)
        if idx * g < fu:
            # bucket straddles the flushed horizon — heap it
            return False
        buckets = self._buckets[lvl]
        bucket = buckets.get(idx)
        if bucket is None:
            buckets[idx] = bucket = [ev]
            _heappush(self._occupied[lvl], idx)
            start = idx * g
            if start < self.min_start:
                self.min_start = start
        else:
            bucket.append(ev)
        ev.wheeled = True
        self.live += 1
        self.inserted += 1
        return True

    def note_cancel(self, ev: Event) -> None:
        """A parked event was cancelled: it is dead, O(1), no heap contact.

        The record stays in its bucket until the bucket drains — removing
        it here would cost a bucket scan — but lets go of its callback now:
        a quiet world never drains a coarse bucket, and the dead record
        would pin its timer's owner (a closed session) until it did.
        """
        ev.fn = None
        ev.args = ()
        ev.wheeled = False
        self.live -= 1
        self.cancelled_killed += 1

    def min_occupied_start(self) -> Optional[float]:
        """Earliest occupied bucket's start time across levels, or None.

        Recomputes (and recaches) ``min_start`` — callers on the hot path
        read the cached attribute instead.
        """
        best = None
        for lvl, g in enumerate(self.granularities):
            occ = self._occupied[lvl]
            buckets = self._buckets[lvl]
            while occ and occ[0] not in buckets:
                _heappop(occ)  # stale index from a drained bucket
            if occ:
                s = occ[0] * g
                if best is None or s < best:
                    best = s
        self.min_start = best if best is not None else float("inf")
        return best

    def advance(self, target: float, queue: "EventQueue") -> None:
        """Flush every bucket that can hold events at or before ``target``.

        Surviving events either re-park in a finer bucket (cascade) or get
        their heap entry built and pushed into ``queue``'s heap; cancelled
        events are discarded without ever touching the heap.  On return
        ``flushed_until`` is the next g0 boundary strictly past ``target``.
        """
        g0 = self.granularities[0]
        new_fu = g0 * (int(target / g0) + 1)
        if new_fu <= self.flushed_until:
            return
        self.flushed_until = new_fu
        heap = queue._heap
        for lvl in range(WHEEL_LEVELS - 1, -1, -1):
            g = self.granularities[lvl]
            occ = self._occupied[lvl]
            buckets = self._buckets[lvl]
            while occ and occ[0] * g < new_fu:
                idx = _heappop(occ)
                bucket = buckets.pop(idx, None)
                if bucket is None:
                    continue  # stale index: bucket drained earlier
                for ev in bucket:
                    if ev.cancelled:
                        if ev.wheeled:
                            # cancelled via Event.cancel() directly, the
                            # queue was never notified — settle the books
                            ev.wheeled = False
                            self.live -= 1
                            self.cancelled_killed += 1
                        continue
                    self.live -= 1
                    ev.wheeled = False
                    if ev.time >= new_fu and self.insert(ev):
                        continue  # cascaded into a finer bucket
                    self.flushed += 1
                    _heappush(heap, (ev.time, ev.priority, ev.seq,
                                     ev.fn, ev.args, ev))
        self.min_occupied_start()  # recache min_start after the drain


class EventQueue:
    """Pending-event set: binary heap + hierarchical timer wheel.

    ``popped_live`` / ``skipped_cancelled`` count how many heap pops
    returned a live event vs. discarded a lazily-deleted one — their ratio
    is the kernel's *lazy-deletion ratio*, a direct measure of timer churn
    that escaped the wheel.  With retransmission-class timers routed
    through :meth:`push_timer` the ratio collapses, because cancelled
    timers die in the wheel (``wheel.cancelled_killed``) instead of being
    popped.  Heap-resident cancellations are compacted away in place when
    they cross :data:`COMPACT_MIN_CANCELLED` and half the heap depth.
    """

    __slots__ = ("_heap", "_live", "_heap_cancelled", "popped_live",
                 "skipped_cancelled", "compactions", "compacted_events",
                 "wheel")

    def __init__(self) -> None:
        #: entries ``(time, priority, seq, fn, args, handle)``
        self._heap: list[tuple] = []
        self._live = 0
        self._heap_cancelled = 0
        self.popped_live = 0
        self.skipped_cancelled = 0
        self.compactions = 0
        self.compacted_events = 0
        self.wheel = HierarchicalTimerWheel()

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------
    def push(self, event: Event) -> None:
        """Heap the entry of a cancellable ``event``."""
        _heappush(self._heap, (event.time, event.priority, event.seq,
                               event.fn, event.args, event))
        self._live += 1

    def push_timer(self, event: Event) -> None:
        """Route a cancel-heavy timer event through the wheel."""
        if self.wheel.insert(event):
            self._live += 1
        else:
            self.push(event)

    # ------------------------------------------------------------------
    # cancellation bookkeeping
    # ------------------------------------------------------------------
    def note_cancel_event(self, ev: Event) -> None:
        """Cancellation with the event in hand: wheel kills are O(1)."""
        self._live -= 1
        if ev.wheeled:
            self.wheel.note_cancel(ev)
        else:
            self._heap_cancelled += 1
            if (
                self._heap_cancelled >= COMPACT_MIN_CANCELLED
                and self._heap_cancelled * 2 >= len(self._heap)
            ):
                self._compact()

    def _compact(self) -> None:
        """Rebuild the heap in place, shedding cancelled entries.

        In-place (``heap[:] = ...``) so aliases held by the inlined run
        loop stay valid.
        """
        heap = self._heap
        depth = len(heap)
        heap[:] = [e for e in heap if e[5] is None or not e[5].cancelled]
        _heapify(heap)
        self._heap_cancelled = 0
        self.compactions += 1
        self.compacted_events += depth - len(heap)

    # ------------------------------------------------------------------
    # extraction
    # ------------------------------------------------------------------
    def _front(self) -> Optional[tuple]:
        """Expose the global earliest live entry at ``_heap[0]``.

        Skips cancelled heap tops and flushes the wheel just far enough to
        guarantee no parked timer could precede the heap top.  Returns the
        entry (still heap-resident) or None when nothing is pending.
        """
        heap = self._heap
        wheel = self.wheel
        while True:
            while heap:
                handle = heap[0][5]
                if handle is None or not handle.cancelled:
                    break
                _heappop(heap)
                self.skipped_cancelled += 1
                if self._heap_cancelled > 0:
                    self._heap_cancelled -= 1
            if not wheel.live:
                return heap[0] if heap else None
            if heap:
                top = heap[0]
                t = top[0]
                if t < wheel.flushed_until:
                    return top
                # flush only as far as the earliest contender requires;
                # min_start is the cached earliest occupied-bucket start
                start = wheel.min_start
                if t < start:
                    return top
                wheel.advance(start if start < t else t, self)
            else:
                start = wheel.min_start
                if start == float("inf"):
                    # cache says empty but live > 0 would contradict it;
                    # recompute defensively before concluding
                    if wheel.min_occupied_start() is None:
                        return None
                    start = wheel.min_start
                wheel.advance(start, self)

    def pop(self) -> Optional[tuple]:
        """Pop the earliest non-cancelled entry, or None if empty."""
        entry = self._front()
        if entry is None:
            return None
        _heappop(self._heap)
        self._live -= 1
        self.popped_live += 1
        handle = entry[5]
        if handle is not None:
            handle.fn = None  # fired: a later cancel() is a no-op
        return entry

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next live event, or None."""
        entry = self._front()
        return entry[0] if entry is not None else None

    # ------------------------------------------------------------------
    @property
    def heap_depth(self) -> int:
        """Physical heap size, cancelled entries included."""
        return len(self._heap)

    @property
    def lazy_deletion_ratio(self) -> float:
        """Fraction of heap pops that discarded a cancelled event."""
        total = self.popped_live + self.skipped_cancelled
        return self.skipped_cancelled / total if total else 0.0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0


class RepeatingEvent:
    """Cancellable handle for :meth:`Simulator.call_each`.

    Each tick reschedules internally, so a raw :class:`Event` handle would
    go stale after the first interval (cancelling it then leaked the live
    tick).  This handle always tracks the *current* pending event, so
    :meth:`cancel` — directly or via :meth:`Simulator.cancel` — stops the
    chain no matter how many ticks have fired.
    """

    __slots__ = ("sim", "interval", "fn", "args", "cancelled", "_event")

    def __init__(self, sim: "Simulator", interval: float,
                 fn: Callable[..., Any], args: tuple) -> None:
        self.sim = sim
        self.interval = interval
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._event: Optional[Event] = sim.schedule_timer(interval, self._tick)

    def _tick(self) -> None:
        self._event = None
        if self.cancelled:
            return
        if self.fn(*self.args) is False:
            self.cancelled = True
            return
        self._event = self.sim.schedule_timer(self.interval, self._tick)

    def cancel(self) -> None:
        """Stop the chain: the live pending tick is cancelled (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._event is not None:
            self.sim.cancel(self._event)
            self._event = None

    @property
    def armed(self) -> bool:
        """True while a future tick is scheduled."""
        return not self.cancelled and self._event is not None


class Simulator:
    """The global virtual clock and event dispatcher.

    A simulator instance is the root object of every experiment: networks,
    hosts, protocol sessions and workloads all hold a reference to one
    ``Simulator`` and schedule their behaviour through it.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1.5
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._seq = 0
        self._running = False
        self._stopped = False
        self.events_dispatched = 0
        # Imported here: repro.sim.clock is dependency-free, but keeping
        # the import local preserves this module's zero-import hot path.
        from repro.sim.clock import SimClock

        #: this simulator's time domain as an injectable Clock — what the
        #: transport layer hands to code that must not care whether it is
        #: running on virtual or wall time
        self.clock = SimClock(self)

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def next_event_time(self) -> Optional[float]:
        """Absolute time of the earliest live pending event, or None.

        A pure peek (cancelled heap tops are lazily discarded, wheel
        buckets are flushed only as far as an ordinary pop would).  The
        realtime driver uses this to sleep exactly until the next
        simulated obligation instead of polling.
        """
        return self._queue.peek_time()

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, fn, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past (t={time} < now={self._now})"
            )
        self._seq = seq = self._seq + 1
        ev = Event(time, priority, seq, fn, args)
        q = self._queue
        q._live += 1
        _heappush(q._heap, (time, priority, seq, fn, args, ev))
        return ev

    def schedule_timer(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule a *cancel-heavy* timer expiry ``delay`` seconds out.

        Routed through the hierarchical timer wheel: the wheel parks the
        handle and builds its heap entry only when the timer becomes
        imminent, so a timer cancelled before then dies in O(1) without
        heap contact.  Firing order is bit-identical to :meth:`schedule`.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        ev = Event(self._now + delay, priority, self._seq, fn, args)
        self._queue.push_timer(ev)
        return ev

    def schedule_transient(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """Schedule a fire-and-forget event: no handle, no record.

        For hot-path events that always fire (link landings, CPU
        completions, cross-shard arrivals): ordered exactly like
        :meth:`schedule`, but the heap entry is all there is — nothing is
        returned, so nothing can cancel it.  Use :meth:`schedule` when
        the caller needs a handle.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq = seq = self._seq + 1
        q = self._queue
        q._live += 1
        _heappush(q._heap, (self._now + delay, priority, seq, fn, args, None))

    def schedule_transient_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """Absolute-time variant of :meth:`schedule_transient`."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past (t={time} < now={self._now})"
            )
        self._seq = seq = self._seq + 1
        q = self._queue
        q._live += 1
        _heappush(q._heap, (time, priority, seq, fn, args, None))

    def cancel(self, event) -> None:
        """Cancel a previously scheduled event (idempotent).

        Accepts plain :class:`Event` handles and the :class:`RepeatingEvent`
        handles returned by :meth:`call_each`.  A handle that has already
        fired or been cancelled is left alone.
        """
        if isinstance(event, RepeatingEvent):
            event.cancel()
            return
        if event.fn is not None and not event.cancelled:
            event.cancelled = True
            self._queue.note_cancel_event(event)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _dispatch_instrumented(self, fn: Callable[..., Any], args: tuple) -> None:
        """Telemetry-enabled dispatch: per-handler wall profiling + spans."""
        name = getattr(fn, "__qualname__", None) or type(fn).__name__
        w0 = perf_counter()
        fn(*args)
        wall = perf_counter() - w0
        t = _TELEMETRY
        m = t.metrics
        m.counter("kernel_events_dispatched_total",
                  help="events the kernel has dispatched").inc()
        m.histogram("kernel_handler_seconds", labels={"handler": name},
                    help="wall-clock seconds per handler invocation").observe(wall)
        q = self._queue
        m.gauge("kernel_heap_depth",
                help="physical heap size incl. cancelled events").set(float(q.heap_depth))
        m.gauge("kernel_pending_events",
                help="live (non-cancelled) scheduled events").set(float(len(q)))
        m.gauge("kernel_lazy_deletion_ratio",
                help="fraction of heap pops discarding a cancelled event"
                ).set(q.lazy_deletion_ratio)
        m.gauge("kernel_wheel_pending",
                help="live timers parked in the hierarchical wheel"
                ).set(float(q.wheel.live))
        m.gauge("kernel_wheel_cancelled_total",
                help="timers killed O(1) in the wheel, no heap contact"
                ).set(float(q.wheel.cancelled_killed))
        t.complete(f"kernel:{name}", "kernel", self._now, self._now,
                   wall_us=wall * 1e6)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, so back-to-back ``run`` calls
        compose naturally in phased experiments.

        The dispatch loop is inlined: the queue internals are hoisted
        into locals and dispatch counters are batched (flushed exactly on
        loop exit and whenever the slower telemetry path runs).  Events
        fire in ``(time, priority, seq)`` order.  With telemetry disabled
        (the default) the only instrumentation cost is one ``enabled``
        test per event, which ``benchmarks/test_obs_overhead.py`` bounds.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        self._stopped = False
        q = self._queue
        front = q._front
        heap = q._heap
        wheel = q.wheel
        tele = _TELEMETRY
        budget = -1 if max_events is None else max_events
        n = 0          # total dispatched this run
        counted = 0    # prefix already committed to the dispatch counters
        try:
            while not self._stopped and n != budget:
                # fast path: a live heap top that provably precedes every
                # parked timer can be taken without consulting the wheel
                entry = heap[0] if heap else None
                if entry is None or (
                        entry[5] is not None and entry[5].cancelled) or (
                        wheel.live
                        and entry[0] >= wheel.flushed_until
                        and entry[0] >= wheel.min_start):
                    entry = front()
                    if entry is None:
                        break
                t, _, _, fn, args, handle = entry
                if until is not None and t > until:
                    break
                _heappop(heap)
                q._live -= 1
                self._now = t
                if handle is not None:
                    handle.fn = None  # fired: a later cancel() is a no-op
                if tele.enabled:
                    # slow, exact branch: flush batched counters first so
                    # instrumentation gauges read true values
                    fast = n - counted
                    if fast:
                        self.events_dispatched += fast
                        q.popped_live += fast
                    counted = n + 1
                    q.popped_live += 1
                    self.events_dispatched += 1
                    self._dispatch_instrumented(fn, args)
                else:
                    fn(*args)
                n += 1
            if until is not None and not self._stopped and self._now < until:
                self._now = until
        finally:
            fast = n - counted
            if fast:
                self.events_dispatched += fast
                q.popped_live += fast
            self._running = False

    def run_until_horizon(
        self, horizon: float, max_events: Optional[int] = None
    ) -> None:
        """Run every pending event *strictly before* ``horizon``.

        The conservative-parallel epoch API (see ``docs/sharding.md``):
        a shard worker may only execute events it can prove are unaffected
        by messages still in flight from other shards.  With lookahead
        ``L = min`` boundary-link delay and global minimum next-event time
        ``N``, every cross-shard message generated this epoch arrives at
        ``>= N + L``, so events with ``t < N + L`` are safe — the bound is
        *exclusive*, because an event exactly at the horizon could race an
        inbound message timestamped there.

        Implemented as ``run(until=nextafter(horizon, -inf))``: floats are
        totally ordered with no value between ``nextafter(horizon)`` and
        ``horizon``, so the inclusive fast loop runs exactly the events
        with ``t < horizon`` and the hot dispatch path needs no extra
        per-event comparison.  Afterwards :attr:`now` sits just below the
        horizon; :meth:`schedule_at` therefore accepts injected arrivals
        at exactly ``horizon``.
        """
        self.run(until=math.nextafter(horizon, -math.inf), max_events=max_events)

    def stop(self) -> None:
        """Request that the current :meth:`run` loop return after this event."""
        self._stopped = True

    def pending(self) -> int:
        """Number of live (non-cancelled) scheduled events."""
        return len(self._queue)

    def pending_callbacks(self) -> Iterator[Callable[..., Any]]:
        """Callbacks of all live events, unordered (``check_quiescent``)."""
        q = self._queue
        for _, _, _, fn, _, handle in q._heap:
            if handle is None or not handle.cancelled:
                yield fn
        for buckets in q.wheel._buckets:
            for bucket in buckets.values():
                for ev in bucket:
                    if not ev.cancelled:
                        yield ev.fn

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def call_each(
        self, interval: float, fn: Callable[..., Any], *args: Any
    ) -> RepeatingEvent:
        """Schedule ``fn`` every ``interval`` seconds until it returns False.

        Returns a :class:`RepeatingEvent` whose :meth:`~RepeatingEvent.cancel`
        always stops the chain — unlike a raw Event handle, it tracks the
        live tick across internal reschedules.
        """
        if interval <= 0:
            raise SimulationError("interval must be positive")
        return RepeatingEvent(self, interval, fn, args)

    def drain(self, events: Iterable[Event]) -> None:
        """Cancel a collection of events (helper for teardown paths)."""
        for ev in events:
            self.cancel(ev)
