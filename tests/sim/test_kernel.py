"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.kernel import (
    COMPACT_MIN_CANCELLED,
    Event,
    EventQueue,
    RepeatingEvent,
    SimulationError,
    Simulator,
)


class TestEventQueue:
    """Entries are ``(time, priority, seq, fn, args, handle)`` tuples."""

    def test_pop_orders_by_time(self):
        q = EventQueue()
        for i, t in enumerate([3.0, 1.0, 2.0]):
            q.push(Event(t, 0, i, lambda: None, ()))
        assert [q.pop()[0] for _ in range(3)] == [1.0, 2.0, 3.0]

    def test_priority_breaks_time_ties(self):
        q = EventQueue()
        q.push(Event(1.0, 5, 1, lambda: None, ()))
        q.push(Event(1.0, 0, 2, lambda: None, ()))
        assert q.pop()[1] == 0

    def test_seq_breaks_full_ties_fifo(self):
        q = EventQueue()
        q.push(Event(1.0, 0, 10, lambda: None, ()))
        q.push(Event(1.0, 0, 11, lambda: None, ()))
        assert q.pop()[2] == 10

    def test_cancelled_events_are_skipped(self, sim):
        e1 = sim.schedule(1.0, lambda: None)
        e2 = sim.schedule(2.0, lambda: None)
        sim.cancel(e1)
        q = sim._queue
        assert q.pop()[5] is e2
        assert q.pop() is None

    def test_len_tracks_live_events(self, sim):
        e = sim.schedule(1.0, lambda: None)
        q = sim._queue
        assert len(q) == 1
        sim.cancel(e)
        assert len(q) == 0
        assert not q

    def test_peek_time_skips_cancelled(self, sim):
        e1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(e1)
        assert sim._queue.peek_time() == 2.0


class TestSimulator:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_schedule_and_run(self, sim):
        out = []
        sim.schedule(1.0, out.append, "x")
        sim.run()
        assert out == ["x"]
        assert sim.now == 1.0

    def test_execution_order(self, sim):
        out = []
        sim.schedule(2.0, out.append, 2)
        sim.schedule(1.0, out.append, 1)
        sim.schedule(3.0, out.append, 3)
        sim.run()
        assert out == [1, 2, 3]

    def test_same_time_fifo(self, sim):
        out = []
        for i in range(5):
            sim.schedule(1.0, out.append, i)
        sim.run()
        assert out == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_run_until_advances_clock_exactly(self, sim):
        sim.schedule(0.3, lambda: None)
        sim.run(until=2.0)
        assert sim.now == 2.0

    def test_run_until_excludes_later_events(self, sim):
        out = []
        sim.schedule(1.0, out.append, "early")
        sim.schedule(5.0, out.append, "late")
        sim.run(until=2.0)
        assert out == ["early"]
        sim.run()
        assert out == ["early", "late"]

    def test_run_until_includes_boundary(self, sim):
        out = []
        sim.schedule(2.0, out.append, "edge")
        sim.run(until=2.0)
        assert out == ["edge"]

    def test_cancel(self, sim):
        out = []
        ev = sim.schedule(1.0, out.append, "no")
        sim.cancel(ev)
        sim.run()
        assert out == []
        assert sim.pending() == 0

    def test_cancel_idempotent(self, sim):
        ev = sim.schedule(1.0, lambda: None)
        sim.cancel(ev)
        sim.cancel(ev)
        assert sim.pending() == 0

    def test_cancel_after_fire_is_a_noop(self, sim):
        # used to drive the live count negative: pending() raised
        # ValueError and a later event left the queue falsy
        ev = sim.schedule(1.0, lambda: None)
        sim.run()
        sim.cancel(ev)
        assert sim.pending() == 0
        sim.schedule(1.0, lambda: None)
        assert sim.pending() == 1
        assert sim._queue
        assert sim._queue._heap_cancelled == 0

    def test_callback_cancelling_its_own_handle_is_a_noop(self, sim):
        box = []
        box.append(sim.schedule(1.0, lambda: sim.cancel(box[0])))
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        assert sim.pending() == 1

    def test_events_scheduled_during_run(self, sim):
        out = []

        def chain(n):
            out.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(1.0, chain, 0)
        sim.run()
        assert out == [0, 1, 2, 3]
        assert sim.now == 4.0

    def test_stop_inside_run(self, sim):
        out = []
        sim.schedule(1.0, lambda: (out.append(1), sim.stop()))
        sim.schedule(2.0, out.append, 2)
        sim.run()
        assert out == [1]
        sim.run()
        assert out == [1, 2]

    def test_max_events(self, sim):
        out = []
        for i in range(10):
            sim.schedule(float(i + 1), out.append, i)
        sim.run(max_events=4)
        assert len(out) == 4

    def test_not_reentrant(self, sim):
        def nested():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(1.0, nested)
        sim.run()

    def test_events_dispatched_counter(self, sim):
        for i in range(7):
            sim.schedule(0.1 * (i + 1), lambda: None)
        sim.run()
        assert sim.events_dispatched == 7

    def test_call_each_stops_on_false(self, sim):
        out = []

        def tick():
            out.append(sim.now)
            return len(out) < 3

        sim.call_each(1.0, tick)
        sim.run()
        assert out == [1.0, 2.0, 3.0]

    def test_call_each_rejects_nonpositive_interval(self, sim):
        with pytest.raises(SimulationError):
            sim.call_each(0.0, lambda: None)

    def test_priority_order_same_time(self, sim):
        out = []
        sim.schedule(1.0, out.append, "normal", priority=1)
        sim.schedule(1.0, out.append, "urgent", priority=0)
        sim.run()
        assert out == ["urgent", "normal"]

    def test_drain(self, sim):
        evs = [sim.schedule(1.0, lambda: None) for _ in range(3)]
        sim.drain(evs)
        assert sim.pending() == 0

    def test_determinism_across_instances(self):
        def build():
            s = Simulator()
            out = []
            for i in range(20):
                s.schedule(((i * 7) % 5) * 0.1, out.append, i)
            s.run()
            return out

        assert build() == build()


class TestFastPath:
    """The wheel/entry-tuple/compaction fast path."""

    def test_firing_order_identical_to_legacy(self, sim):
        # timers + transients + plain events with heavy cancellation: the
        # wheel and the heap together must fire exactly the
        # live events, in (time, priority, schedule order) — the order
        # the heap-only kernel defined.  All priorities are equal here
        # and delays repeat every 23 steps, so ties fall to schedule order.
        trace, live = [], []

        def tag(label):
            trace.append((sim.now, label))

        for i in range(40):
            delay = 0.01 + (i * 37 % 23) * 0.07
            h = sim.schedule_timer(delay, tag, f"timer{i}")
            sim.schedule(delay + 0.001, tag, f"plain{i}")
            sim.schedule_transient(delay + 0.002, tag, f"transient{i}")
            # cancel most timers at staggered times, always pre-expiry
            if i % 4:
                sim.schedule(delay * (i % 3 + 1) / 4.0, sim.cancel, h)
            else:
                live.append((delay, f"timer{i}"))
            live.append((delay + 0.001, f"plain{i}"))
            live.append((delay + 0.002, f"transient{i}"))
        sim.run()
        # sorted() is stable: equal times keep schedule order
        assert trace == sorted(live, key=lambda fired: fired[0])

    def test_schedule_timer_routes_through_wheel(self, sim):
        out = []
        sim.schedule_timer(1.0, out.append, "t")
        assert sim._queue.wheel.inserted == 1
        assert sim._queue.heap_depth == 0  # parked, not heaped
        sim.run()
        assert out == ["t"]
        assert sim._queue.wheel.flushed == 1

    def test_wheel_cancel_is_heapless(self, sim):
        ev = sim.schedule_timer(1.0, lambda: None)
        sim.cancel(ev)
        assert sim._queue.wheel.cancelled_killed == 1
        assert sim._queue.heap_depth == 0
        sim.run()
        assert sim.events_dispatched == 0
        assert sim.now == 0.0

    def test_wheel_cancelled_timer_performs_zero_heap_pushes(self, sim):
        handles = [sim.schedule_timer(0.5 + i * 0.01, lambda: None)
                   for i in range(50)]
        for h in handles:
            sim.cancel(h)
        sim.run(until=2.0)  # drains every bucket the timers were parked in
        q = sim._queue
        assert q.wheel.cancelled_killed == 50
        assert q.wheel.flushed == 0
        assert q.heap_depth == 0
        assert q.popped_live == q.skipped_cancelled == 0

    def test_event_defines_no_rich_comparison(self):
        # the heap orders entry tuples on (time, priority, seq) in C;
        # nothing may compare handles
        for op in ("__lt__", "__le__", "__gt__", "__ge__"):
            assert getattr(Event, op) is getattr(object, op)
        a, b = Event(1.0, 0, 1, None, ()), Event(2.0, 0, 2, None, ())
        with pytest.raises(TypeError):
            a < b

    def test_transient_scheduling_returns_no_handle(self, sim):
        assert sim.schedule_transient(0.5, lambda: None) is None
        assert sim.schedule_transient_at(0.5, lambda: None) is None
        sim.run()
        assert sim.events_dispatched == 2

    def test_stale_timer_handle_cannot_cancel_a_later_timer(self, sim):
        # with pooled records the stale handle *was* the later timer's
        # record, and cancelling it silenced a stranger
        out = []
        stale = sim.schedule_timer(1.0, out.append, "first")
        sim.run()
        later = sim.schedule_timer(1.0, out.append, "second")
        assert later is not stale
        sim.cancel(stale)
        sim.run()
        assert out == ["first", "second"]
        assert sim.pending() == 0

    def test_heap_compaction_purges_cancelled_backlog(self, sim):
        n = COMPACT_MIN_CANCELLED * 2
        handles = [sim.schedule(1.0 + i * 0.001, lambda: None)
                   for i in range(n)]
        for h in handles[: n // 2 + 1]:
            sim.cancel(h)
        q = sim._queue
        assert q.compactions >= 1
        assert q.heap_depth < n  # cancelled records physically removed
        sim.run()
        assert sim.events_dispatched == n - (n // 2 + 1)

    def test_repeating_event_fires_and_cancels(self, sim):
        out = []
        rep = sim.call_each(1.0, lambda: out.append(sim.now))
        assert isinstance(rep, RepeatingEvent)
        sim.run(until=3.5)
        assert out == [1.0, 2.0, 3.0]
        assert rep.armed
        rep.cancel()
        rep.cancel()  # idempotent
        assert not rep.armed
        sim.run()
        assert out == [1.0, 2.0, 3.0]

    def test_repeating_event_cancel_via_simulator(self, sim):
        out = []
        rep = sim.call_each(1.0, lambda: out.append(sim.now))
        sim.schedule(2.5, sim.cancel, rep)  # duck-typed cancel
        sim.run(until=10.0)
        assert out == [1.0, 2.0]

    def test_event_queue_push_timer_falls_back_to_heap(self):
        # an event inside the flushed horizon cannot park in the wheel
        q = EventQueue()
        q.wheel.flushed_until = 10.0
        ev = Event(5.0, 0, 1, lambda: None, ())
        q.push_timer(ev)
        assert not ev.wheeled
        assert q.heap_depth == 1
        assert q.pop()[5] is ev
