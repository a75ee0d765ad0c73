"""Property: the kernel fires the live occurrences in specification order.

Hypothesis draws a *program* — scheduling calls of every kind,
cancellations of pending, fired and already cancelled handles, events that
cancel or schedule from inside the run loop — executed in phases of
``run(until=…)``, ``run(max_events=…)`` and ``run_until_horizon``.  The
program runs twice: on a :class:`Simulator` and on :class:`Spec`, a
reference that knows nothing about heaps or wheels and simply fires
``min(live, key=(time, priority, schedule order))``.  Traces, clocks and
live counts must agree at every step.

Delays collide on purpose and straddle every wheel level; callbacks are
fresh closures and their arguments dicts, neither of which can be
ordered, so a heap comparison that ever reached past ``seq`` would raise
``TypeError`` instead of passing by luck.
"""

import math
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import kernel
from repro.sim.kernel import Simulator
from repro.unites.obs.telemetry import TELEMETRY

#: zero, sub-granule, each wheel level's span (1/1024 s x 64 per level),
#: and repeats so same-time ties are common
DELAYS = (0.0, 0.0, 0.0004, 0.001, 0.001, 0.002, 0.03, 0.0625, 0.07,
          0.5, 0.5, 4.0, 5.0, 300.0)
PRIORITIES = (-1, 0, 0, 0, 1)
HANDLED = ("schedule", "schedule_at", "schedule_timer")
#: wheel timers repeated: parked timers that must interleave with heap
#: events at the same instant are the hard case
KINDS = HANDLED + ("schedule_transient", "schedule_transient_at",
                   "schedule_timer")

PENDING, FIRED, CANCELLED = "pending", "fired", "cancelled"

_delay = st.sampled_from(DELAYS)
_prio = st.sampled_from(PRIORITIES)
_index = st.integers(0, 1 << 16)
_op = st.one_of(
    st.tuples(st.just("add"), st.sampled_from(KINDS), _delay, _prio),
    # an event whose callback cancels a handle / schedules a child
    st.tuples(st.just("add_canceller"), st.sampled_from(KINDS), _delay, _prio,
              _index),
    st.tuples(st.just("add_spawner"), st.sampled_from(KINDS), _delay, _prio,
              _delay),
    st.tuples(st.just("cancel"), _index),
    st.tuples(st.just("peek")),
    st.tuples(st.just("run_until"), _delay),
    st.tuples(st.just("run_horizon"), _delay),
    st.tuples(st.just("run_max"), st.integers(0, 5)),
)


class Spec:
    """The specification: a list, ``min`` and nothing else."""

    def __init__(self):
        self.now = 0.0
        self.records = []  # [time, priority, state, on_fire]; index = order

    def add(self, time, priority, on_fire=None):
        self.records.append([time, priority, PENDING, on_fire])
        return len(self.records) - 1

    def cancel(self, rid):
        if self.records[rid][2] == PENDING:
            self.records[rid][2] = CANCELLED

    def live(self):
        return [rid for rid, rec in enumerate(self.records)
                if rec[2] == PENDING]

    def next_time(self):
        live = self.live()
        return min(self.records[rid][0] for rid in live) if live else None

    def run(self, until=None, max_events=None):
        fired = []
        while max_events is None or len(fired) < max_events:
            live = self.live()
            if not live:
                break
            rid = min(live, key=lambda r: (*self.records[r][:2], r))
            rec = self.records[rid]
            if until is not None and rec[0] > until:
                break
            rec[2] = FIRED
            self.now = rec[0]
            fired.append(rid)
            if rec[3] is not None:
                what, arg = rec[3]
                if what == "cancel":
                    self.cancel(arg)
                else:
                    self.add(self.now + arg, 0)
        if until is not None and self.now < until:
            self.now = until
        return fired


class Harness:
    """Applies each op to the simulator and the spec in lock step."""

    def __init__(self):
        self.sim = Simulator()
        self.spec = Spec()
        self.trace = []
        self.handles = {}  # rid -> Event, cancellable kinds only
        self.scheduled = 0  # mirrors len(spec.records) while sim runs ahead

    def _callback(self, rid, on_fire):
        sim, trace, handles = self.sim, self.trace, self.handles

        def fire(tag):  # a fresh closure per event: unorderable
            trace.append(tag["rid"])
            if on_fire is None:
                return
            what, arg = on_fire
            if what == "cancel":
                sim.cancel(handles[arg])
            else:
                child = self.scheduled  # the id the spec will give it
                self.scheduled += 1
                sim.schedule_transient(arg, self._callback(child, None),
                                       {"rid": child})

        return fire

    def add(self, kind, delay, priority, on_fire=None):
        sim = self.sim
        time = sim.now + delay
        rid = self.spec.add(time, priority, on_fire)
        self.scheduled += 1
        fn, tag = self._callback(rid, on_fire), {"rid": rid}
        when = time if kind.endswith("_at") else delay
        handle = getattr(sim, kind)(when, fn, tag, priority=priority)
        if kind in HANDLED:
            self.handles[rid] = handle
        else:
            assert handle is None

    def pick_handle(self, index):
        rids = sorted(self.handles)
        return rids[index % len(rids)] if rids else None

    def step(self, op):
        sim, spec = self.sim, self.spec
        name, args = op[0], op[1:]
        if name == "add":
            self.add(*args)
        elif name == "add_canceller":
            target = self.pick_handle(args[3])
            self.add(*args[:3], None if target is None else ("cancel", target))
        elif name == "add_spawner":
            self.add(*args[:3], ("spawn", args[3]))
        elif name == "cancel":
            target = self.pick_handle(args[0])
            if target is not None:
                sim.cancel(self.handles[target])
                spec.cancel(target)
        elif name == "peek":
            assert sim.next_event_time() == spec.next_time()
        else:
            before = len(self.trace)
            if name == "run_until":
                until = sim.now + args[0]
                sim.run(until=until)
                expected = spec.run(until=until)
            elif name == "run_horizon":
                horizon = sim.now + args[0]
                sim.run_until_horizon(horizon)
                expected = spec.run(until=math.nextafter(horizon, -math.inf))
            else:
                sim.run(max_events=args[0])
                expected = spec.run(max_events=args[0])
            assert self.trace[before:] == expected
            assert sim.now == spec.now
        assert sim.pending() == len(spec.live())

    def finish(self):
        before = len(self.trace)
        self.sim.run()
        assert self.trace[before:] == self.spec.run()
        assert self.sim.now == self.spec.now
        assert self.sim.pending() == 0
        assert self.sim.events_dispatched == len(self.trace)
        assert self.scheduled == len(self.spec.records)


@settings(deadline=None)
@given(program=st.lists(_op, max_size=60), telemetry=st.booleans())
# the link's tie rule leans on this: a lower priority scheduled later, at
# the same instant, still fires first
@example(program=[("add", "schedule_transient_at", 0.03, 0),
                  ("add", "schedule_transient_at", 0.03, -1)],
         telemetry=False)
def test_fired_trace_equals_specification(program, telemetry):
    # a low compaction threshold so short programs reach heap compaction
    with mock.patch.object(kernel, "COMPACT_MIN_CANCELLED", 3):
        harness = Harness()
        if telemetry:  # the instrumented dispatch branch, same contract
            TELEMETRY.enable(sim=harness.sim)
        try:
            for op in program:
                harness.step(op)
            harness.finish()
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
