"""The epoch rule every shard worker applies is the old coordinator's loop.

The barrier moved from the parent process into the workers: each epoch
every shard reports ``(next_event_time, earliest arrival it put in
flight, events dispatched)`` to every other, and each applies
:func:`repro.shard.worker.next_horizon` to the same reports.  The
horizons it runs, its epoch and stall counts, and the errors it raises
must be those of the coordinator loop it replaced, kept as the oracle in
``tests/oracles/reference_barrier.py``.  Both are driven here from one
drawn script: per shard, a first next-event time and then, per epoch,
the next-event time it reports, the arrivals it ships, and the events it
dispatched.
"""

from typing import List, Optional

import pytest
from hypothesis import given, strategies as st

from repro.shard.worker import START, ShardSyncError, next_horizon
from tests.oracles.reference_barrier import coordinator_horizons

#: a few shared instants make ties and stalled horizons likely
TIMES = st.one_of(
    st.none(),
    st.sampled_from([0.0, 0.01, 0.02, 0.05, 0.1]),
    st.floats(0.0, 2.0, allow_nan=False),
)
ARRIVALS = st.one_of(st.sampled_from([0.01, 0.05, 0.1]),
                     st.floats(0.0, 2.0, allow_nan=False))


class Script:
    """One drawn world: what each shard reports before and after each epoch."""

    def __init__(self, start, steps) -> None:
        self.start = start
        self.steps = steps
        self.n = len(start)

    def step(self, i: int, k: int):
        """Shard ``i`` after epoch ``k``: (next_t, outbox, events in it);
        past the end of its script a shard is idle."""
        steps = self.steps[i]
        return steps[k] if k < len(steps) else (None, [], 0)


@st.composite
def scripts(draw):
    n = draw(st.integers(2, 4))
    start = [draw(TIMES) for _ in range(n)]
    outbox = st.lists(st.tuples(st.integers(0, n - 1),
                                st.tuples(ARRIVALS)), max_size=3)
    steps = [draw(st.lists(st.tuples(TIMES, outbox, st.integers(0, 2)),
                           max_size=12))
             for _ in range(n)]
    return Script(start, steps)


class ScriptedTeam:
    """The old worker side of the pipe protocol, replaying a script."""

    def __init__(self, script: Script) -> None:
        self.script = script
        self.epoch = 0
        self.events = [0] * script.n

    def recv(self, i: int):
        return ("ready", i, self.script.start[i])

    def send(self, i: int, msg) -> None:
        assert msg[0] == "epoch"

    def gather(self):
        replies = []
        for i in range(self.script.n):
            next_t, outbox, events = self.script.step(i, self.epoch)
            self.events[i] += events
            replies.append(("state", next_t, outbox, self.events[i]))
        self.epoch += 1
        return replies


def peer_horizons(script: Script, until: float, lookahead: float):
    """The same world run by the workers' exchange: every shard reports to
    every other and each applies the rule to the same reports."""
    reports = [(script.start[i], None, 0) for i in range(script.n)]
    events = [0] * script.n
    state, horizons, k = START, [], 0
    while True:
        horizon, after = next_horizon(state, reports, until, lookahead)
        # every worker holds the same reports: their order is immaterial
        assert next_horizon(state, reports[::-1], until, lookahead) \
            == (horizon, after)
        state = after
        if horizon is None:
            return horizons, state[0], state[1]
        horizons.append(horizon)
        reports = []
        for i in range(script.n):
            next_t, outbox, dispatched = script.step(i, k)
            events[i] += dispatched
            earliest = min((m[0] for _dst, m in outbox), default=None)
            reports.append((next_t, earliest, events[i]))
        k += 1


def outcome(run, *args):
    try:
        return run(*args)
    except ShardSyncError as exc:
        return ("ShardSyncError", str(exc))


@given(script=scripts(),
       until=st.floats(0.01, 2.0),
       lookahead=st.one_of(st.sampled_from([1e-3, 5e-3, 0.01, 0.1]),
                           st.floats(1e-4, 0.5)))
def test_rule_runs_the_coordinators_horizons(script, until, lookahead):
    oracle = outcome(coordinator_horizons, ScriptedTeam(script), script.n,
                     until, lookahead)
    assert outcome(peer_horizons, script, until, lookahead) == oracle


def test_a_horizon_that_never_advances_is_a_wedged_barrier():
    # two shards forever at t = 0 that dispatch nothing
    script = Script([0.0, 0.0], [[(0.0, [], 0)] * 5] * 2)
    with pytest.raises(ShardSyncError, match="wedged barrier"):
        peer_horizons(script, 1.0, 1e-3)


def test_stalls_that_dispatch_events_are_counted_not_fatal():
    script = Script([0.0, 0.0],
                    [[(0.0, [], 1), (0.0, [], 1), (None, [], 1)]] * 2)
    assert peer_horizons(script, 1.0, 1e-3) == ([1e-3, 1e-3, 1e-3], 3, 2)


def test_rule_reports_done_when_nothing_is_left_anywhere():
    reports: List[tuple] = [(None, None, 7), (None, None, 3)]
    assert next_horizon(START, reports, 1.0, 0.01) == (None, START)


def test_in_flight_arrival_holds_the_horizon_back():
    reports: List[tuple] = [(0.5, 0.2, 0), (None, None, 0)]
    horizon, state = next_horizon(START, reports, 1.0, 0.01)
    assert horizon == 0.2 + 0.01 and state[:3] == (1, 0, 0.2)


def test_final_stretch_starts_when_the_horizon_passes_until():
    none: Optional[float] = None
    assert next_horizon(START, [(0.995, none, 0), (2.0, none, 0)], 1.0,
                        0.01)[0] is None
