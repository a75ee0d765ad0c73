"""A sharded world fails loudly, at once, and leaves nothing behind.

The shard workers meet each other every epoch, not the coordinator, so
the parent's only job during a run is to watch.  A worker that dies or
raises must be named the moment it happens — not after the receive
timeout, and not as the peer left blocked on it — a barrier that stops
advancing must raise :class:`ShardSyncError`, and a worker that goes
quiet must be named as wedged.  After every run, failed or not, no child
process and no descriptor of the parent's outlives it.

Each test runs under a hard wall-clock cap (``SIGALRM``), so a hang
fails the test instead of the job.
"""

import multiprocessing
import os
import signal
import time
from time import perf_counter

import pytest

from repro.core.churn import (
    GroupedChurnScenario,
    TRUNK_DELAY,
    grouped_duration,
    run_sharded_churn,
)
from repro.shard.coordinator import ShardCoordinator, ShardSyncError
from repro.sweep.pool import WorkerCrashError

pytestmark = pytest.mark.skipif(not hasattr(signal, "SIGALRM"),
                                reason="POSIX signals")

N, GROUPS, SEED = 48, 4, 11
#: how soon a death or a crash must be named, with ``recv_timeout=60``
NAMED_WITHIN_S = 2.0


def _fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture
def capped_and_clean():
    """A 60 s hard cap, then: no child process, no parent descriptor left."""
    def _expired(signum, frame):
        raise TimeoutError("hard wall-clock cap reached")

    fds = _fd_count()
    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []
    assert _fd_count() == fds


# ---------------------------------------------------------------------------
# builders (module level: the workers call them by reference)
# ---------------------------------------------------------------------------
def _exit_now():
    os._exit(7)


def _raise_now():
    raise RuntimeError("boom in an epoch")


def build_failing_shard(shard_id: int, how: str, **kw) -> GroupedChurnScenario:
    """The churn world, with shard 1 dying or raising at t = 0.5 s."""
    runtime = GroupedChurnScenario(shard_id=shard_id, **kw)
    if shard_id == 1:
        runtime.sim.schedule(0.5, _exit_now if how == "exit" else _raise_now)
    return runtime


class _StubGateway:
    def __init__(self) -> None:
        self.received = 0

    def inject(self, messages) -> None:
        self.received += sum(len(m[-1]) for m in messages)

    def drain_outbox(self):
        return []

    def stats_dict(self):
        return {}


class _StubRuntime:
    """The three things a shard worker needs of its world."""

    def __init__(self, sim, gateway=None) -> None:
        self.sim = sim
        self.gateway = gateway or _StubGateway()

    def collect(self):
        return {"received": self.gateway.received}


class _StuckSim:
    """A kernel whose next event is always t = 0 and that never runs it."""

    events_dispatched = 0

    def next_event_time(self):
        return 0.0

    def run_until_horizon(self, horizon) -> None:
        pass

    def run(self, until) -> None:
        pass


def build_stuck_shard(shard_id: int) -> _StubRuntime:
    return _StubRuntime(_StuckSim())


class _ClockSim:
    """A kernel with one event at every horizon; it can hang mid-run."""

    def __init__(self, hang_at: float = -1.0) -> None:
        self.now = 0.0
        self.hang_at = hang_at
        self.events_dispatched = 0

    def next_event_time(self):
        return self.now

    def run_until_horizon(self, horizon) -> None:
        if 0 <= self.hang_at <= self.now:
            time.sleep(3600)
        self.now = horizon
        self.events_dispatched += 1

    def run(self, until) -> None:
        self.now = until


def build_silent_shard(shard_id: int) -> _StubRuntime:
    return _StubRuntime(_ClockSim(hang_at=0.05 if shard_id == 1 else -1))


BLOB = b"x" * (1 << 20)


class _BulkyGateway(_StubGateway):
    """Ships 1 MiB to the other shard every epoch, as the other does too."""

    def __init__(self, sim, shard_id: int) -> None:
        super().__init__()
        self.sim = sim
        self.shard_id = shard_id

    def drain_outbox(self):
        return [(1 - self.shard_id,
                 (self.sim.now + 0.01, 0, self.shard_id, 0, "x", BLOB))]


def build_bulky_shard(shard_id: int) -> _StubRuntime:
    sim = _ClockSim()
    return _StubRuntime(sim, _BulkyGateway(sim, shard_id))


def _failing_world(how: str, n_shards: int) -> ShardCoordinator:
    return ShardCoordinator(
        builder=build_failing_shard,
        builder_kw=dict(how=how, n_connections=N, n_groups=GROUPS, seed=SEED,
                        n_shards=n_shards),
        n_shards=n_shards, until=grouped_duration(N), lookahead=TRUNK_DELAY,
        recv_timeout=60.0,
    )


# ---------------------------------------------------------------------------
class TestNamedAtOnce:
    # at 4 shards the dead shard's three peers all lose it, and each must
    # still name it rather than one another
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_killed_shard_is_named_within_two_seconds(self, capped_and_clean,
                                                      n_shards):
        t0 = perf_counter()
        with pytest.raises(WorkerCrashError) as err:
            _failing_world("exit", n_shards).run()
        assert perf_counter() - t0 < NAMED_WITHIN_S
        assert err.value.task_id == "shard 1"
        assert "exit code 7" in err.value.detail

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_shard_that_raises_mid_epoch_is_named_within_two_seconds(
            self, capped_and_clean, n_shards):
        t0 = perf_counter()
        with pytest.raises(WorkerCrashError) as err:
            _failing_world("raise", n_shards).run()
        assert perf_counter() - t0 < NAMED_WITHIN_S
        assert err.value.task_id == "shard 1"
        assert "boom in an epoch" in err.value.detail

    def test_quiet_shard_is_named_as_wedged(self, capped_and_clean):
        # shard 0 keeps ticking while it waits on shard 1, so the one that
        # went quiet is the one named, one receive timeout later
        t0 = perf_counter()
        with pytest.raises(WorkerCrashError, match="wedged") as err:
            ShardCoordinator(builder=build_silent_shard, builder_kw={},
                             n_shards=2, until=1.0, lookahead=0.01,
                             recv_timeout=2.0).run()
        assert err.value.task_id == "shard 1"
        assert perf_counter() - t0 < 2.0 + NAMED_WITHIN_S


class TestBarrier:
    def test_horizon_that_never_advances_raises_sync_error(
            self, capped_and_clean):
        with pytest.raises(ShardSyncError, match="wedged barrier"):
            ShardCoordinator(builder=build_stuck_shard, builder_kw={},
                             n_shards=2, until=1.0, lookahead=1e-3,
                             recv_timeout=60.0).run()

    def test_large_epoch_messages_do_not_deadlock_the_exchange(
            self, capped_and_clean):
        out = ShardCoordinator(builder=build_bulky_shard, builder_kw={},
                               n_shards=2, until=0.1, lookahead=0.01,
                               recv_timeout=60.0).run()
        epochs = out["coordinator"]["epochs"]
        assert epochs > 5
        for shard in out["shards"]:
            # every epoch's megabyte but the final stretch's arrived
            assert shard["received"] == epochs * len(BLOB)

    def test_healthy_run_leaves_nothing_behind(self, capped_and_clean):
        out = run_sharded_churn(n_connections=N, n_shards=2, n_groups=GROUPS,
                                seed=SEED, recv_timeout=60.0)
        assert out["failed"] == 0 and out["coordinator"]["epochs"] > 0
