"""Sharded ≡ serial: the load-bearing guarantee of the parallel kernel.

One seed, one world.  Splitting the grouped churn topology across 2 or 4
kernel processes must reproduce the serial run bit-for-bit on every
receiver-observable quantity — the per-connection delivery digests, the
establishment/close/reopen counts, peak concurrency, and the final
simulated time.  These are the same identity fields the scale benchmark
gates in CI.
"""

import pytest

from repro.core.churn import (
    GroupedChurnScenario,
    grouped_duration,
    grouped_identity_fields,
    merge_conn_digests,
    run_grouped_churn,
    run_sharded_churn,
)
from repro.shard.coordinator import ShardCoordinator, ShardSyncError
from tests import golden
from tests.conftest import SETTLE_S, leaks

N = 48          # small but real: all four classes, crosses in every group
GROUPS = 4
SEED = 11


@pytest.fixture(scope="module")
def serial():
    return run_grouped_churn(n_connections=N, n_groups=GROUPS, seed=SEED)


class TestSerialGroupedScenario:
    def test_population_fully_processed(self, serial):
        assert serial["failed"] == 0
        assert serial["established"] > N          # reopens add extra opens
        assert serial["closed"] == serial["established"]
        assert serial["delivered"] > 0

    def test_nothing_outlives_its_session(self, serial):
        # at the horizon one initiator (A0:14) is still retrying a FIN
        # nobody answers: busyness, not a leak ...
        assert leaks(serial["quiescence"]) == []
        # ... and once its retries have run out, the world is quiescent
        s = GroupedChurnScenario(n_connections=N, n_groups=GROUPS, seed=SEED)
        s.run(until=grouped_duration(N) + SETTLE_S)
        assert s.system.check_quiescent() == []

    def test_serial_rerun_is_bit_identical(self, serial):
        again = run_grouped_churn(n_connections=N, n_groups=GROUPS, seed=SEED)
        assert (grouped_identity_fields(again) == grouped_identity_fields(serial)
                == golden.GROUPED_48_SEED_11)

    def test_unknown_manager_mode_rejected(self):
        # the one accepted value survives only for the frozen bench harness
        with pytest.raises(ValueError):
            GroupedChurnScenario(n_connections=N, n_groups=GROUPS, mode="legacy")

    def test_cross_connections_exist_in_every_group(self):
        s = GroupedChurnScenario(n_connections=N, n_groups=GROUPS, seed=SEED)
        crossing = {
            i % GROUPS for i in range(N)
            if s._responder_of(i).startswith("R")
        }
        assert crossing == set(range(GROUPS))


class TestShardedIdentity:
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_sharded_matches_serial_digest(self, serial, n_shards):
        sharded = run_sharded_churn(
            n_connections=N, n_shards=n_shards, n_groups=GROUPS, seed=SEED,
            recv_timeout=120.0,
        )
        assert grouped_identity_fields(sharded) == grouped_identity_fields(serial)
        # the shards together name what the serial world names
        assert sorted(v for r in sharded["shards"] for v in r["quiescence"]) \
            == sorted(serial["quiescence"])
        coord = sharded["coordinator"]
        assert coord["epochs"] > 0
        assert coord["cross_frames"] > 0          # the boundary was exercised

    def test_sharded_run_balances_every_shard_pool(self, serial):
        sharded = run_sharded_churn(
            n_connections=N, n_shards=2, n_groups=GROUPS, seed=SEED,
            recv_timeout=120.0,
        )
        for r in sharded["shards"]:
            # every pooled wire reference acquired in the worker process
            # was released — gateway egress included
            assert r["pdu_acquired"] == r["pdu_recycled"] > 0
            assert leaks(r["quiescence"]) == []
            # nothing that must stay local crossed the pipe
            assert r["shard_refused_multicast"] == 0
            assert r["shard_refused_heartbeat"] == 0
            assert r["shard_encode_errors"] == 0
            assert r["shard_frames_out"] > 0

    def test_cross_shard_frame_conservation(self, serial):
        sharded = run_sharded_churn(
            n_connections=N, n_shards=2, n_groups=GROUPS, seed=SEED,
            recv_timeout=120.0,
        )
        out = sum(r["shard_frames_out"] for r in sharded["shards"])
        arrived = sum(r["shard_frames_in"] for r in sharded["shards"])
        # everything shipped is delivered, except frames generated in the
        # final stretch (arrival > until, provably unexecuted serially too)
        assert 0 <= out - arrived <= 4
        assert arrived <= out


class TestDigestAssembly:
    def test_merge_is_order_insensitive(self):
        a = {3: "aa", 1: "bb"}
        b = {1: "bb", 3: "aa"}
        assert merge_conn_digests(a) == merge_conn_digests(b)

    def test_merge_detects_double_delivery(self):
        from repro.core.churn import merge_sharded_metrics

        shard = {
            "mode": "coalesced", "n_connections": 1, "n_groups": 1,
            "established": 1, "failed": 0, "closed": 1, "reopened": 0,
            "delivered": 1, "peak_concurrent": 1, "conn_digests": {0: "x"},
            "final_time": 1.0, "events_dispatched": 10,
        }
        with pytest.raises(ValueError, match="two shards"):
            merge_sharded_metrics([shard, dict(shard)], {})


class TestCoordinatorValidation:
    def test_rejects_degenerate_parameters(self):
        for kw in (
            dict(n_shards=1, until=1.0, lookahead=1e-3),
            dict(n_shards=2, until=1.0, lookahead=0.0),
            dict(n_shards=2, until=0.0, lookahead=1e-3),
        ):
            with pytest.raises(ValueError):
                ShardCoordinator(builder=None, builder_kw={}, **kw)

    def test_sync_error_is_a_runtime_error(self):
        assert issubclass(ShardSyncError, RuntimeError)
