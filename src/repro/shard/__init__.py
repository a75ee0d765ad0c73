"""Conservative parallel simulation: one world, many kernel processes.

The scale leap the ROADMAP calls for: partition the topology into
host-group shards, run one :class:`~repro.sim.kernel.Simulator` per
worker process, and synchronize with a lookahead barrier derived from
cross-shard ``Link.delay`` — the classic Chandy–Misra–Bryant bound,
realised as a synchronous epoch protocol (no null-message flood; the
coordinator computes the global horizon each epoch).

Layout:

* :mod:`repro.shard.partition` — node-ownership plans and the lookahead
  math (:class:`ShardPlan`);
* :mod:`repro.shard.gateway` — boundary links whose far endpoint is a
  serializing proxy (:class:`GatewayLink`, :class:`ShardGateway`): frames
  cross shards via the wire codec with slab-aware release on egress;
* :mod:`repro.shard.worker` — the child-process event loop speaking the
  epoch protocol over a pipe;
* :mod:`repro.shard.coordinator` — the parent-side barrier
  (:class:`ShardCoordinator`) on the shared
  :class:`~repro.sweep.pool.WorkerTeam` substrate.

Determinism contract: a sharded run is **bit-identical to a serial run**
of the same scenario and seed on the receiver-side delivery digest (see
``docs/sharding.md`` for the argument and its topology preconditions).
"""

from repro.shard.coordinator import ShardCoordinator, ShardSyncError
from repro.shard.gateway import GatewayLink, ShardGateway, make_boundary
from repro.shard.partition import PartitionError, ShardPlan

__all__ = [
    "GatewayLink",
    "PartitionError",
    "ShardCoordinator",
    "ShardGateway",
    "ShardPlan",
    "ShardSyncError",
    "make_boundary",
]
