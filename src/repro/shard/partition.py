"""Topology partitioning and lookahead for the sharded world.

Per-node ownership is the partitioning function — the same node-granular
boundary the per-host :class:`~repro.host.connmgr.ConnectionManager`
already established for connection state: every simulated entity
(host OS, protocol machines, monitors, timers) hangs off exactly one
node, so assigning nodes to shards assigns *all* mutable state to
exactly one kernel.  Links are owned by their **source** node's shard
(the single writer: only the source side enqueues, serializes, and draws
channel errors); a link whose destination lives elsewhere is a
*boundary* link, and its propagation delay is the shard's lookahead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence, Set, Tuple


class PartitionError(ValueError):
    """The proposed shard plan cannot yield a conservative schedule."""


@dataclass(frozen=True)
class ShardPlan:
    """An immutable node-name → shard-id assignment.

    Build one with :meth:`from_groups` (contiguous blocks of node
    groups — the churn scenario's natural shape) or pass an explicit
    ``owner`` mapping.  The plan is pure data: it is pickled into every
    worker so all shards agree on ownership without sharing objects.
    """

    n_shards: int
    owner: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise PartitionError("need at least one shard")
        for node, shard in self.owner.items():
            if not (0 <= shard < self.n_shards):
                raise PartitionError(
                    f"node {node!r} assigned to shard {shard} "
                    f"outside [0, {self.n_shards})"
                )

    # ------------------------------------------------------------------
    @classmethod
    def from_groups(
        cls, groups: Sequence[Set[str]], n_shards: int
    ) -> "ShardPlan":
        """Contiguous-block assignment: group ``g`` of ``G`` lands on
        shard ``g * n_shards // G``.

        Groups are the unit of co-location (a group's nodes always share
        a kernel); blocks are contiguous so neighbouring groups — the
        ones the churn topology wires trunks between — split across the
        fewest boundaries.
        """
        if n_shards < 1:
            raise PartitionError("need at least one shard")
        if len(groups) < n_shards:
            raise PartitionError(
                f"{len(groups)} groups cannot fill {n_shards} shards"
            )
        owner: Dict[str, int] = {}
        for g, nodes in enumerate(groups):
            shard = g * n_shards // len(groups)
            for node in nodes:
                if node in owner:
                    raise PartitionError(f"node {node!r} appears in two groups")
                owner[node] = shard
        return cls(n_shards=n_shards, owner=owner)

    # ------------------------------------------------------------------
    def shard_of(self, node: str) -> int:
        try:
            return self.owner[node]
        except KeyError:
            raise PartitionError(f"node {node!r} has no shard owner")

    # ------------------------------------------------------------------
    def boundary_links(self, network) -> Dict[Tuple[str, str], Tuple[int, int]]:
        """Directed boundary links: ``(u, v) -> (src_shard, dst_shard)``.

        Every node of the network must be owned — an unowned node would
        be simulated nowhere (or twice).
        """
        out: Dict[Tuple[str, str], Tuple[int, int]] = {}
        for name in network.nodes:
            self.shard_of(name)  # raises on an orphan node
        for (u, v) in network.links:
            su, sv = self.shard_of(u), self.shard_of(v)
            if su != sv:
                out[(u, v)] = (su, sv)
        return out

    def lookahead(self, network) -> float:
        """The conservative bound: minimum boundary-link propagation delay.

        A cross-shard frame generated at time ``t`` cannot arrive before
        ``t + L`` with ``L`` this minimum, which is what lets every shard
        safely execute events strictly before ``N + L`` each epoch.  A
        zero-delay boundary link would make the bound vacuous (the
        parallel schedule could never advance), so it is rejected here,
        at plan time, not discovered as a wedged barrier at run time.
        """
        boundary = self.boundary_links(network)
        if not boundary:
            raise PartitionError("plan has no boundary links (single shard?)")
        lookahead = min(network.links[key].delay for key in boundary)
        if lookahead <= 0.0:
            offenders = sorted(
                f"{u}->{v}" for (u, v) in boundary
                if network.links[(u, v)].delay <= 0.0
            )
            raise PartitionError(
                f"zero-delay boundary link(s) {offenders} give no lookahead"
            )
        return lookahead
