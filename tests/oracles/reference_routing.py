"""The routing oracle: ``networkx`` under :class:`Network`, kept verbatim.

:class:`ReferenceNetwork` is the network as it stood while its topology was
an ``nx.DiGraph`` and a route an ``nx.shortest_path`` call (``68e5048``):
``add_node``, ``add_link``, ``route``, ``fail_link``, ``restore_link`` and
``set_link_bandwidth`` are that file's, unchanged.  Everything else —
``crash_node`` and ``partition`` included, which reach the graph only through
``fail_link`` — is inherited, so one sequence of operations drives both
routers.  It shares no routing code with ``repro.netsim.network``:
``tests/netsim/test_routing_equivalence.py`` compares a library's
bidirectional Dijkstra with the shipped forward one.

``networkx`` is a test dependency only; without it this module skips.

:func:`mirror` rebuilds any built :class:`Network` on the oracle.
"""

from __future__ import annotations

from typing import List, Optional

import pytest

from repro.netsim.link import Link
from repro.netsim.network import _ROUTE_PROBE_BYTES, Network
from repro.netsim.node import Node
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams
from repro.unites.obs.telemetry import TELEMETRY as _TELEMETRY

nx = pytest.importorskip("networkx")


def mirror(net: Network) -> "ReferenceNetwork":
    """``net``'s nodes, links (in insertion order) and link states on the
    oracle, in a world of its own."""
    ref = ReferenceNetwork(Simulator(), RngStreams(0))
    for name, node in net.nodes.items():
        ref.add_node(name, node.switch_latency)
    for (u, v), link in net.links.items():
        ref.add_link(u, v, link.bandwidth_bps, link.delay, ber=link.ber,
                     queue_limit=link.queue_limit, mtu=link.mtu,
                     bidirectional=False)
        if not link.up:
            ref.fail_link(u, v, bidirectional=False)
    ref.topology_version = net.topology_version
    return ref


class ReferenceNetwork(Network):
    """A :class:`Network` whose routing graph is an ``nx.DiGraph``."""

    def __init__(self, sim: Simulator, rng: Optional[RngStreams] = None) -> None:
        super().__init__(sim, rng)
        self.graph = nx.DiGraph()

    def add_node(self, name: str, switch_latency: float = 5e-6) -> Node:
        """Create a switching node (idempotent on name collision is an error)."""
        if name in self.nodes:
            raise ValueError(f"duplicate node {name!r}")
        node = Node(self, name, switch_latency)
        self.nodes[name] = node
        self.graph.add_node(name)
        return node

    def add_link(
        self,
        a: str,
        b: str,
        bandwidth_bps: float,
        delay: float,
        ber: float = 0.0,
        queue_limit: int = 64,
        mtu: int = 1500,
        bidirectional: bool = True,
    ) -> None:
        """Connect two existing nodes; by default with a link each way."""
        pairs = [(a, b), (b, a)] if bidirectional else [(a, b)]
        for u, v in pairs:
            if u not in self.nodes or v not in self.nodes:
                raise KeyError(f"both endpoints must exist before linking {u}->{v}")
            if (u, v) in self.links:
                raise ValueError(f"duplicate link {u}->{v}")
            link = Link(
                self.sim,
                self.rng,
                name=f"{u}->{v}",
                bandwidth_bps=bandwidth_bps,
                delay=delay,
                ber=ber,
                queue_limit=queue_limit,
                mtu=mtu,
                deliver=self.nodes[v].arrived,
            )
            # arrival fuses with switching: the link's one landing event
            # fires when the far node has switched the frame
            link.far_latency = self.nodes[v].switch_latency
            self.links[(u, v)] = link
            weight = delay + _ROUTE_PROBE_BYTES * 8.0 / bandwidth_bps
            self.graph.add_edge(u, v, weight=weight)
        self._route_cache.clear()
        self.topology_version += 1

    def route(self, src: str, dst: str) -> Optional[List[str]]:
        """Full node path ``src..dst`` or None when unreachable (cached)."""
        key = (src, dst)
        if key in self._route_cache:
            return self._route_cache[key]
        try:
            path = nx.shortest_path(self.graph, src, dst, weight="weight")
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            path = None
        self._route_cache[key] = path
        return path

    def fail_link(self, a: str, b: str, bidirectional: bool = True) -> None:
        """Take link(s) down and force route recomputation.

        Models the paper's "intermediate node failure ... routes change from
        a terrestrial link to a satellite link" scenario (§4.1.2).
        """
        pairs = [(a, b), (b, a)] if bidirectional else [(a, b)]
        for u, v in pairs:
            self.links[(u, v)].fail()
            if self.graph.has_edge(u, v):
                self.graph.remove_edge(u, v)
            _TELEMETRY.instant("link-fail", "netsim", link=f"{u}->{v}")
        self._route_cache.clear()
        self.topology_version += 1

    def restore_link(self, a: str, b: str, bidirectional: bool = True) -> None:
        """Bring link(s) back and restore their routing weight."""
        pairs = [(a, b), (b, a)] if bidirectional else [(a, b)]
        for u, v in pairs:
            link = self.links[(u, v)]
            link.restore()
            weight = link.delay + _ROUTE_PROBE_BYTES * 8.0 / link.bandwidth_bps
            self.graph.add_edge(u, v, weight=weight)
            _TELEMETRY.instant("link-restore", "netsim", link=f"{u}->{v}")
        self._route_cache.clear()
        self.topology_version += 1

    def set_link_bandwidth(
        self, a: str, b: str, bandwidth_bps: float, bidirectional: bool = True
    ) -> None:
        """Change channel rate(s) and re-weight routing accordingly."""
        for u, v in self._pairs(a, b, bidirectional):
            link = self.links[(u, v)]
            link.set_bandwidth(bandwidth_bps)
            if self.graph.has_edge(u, v):
                weight = link.delay + _ROUTE_PROBE_BYTES * 8.0 / link.bandwidth_bps
                self.graph[u][v]["weight"] = weight
        self._route_cache.clear()
        self.topology_version += 1
