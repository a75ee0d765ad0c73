"""Topology, routing, multicast groups, and the network-state view.

The ``Network`` ties nodes and links into a weighted digraph (a dict of
successor dicts), computes (and caches) shortest routes weighted by link
latency, recomputes them when links fail or recover, and maintains
multicast group membership.  It also exposes the aggregate state that the
MANTTS Network Monitor Interface samples: per-path RTT estimates,
bottleneck bandwidth, path MTU, and queue occupancy at intermediate nodes
(the paper's negotiation "with intermediate switching nodes", §4.1.1).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Tuple

from repro.netsim.frame import Frame
from repro.netsim.link import Link
from repro.netsim.node import Node
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams
from repro.unites.obs.telemetry import TELEMETRY as _TELEMETRY

#: nominal probe size used to weight routes (favours fast, short links)
_ROUTE_PROBE_BYTES = 512


def _route_weight(link: Link) -> float:
    return link.delay + _ROUTE_PROBE_BYTES * 8.0 / link.bandwidth_bps


class Network:
    """A simulated internetwork of switching nodes and hosts."""

    def __init__(self, sim: Simulator, rng: Optional[RngStreams] = None) -> None:
        self.sim = sim
        self.rng = rng or RngStreams(0)
        #: routing topology: node -> successor -> weight, up links only,
        #: successors in link-insertion order
        self._succ: Dict[str, Dict[str, float]] = {}
        self.nodes: Dict[str, Node] = {}
        self.links: Dict[Tuple[str, str], Link] = {}
        self.groups: Dict[str, set[str]] = {}
        self._route_cache: Dict[Tuple[str, str], Optional[List[str]]] = {}
        #: bumped on every topology/link-parameter change; lets path-probe
        #: caches (repro.host.connmgr) invalidate without watching links
        self.topology_version = 0

    # ------------------------------------------------------------------
    # topology construction
    # ------------------------------------------------------------------
    def add_node(self, name: str, switch_latency: float = 5e-6) -> Node:
        """Create a switching node (idempotent on name collision is an error)."""
        if name in self.nodes:
            raise ValueError(f"duplicate node {name!r}")
        node = Node(self, name, switch_latency)
        self.nodes[name] = node
        self._succ[name] = {}
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
            self._succ[u][v] = _route_weight(link)
        self._route_cache.clear()
        self.topology_version += 1

    def attach_host(self, name: str, deliver: Callable[[Frame], None]) -> Node:
        """Attach a host NIC callback to node ``name`` (creating it if new)."""
        node = self.nodes.get(name) or self.add_node(name)
        node.attach_host(deliver)
        return node

    def detach_host(self, name: str) -> None:
        """Remove the host attachment from node ``name`` (idempotent).

        The switching node itself stays in the topology and keeps
        forwarding transit traffic; only local delivery stops.
        """
        node = self.nodes.get(name)
        if node is not None:
            node.detach_host()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route(self, src: str, dst: str) -> Optional[List[str]]:
        """Full node path ``src..dst`` or None when unreachable (cached)."""
        key = (src, dst)
        if key in self._route_cache:
            return self._route_cache[key]
        path = self._route_cache[key] = self._shortest_path(src, dst)
        return path

    def _shortest_path(self, src: str, dst: str) -> Optional[List[str]]:
        """Dijkstra over the up links.

        The tie rule, stated once: the heap pops the smaller distance
        first and, among equal distances, the earlier push; a node's
        predecessor changes only on a strictly smaller distance.  So of two
        equal-cost paths the one through the earlier-inserted link wins.
        """
        succ = self._succ
        if src not in succ or dst not in succ:
            return None
        dist = {src: 0.0}
        prev: Dict[str, str] = {}
        heap = [(0.0, 0, src)]
        pushes = 1
        while heap:
            d, _, u = heappop(heap)
            if d > dist[u]:
                continue  # superseded by a later, shorter push
            if u == dst:
                path = [dst]
                while u != src:
                    u = prev[u]
                    path.append(u)
                path.reverse()
                return path
            for v, weight in succ[u].items():
                nd = d + weight
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    prev[v] = u
                    heappush(heap, (nd, pushes, v))
                    pushes += 1
        return None

    def next_hop(self, at: str, dst: str) -> Optional[str]:
        """The neighbour to which ``at`` forwards traffic bound for ``dst``."""
        path = self.route(at, dst)
        if path is None or len(path) < 2:
            return None
        return path[1]

    def link(self, u: str, v: str) -> Link:
        return self.links[(u, v)]

    def fail_link(self, a: str, b: str, bidirectional: bool = True) -> None:
        """Take link(s) down and force route recomputation.

        Models the paper's "intermediate node failure ... routes change from
        a terrestrial link to a satellite link" scenario (§4.1.2).
        """
        pairs = [(a, b), (b, a)] if bidirectional else [(a, b)]
        for u, v in pairs:
            self.links[(u, v)].fail()
            self._succ[u].pop(v, None)
            _TELEMETRY.instant("link-fail", "netsim", link=f"{u}->{v}")
        self._route_cache.clear()
        self.topology_version += 1

    def restore_link(self, a: str, b: str, bidirectional: bool = True) -> None:
        """Bring link(s) back and restore their routing weight."""
        pairs = [(a, b), (b, a)] if bidirectional else [(a, b)]
        for u, v in pairs:
            link = self.links[(u, v)]
            link.restore()
            self._succ[u][v] = _route_weight(link)
            _TELEMETRY.instant("link-restore", "netsim", link=f"{u}->{v}")
        self._route_cache.clear()
        self.topology_version += 1

    # ------------------------------------------------------------------
    # run-time characteristic changes (fault-injection hooks)
    # ------------------------------------------------------------------
    def _pairs(self, a: str, b: str, bidirectional: bool) -> List[Tuple[str, str]]:
        return [(a, b), (b, a)] if bidirectional else [(a, b)]

    def set_link_bandwidth(
        self, a: str, b: str, bandwidth_bps: float, bidirectional: bool = True
    ) -> None:
        """Change channel rate(s) and re-weight routing accordingly."""
        for u, v in self._pairs(a, b, bidirectional):
            link = self.links[(u, v)]
            link.set_bandwidth(bandwidth_bps)
            if v in self._succ[u]:
                self._succ[u][v] = _route_weight(link)
        self._route_cache.clear()
        self.topology_version += 1

    def set_link_ber(self, a: str, b: str, ber: float, bidirectional: bool = True) -> None:
        """Change bit-error rate(s); routing weights are latency-based, so
        no route recomputation is needed (the monitor sees it via path_ber)."""
        for u, v in self._pairs(a, b, bidirectional):
            self.links[(u, v)].set_ber(ber)

    def set_link_queue_limit(
        self, a: str, b: str, queue_limit: int, bidirectional: bool = True
    ) -> None:
        """Change queue capacity(-ies); excess occupants are dropped."""
        for u, v in self._pairs(a, b, bidirectional):
            self.links[(u, v)].set_queue_limit(queue_limit)

    def incident_links(self, name: str) -> List[Tuple[str, str]]:
        """Directed link endpoint pairs touching ``name`` (either direction)."""
        return sorted((u, v) for (u, v) in self.links if u == name or v == name)

    def crash_node(self, name: str) -> List[Tuple[str, str]]:
        """Take every *currently up* link touching ``name`` down.

        Returns the directed pairs that were failed, so the caller can
        restore exactly those on recovery (links that were already down for
        another reason are left for their own owner to restore).
        """
        if name not in self.nodes:
            raise KeyError(f"unknown node {name!r}")
        failed = [(u, v) for (u, v) in self.incident_links(name) if self.links[(u, v)].up]
        for u, v in failed:
            self.fail_link(u, v, bidirectional=False)
        return failed

    def partition(self, group: set[str] | frozenset[str]) -> List[Tuple[str, str]]:
        """Fail every up link crossing between ``group`` and its complement.

        Returns the directed pairs failed (for exact restoration).
        """
        cut = [
            (u, v)
            for (u, v) in sorted(self.links)
            if ((u in group) != (v in group)) and self.links[(u, v)].up
        ]
        for u, v in cut:
            self.fail_link(u, v, bidirectional=False)
        return cut

    #: destination address meaning "every attached host except the sender"
    #: (the paper's broadcast service, e.g. distributed name resolution)
    BROADCAST = "*"

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def send(self, frame: Frame) -> None:
        """Inject a frame at its source node."""
        node = self.nodes.get(frame.src)
        if node is None:
            raise KeyError(f"unknown source host {frame.src!r}")
        if frame.multicast_dsts is None:
            if frame.dst == self.BROADCAST:
                frame.multicast_dsts = sorted(
                    name
                    for name, n in self.nodes.items()
                    if n.host_deliver is not None and name != frame.src
                )
            elif frame.dst in self.groups:
                frame.multicast_dsts = sorted(self.groups[frame.dst])
        node.inject(frame)

    # ------------------------------------------------------------------
    # multicast groups
    # ------------------------------------------------------------------
    def join_group(self, group: str, host: str) -> None:
        """Add ``host`` to multicast group ``group``."""
        if host not in self.nodes:
            raise KeyError(f"unknown host {host!r}")
        self.groups.setdefault(group, set()).add(host)

    def leave_group(self, group: str, host: str) -> None:
        """Remove ``host`` from ``group`` (no-op if absent)."""
        members = self.groups.get(group)
        if members is not None:
            members.discard(host)
            if not members:
                del self.groups[group]

    def group_members(self, group: str) -> set[str]:
        return set(self.groups.get(group, set()))

    # ------------------------------------------------------------------
    # network-state view (MANTTS-NMI ground truth)
    # ------------------------------------------------------------------
    def path_links(self, src: str, dst: str) -> List[Link]:
        """Links along the current route, empty when unreachable."""
        path = self.route(src, dst)
        if path is None:
            return []
        return [self.links[(u, v)] for u, v in zip(path, path[1:])]

    def path_mtu(self, src: str, dst: str) -> Optional[int]:
        """Minimum MTU along the route (what the transport must fragment to)."""
        links = self.path_links(src, dst)
        return min((l.mtu for l in links), default=None)

    def path_propagation_delay(self, src: str, dst: str) -> Optional[float]:
        """Sum of one-way propagation delays (excludes queueing)."""
        links = self.path_links(src, dst)
        if not links:
            return None
        return sum(l.delay for l in links)

    def path_bottleneck_bps(self, src: str, dst: str) -> Optional[float]:
        """Minimum channel rate along the route."""
        links = self.path_links(src, dst)
        return min((l.bandwidth_bps for l in links), default=None)

    def path_queue_occupancy(self, src: str, dst: str) -> float:
        """Worst queue fill fraction along the route — the congestion signal.

        The maximum (not the mean) is reported: one full bottleneck queue
        is what loses packets, however many empty hops surround it.
        """
        links = self.path_links(src, dst)
        if not links:
            return 0.0
        return max(l.queue_len / l.queue_limit for l in links)

    def path_ber(self, src: str, dst: str) -> float:
        """Compound bit-error rate along the route."""
        links = self.path_links(src, dst)
        ok = 1.0
        for l in links:
            ok *= 1.0 - l.ber
        return 1.0 - ok

    def nominal_rtt(self, src: str, dst: str, size: int = _ROUTE_PROBE_BYTES) -> Optional[float]:
        """Unloaded round-trip estimate for a ``size``-byte probe."""
        fwd = self.path_links(src, dst)
        rev = self.path_links(dst, src)
        if not fwd or not rev:
            return None
        t = 0.0
        for l in fwd + rev:
            t += l.delay + l.serialization_time(size)
        return t
