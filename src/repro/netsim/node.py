"""Switching node (intermediate system) and host attachment point.

Every vertex of the :class:`repro.netsim.network.Network` graph is a
``Node``.  A node forwards arriving frames toward their destination with a
small fixed switching latency; a node may also have a *host* attached, in
which case frames addressed to it are handed up to the host's network
interface (the transport system's entry point).  The latency is not an
event of its own: the inbound link's landing event already includes it
(``Network.add_link`` wires it in), so :meth:`Node.arrived` switches on
the spot.

Congestion lives in the outgoing :class:`~repro.netsim.link.Link` queues,
not in the node itself; the node merely consults routing and replicates
multicast frames at branch points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.netsim.frame import Frame

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.link import Link
    from repro.netsim.network import Network


@dataclass
class NodeStats:
    """Per-node forwarding counters (visible to MANTTS' network monitor)."""

    forwarded: int = 0
    delivered_local: int = 0
    dropped_no_route: int = 0
    replicated: int = 0


class Node:
    """One switching node; optionally a host attachment point."""

    def __init__(self, network: "Network", name: str, switch_latency: float = 5e-6) -> None:
        self.network = network
        self.name = name
        self.switch_latency = switch_latency
        self.host_deliver: Optional[Callable[[Frame], None]] = None
        self.stats = NodeStats()
        #: destination -> outgoing link (None: unreachable), valid for one
        #: ``Network.topology_version``
        self._egress: Dict[str, Optional["Link"]] = {}
        self._egress_version = -1

    # ------------------------------------------------------------------
    def attach_host(self, deliver: Callable[[Frame], None]) -> None:
        """Register the host NIC callback for locally addressed frames."""
        if self.host_deliver is not None:
            raise ValueError(f"node {self.name} already has a host attached")
        self.host_deliver = deliver

    def detach_host(self) -> None:
        """Remove the host attachment (node teardown); idempotent.

        Frames still in flight toward this node are counted as discarded
        on arrival rather than delivered.
        """
        self.host_deliver = None

    # ------------------------------------------------------------------
    def arrived(self, frame: Frame) -> None:
        """Entry point for frames landing from an adjacent link.

        Called ``switch_latency`` after the wire delivered the frame — the
        link's landing event carries the latency — so forwarding is
        immediate.
        """
        frame.hops += 1
        frame.trace.append(self.name)
        self._forward(frame)

    def inject(self, frame: Frame) -> None:
        """Entry point for frames originated by the attached host."""
        frame.trace.append(self.name)
        self._forward(frame)

    # ------------------------------------------------------------------
    def _forward(self, frame: Frame) -> None:
        if frame.multicast_dsts is not None:
            self._forward_multicast(frame)
        else:
            self._forward_unicast(frame)

    def _forward_unicast(self, frame: Frame) -> None:
        dst = frame.dst
        if dst == self.name:
            self._deliver_local(frame)
            return
        net = self.network
        if self._egress_version != net.topology_version:
            self._egress.clear()
            self._egress_version = net.topology_version
        try:
            link = self._egress[dst]
        except KeyError:
            nxt = net.next_hop(self.name, dst)
            link = None if nxt is None else net.links[(self.name, nxt)]
            self._egress[dst] = link
        if link is None:
            self.stats.dropped_no_route += 1
            # the frame dies here; surrender its payload's wire reference
            rel = getattr(frame.payload, "release", None)
            if rel is not None:
                rel()
            return
        self.stats.forwarded += 1
        link.send(frame)

    def _forward_multicast(self, frame: Frame) -> None:
        """Replicate the frame per next hop of the remaining member set.

        This is network-layer multicast: one copy per tree edge, not one
        copy per receiver (the difference underlying experiment E2's
        comparison with per-receiver unicast).
        """
        dsts = frame.multicast_dsts or []
        local = [d for d in dsts if d == self.name]
        remote = [d for d in dsts if d != self.name]
        if local:
            self._deliver_local(frame)
        by_hop: dict[str, list[str]] = {}
        for d in remote:
            nxt = self.network.next_hop(self.name, d)
            if nxt is None:
                self.stats.dropped_no_route += 1
                continue
            by_hop.setdefault(nxt, []).append(d)
        for nxt, subset in by_hop.items():
            out = frame.clone_for(subset)
            link = self.network.link(self.name, nxt)
            self.stats.forwarded += 1
            if len(by_hop) > 1:
                self.stats.replicated += 1
            link.send(out)

    def _deliver_local(self, frame: Frame) -> None:
        self.stats.delivered_local += 1
        if self.host_deliver is not None:
            self.host_deliver(frame)
        else:
            # no host (never attached, or torn down): surrender the payload
            rel = getattr(frame.payload, "release", None)
            if rel is not None:
                rel()
