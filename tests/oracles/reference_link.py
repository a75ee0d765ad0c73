"""The link oracle: three kernel events per hop, kept verbatim.

:class:`ReferenceLink` is the link as it stood before a hop became one
event (``28ca593``): ``_tx_done`` when the frame leaves the wire — where
the channel error is drawn and ``up`` is read, *at that instant* —
``_arrive`` one propagation delay later, and, in :func:`receive`, the
far node's switching latency as a third event.  Its methods are that
file's, unchanged but for the two ``EventChain`` appends, which are the
``schedule_transient`` calls they were order-identical to (the chain is
gone from the kernel).  It shares no scheduling code with
``repro.netsim.link``, so ``tests/netsim/test_link_equivalence.py``
compares two independent models of a hop: one that visits every instant
and one that computes them.

:func:`use_reference_links` rewires a built :class:`Network` onto the
oracle in place.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Optional

from repro.netsim.frame import Frame
from repro.netsim.link import N_PRIORITIES, LinkStats
from repro.netsim.network import Network
from repro.netsim.node import Node
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams
from repro.unites.obs.telemetry import TELEMETRY as _TELEMETRY


def receive(node: Node, frame: Frame) -> None:
    """``Node.receive`` as it was: arrival and switching are two events."""
    frame.hops += 1
    frame.trace.append(node.name)
    node.network.sim.schedule_transient(node.switch_latency, node._forward, frame)


def use_reference_links(net: Network) -> Network:
    """Replace every link of ``net`` with a :class:`ReferenceLink`.

    Call on a freshly built network: a link's random stream is looked up
    by name, so the replacement draws from the stream the original would
    have, from its start.
    """
    for (u, v), link in net.links.items():
        net.links[(u, v)] = ReferenceLink(
            net.sim, net.rng, link.name, link.bandwidth_bps, link.delay,
            ber=link.ber, queue_limit=link.queue_limit, mtu=link.mtu,
            deliver=partial(receive, net.nodes[v]))
    net.topology_version += 1  # nodes cache their egress links
    return net


class ReferenceLink:
    """A directed link ``a -> b`` with finite queue and error model.

    Parameters
    ----------
    bandwidth_bps:
        Channel rate in bits per second.
    delay:
        One-way propagation delay in seconds.
    ber:
        Channel bit-error rate (1e-4 copper, 1e-9 fiber per paper §2.1(B)).
    queue_limit:
        Maximum frames queued awaiting transmission (drop-tail beyond).
    mtu:
        Maximum frame size the link accepts, in bytes.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: RngStreams,
        name: str,
        bandwidth_bps: float,
        delay: float,
        ber: float = 0.0,
        queue_limit: int = 64,
        mtu: int = 1500,
        deliver: Optional[Callable[[Frame], None]] = None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if delay < 0:
            raise ValueError("propagation delay cannot be negative")
        if not (0.0 <= ber < 1.0):
            raise ValueError("BER must be in [0, 1)")
        self.sim = sim
        self.name = name
        self.bandwidth_bps = float(bandwidth_bps)
        self.delay = float(delay)
        self.ber = float(ber)
        self.queue_limit = int(queue_limit)
        self.mtu = int(mtu)
        self.deliver = deliver
        self.up = True
        self.stats = LinkStats()
        self._queues: list[deque[Frame]] = [deque() for _ in range(N_PRIORITIES)]
        #: frames waiting across ``_queues``, not counting the one on the
        #: wire — a maintained count, because every ``send`` reads it
        self.queue_len = 0
        self._transmitting = False
        self._rng = rng.stream(f"link:{name}")

    # ------------------------------------------------------------------
    def serialization_time(self, size_bytes: int) -> float:
        """Time to clock ``size_bytes`` onto the channel."""
        return size_bytes * 8.0 / self.bandwidth_bps

    # ------------------------------------------------------------------
    def send(self, frame: Frame) -> bool:
        """Enqueue a frame for transmission.

        Returns False (and records the drop) when the link is down, the
        frame exceeds the MTU, or the queue is full.  Callers never get an
        exception for loss — loss is a normal network behaviour that the
        transport configuration may or may not compensate for.
        """
        if not self.up:
            self.stats.dropped_down += 1
            self._count_drop("down", frame.size)
            self._drop_payload(frame)
            return False
        if frame.size > self.mtu:
            # A frame sized for a fatter path arriving after a route change:
            # the 1992-era network has no fragmentation, so this is a
            # path-MTU black hole — the frame is dropped and counted, and
            # the transport sees it as loss (reliable sessions will
            # retransmit until their give-up threshold surfaces the fault).
            self.stats.dropped_mtu += 1
            self._count_drop("mtu", frame.size)
            self._drop_payload(frame)
            return False
        if self.queue_len >= self.queue_limit:
            self.stats.dropped_overflow += 1
            self._count_drop("overflow", frame.size)
            self._drop_payload(frame)
            return False
        prio = min(max(frame.priority, 0), N_PRIORITIES - 1)
        self._queues[prio].append(frame)
        self.queue_len += 1
        self.stats.enqueued += 1
        if _TELEMETRY.enabled:
            _TELEMETRY.metrics.counter(
                "link_frames_enqueued_total", labels={"link": self.name},
                help="frames accepted into the link queue").inc()
            _TELEMETRY.metrics.counter(
                "link_bytes_enqueued_total", labels={"link": self.name},
                help="bytes accepted into the link queue").inc(frame.size)
        if not self._transmitting:
            self._start_next()
        return True

    @staticmethod
    def _drop_payload(frame: Frame) -> None:
        """A dropped frame surrenders its payload's wire reference.

        Duck-typed so netsim stays transport-agnostic: pooled transport
        PDUs expose ``release()`` and go back to their free list promptly;
        anything else (background-traffic tuples, plain PDUs) is inert.
        """
        rel = getattr(frame.payload, "release", None)
        if rel is not None:
            rel()

    def _count_drop(self, reason: str, nbytes: int = 0) -> None:
        if _TELEMETRY.enabled:
            _TELEMETRY.metrics.counter(
                "link_frames_dropped_total",
                labels={"link": self.name, "reason": reason},
                help="frames lost at the link, by cause").inc()
            if nbytes:
                _TELEMETRY.metrics.counter(
                    "link_bytes_dropped_total",
                    labels={"link": self.name, "reason": reason},
                    help="bytes lost at the link, by cause").inc(nbytes)
            _TELEMETRY.instant("link-drop", "netsim", link=self.name, reason=reason)

    def _start_next(self) -> None:
        frame = None
        for q in self._queues:
            if q:
                frame = q.popleft()
                break
        if frame is None:
            self._transmitting = False
            return
        self.queue_len -= 1
        self._transmitting = True
        ser = frame.size * 8.0 / self.bandwidth_bps  # serialization_time()
        self.stats.busy_time += ser
        self.sim.schedule_transient(ser, self._tx_done, frame)

    def _tx_done(self, frame: Frame) -> None:
        # Channel errors are imposed while the frame is on the wire.
        if self.ber > 0.0 and not frame.corrupted:
            p_err = 1.0 - (1.0 - self.ber) ** (frame.size * 8)
            if self._rng.random() < p_err:
                frame.corrupted = True
                self.stats.corrupted += 1
                if _TELEMETRY.enabled:
                    _TELEMETRY.metrics.counter(
                        "link_frames_corrupted_total", labels={"link": self.name},
                        help="frames hit by channel bit errors").inc()
        if self.up:
            self._propagate(frame)
        else:
            self.stats.dropped_down += 1
            self._count_drop("down", frame.size)
            self._drop_payload(frame)
        self._start_next()

    def _propagate(self, frame: Frame) -> None:
        """Launch a serialized frame onto the propagation delay.

        Runs after the error model, so the frame's fate on the channel is
        already decided.
        """
        self.sim.schedule_transient(self.delay, self._arrive, frame)

    def _arrive(self, frame: Frame) -> None:
        self.stats.delivered += 1
        self.stats.bytes_delivered += frame.size
        if _TELEMETRY.enabled:
            t = _TELEMETRY
            t.metrics.counter(
                "link_frames_delivered_total", labels={"link": self.name},
                help="frames handed to the far endpoint").inc()
            t.metrics.counter(
                "link_bytes_delivered_total", labels={"link": self.name},
                help="bytes handed to the far endpoint").inc(frame.size)
            # The frame left the queue serialization_time before the
            # propagation delay began: reconstruct its time on the wire.
            start = self.sim.now - self.delay - self.serialization_time(frame.size)
            t.complete("link-tx", "netsim", start, self.sim.now,
                       link=self.name, bytes=frame.size,
                       corrupted=frame.corrupted)
        if self.deliver is not None:
            self.deliver(frame)

    # ------------------------------------------------------------------
    # run-time characteristic changes (the fault injector's hooks)
    # ------------------------------------------------------------------
    def set_bandwidth(self, bandwidth_bps: float) -> None:
        """Change the channel rate (bandwidth collapse / recovery).

        Only affects frames serialized from now on; the frame currently on
        the wire keeps the rate it started with.
        """
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth_bps = float(bandwidth_bps)

    def set_ber(self, ber: float) -> None:
        """Change the channel bit-error rate (BER storm / recovery)."""
        if not (0.0 <= ber < 1.0):
            raise ValueError("BER must be in [0, 1)")
        self.ber = float(ber)

    def set_queue_limit(self, queue_limit: int) -> None:
        """Shrink or grow the output queue.

        Shrinking below the current occupancy drops the excess from the
        *back* of the lowest-priority queues first (drop-tail semantics),
        counting them as overflow losses and surrendering their pooled
        payload references like every other drop site.
        """
        if queue_limit < 1:
            raise ValueError("queue limit must be >= 1")
        self.queue_limit = int(queue_limit)
        for q in reversed(self._queues):
            while self.queue_len > self.queue_limit and q:
                frame = q.pop()
                self.queue_len -= 1
                self.stats.dropped_overflow += 1
                self._count_drop("overflow", frame.size)
                self._drop_payload(frame)

    def fail(self) -> None:
        """Take the link down; queued and in-flight frames are lost.

        The drain is a first-class drop site: every queued frame is counted
        as ``dropped_down`` *and* surrenders its payload's wire reference,
        so pooled transport PDU shells go back to ``PDU_POOL`` instead of
        leaking with the cleared deque.
        """
        self.up = False
        for q in self._queues:
            lost = len(q)
            self.stats.dropped_down += lost
            if lost and _TELEMETRY.enabled:
                _TELEMETRY.metrics.counter(
                    "link_frames_dropped_total",
                    labels={"link": self.name, "reason": "down"},
                    help="frames lost at the link, by cause").inc(lost)
                _TELEMETRY.metrics.counter(
                    "link_bytes_dropped_total",
                    labels={"link": self.name, "reason": "down"},
                    help="bytes lost at the link, by cause",
                ).inc(sum(frame.size for frame in q))
            for frame in q:
                self._drop_payload(frame)
            q.clear()
        self.queue_len = 0

    def restore(self) -> None:
        """Bring the link back up."""
        self.up = True
