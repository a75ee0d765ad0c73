"""MANTTS Network Monitor Interface (MANTTS-NMI).

"A network state descriptor maintained by the MANTTS-NMI samples, records,
and estimates the current state of dynamic network characteristics"
(§4.1.1).  The monitor watches one path, periodically sampling:

* static-per-route facts — path MTU, bottleneck bandwidth, compound BER,
  base propagation RTT (these change when routes change, which is exactly
  the failover signal of §4.1.2);
* dynamic state — queue occupancy along the path (the congestion signal)
  and measured loss at the path's links, both EWMA-smoothed.

The intermediate-node visibility models the paper's negotiation "with
intermediate switching nodes": ADAPTIVE switch nodes expose their queue
state to MANTTS entities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Tuple

from repro.netsim.network import Network
from repro.sim.kernel import Simulator
from repro.sim.timers import Timer


@dataclass(frozen=True, slots=True)
class NetworkState:
    """One snapshot of a path's characteristics."""

    src: str
    dst: str
    reachable: bool
    rtt: float                 #: estimated round-trip time, seconds
    base_rtt: float            #: unloaded (propagation + serialization) RTT
    bottleneck_bps: float
    mtu: int
    ber: float
    congestion: float          #: mean queue fill fraction along path [0,1]
    loss_rate: float           #: EWMA of per-link overflow drop fraction
    hops: int
    #: the node sequence currently routing this path — a change here *is*
    #: the §4.1.2 failover signal ("routes change from a terrestrial link
    #: to a satellite link"); empty when unreachable
    path: Tuple[str, ...] = ()
    #: smallest per-link queue capacity along the path, in PDUs — the
    #: burst the route can absorb without drop-tail loss (0 = unknown)
    queue_limit: int = 0

    @property
    def bandwidth_delay_pdus(self) -> int:
        """Bandwidth×delay product in nominal 1 kB PDUs — window sizing."""
        if self.rtt <= 0 or self.bottleneck_bps <= 0:
            return 1
        return max(1, int(self.bottleneck_bps * self.rtt / (8 * 1024)))


class PathProbe(NamedTuple):
    """One raw (un-smoothed) walk of a path's links.

    Everything here is a pure read of network state at one instant, so
    monitors watching the same ``(src, dst)`` pair inside the same kernel
    event may share a single probe (the ConnectionManager's probe cache);
    the per-connection EWMA fold stays private to each monitor.
    """

    reachable: bool
    inst_congestion: float
    inst_queue_delay: float
    drops: int
    offered: int
    base_rtt: float
    bottleneck_bps: float
    mtu: int
    ber: float
    hops: int
    path: Tuple[str, ...]
    queue_limit: int


def probe_path(network: Network, src: str, dst: str) -> PathProbe:
    """Walk the path once, collecting every raw input the fold needs."""
    links = network.path_links(src, dst)
    if not links:
        return PathProbe(False, 0.0, 0.0, 0, 0, float("inf"), 0.0, 0, 1.0, 0, (), 0)
    inst_cong = network.path_queue_occupancy(src, dst)
    qdelay = sum(l.queue_len * 1000 * 8.0 / l.bandwidth_bps for l in links)
    drops = sum(l.stats.dropped_overflow for l in links)
    offered = sum(l.stats.enqueued + l.stats.dropped_overflow for l in links)
    base_rtt = network.nominal_rtt(src, dst) or float("inf")
    return PathProbe(
        reachable=True,
        inst_congestion=inst_cong,
        inst_queue_delay=qdelay,
        drops=drops,
        offered=offered,
        base_rtt=base_rtt,
        bottleneck_bps=network.path_bottleneck_bps(src, dst) or 0.0,
        mtu=network.path_mtu(src, dst) or 0,
        ber=network.path_ber(src, dst),
        hops=len(links),
        path=tuple(network.route(src, dst) or ()),
        queue_limit=min(l.queue_limit for l in links),
    )


class NetworkMonitor:
    """Periodic sampler producing :class:`NetworkState` for one path."""

    #: EWMA smoothing factor for congestion/loss estimates
    ALPHA = 0.3

    __slots__ = ("sim", "network", "src", "dst", "interval", "_congestion",
                 "_loss", "_queue_delay", "_prev_counts", "samples",
                 "on_sample", "_timer")

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        src: str,
        dst: str,
        interval: float = 0.1,
    ) -> None:
        if interval <= 0:
            raise ValueError("monitor interval must be positive")
        self.sim = sim
        self.network = network
        self.src = src
        self.dst = dst
        self.interval = interval
        self._congestion = 0.0
        self._loss = 0.0
        self._queue_delay = 0.0
        self._prev_counts: Optional[tuple] = None
        self.samples = 0
        self.on_sample: List[Callable[[NetworkState], None]] = []
        self._timer = Timer(sim, self._tick, interval=interval, periodic=True)

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._timer.schedule(self.interval)

    def stop(self) -> None:
        self._timer.cancel()

    def retire(self) -> None:
        """Stop for good: the owner is gone, and so are the subscribers."""
        self.stop()
        del self.on_sample[:]  # in place: a ``_tick`` iterating it ends here
        self.on_sample = []
        self._timer.fn = None  # timer -> bound ``_tick`` -> self is a cycle

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self.samples += 1
        state = self.snapshot()
        for cb in self.on_sample:
            cb(state)

    def _probe(self) -> PathProbe:
        """One raw path walk; subclasses may serve this from a shared cache."""
        return probe_path(self.network, self.src, self.dst)

    def snapshot(self) -> NetworkState:
        """Sample the path now and fold into the smoothed estimates."""
        raw = self._probe()
        if not raw.reachable:
            return NetworkState(
                self.src, self.dst, False, float("inf"), float("inf"),
                0.0, 0, 1.0, 1.0, 1.0, 0,
            )
        # congestion: instantaneous queue occupancy, smoothed
        self._congestion += self.ALPHA * (raw.inst_congestion - self._congestion)
        # queueing delay contribution: queued bytes / link rate, summed
        self._queue_delay += self.ALPHA * (raw.inst_queue_delay - self._queue_delay)
        # loss: delta of overflow drops vs delta of offered frames
        if self._prev_counts is not None:
            d_drop = raw.drops - self._prev_counts[0]
            d_off = raw.offered - self._prev_counts[1]
            inst_loss = d_drop / d_off if d_off > 0 else 0.0
            self._loss += self.ALPHA * (inst_loss - self._loss)
        self._prev_counts = (raw.drops, raw.offered)

        return NetworkState(
            src=self.src,
            dst=self.dst,
            reachable=True,
            rtt=raw.base_rtt + 2 * self._queue_delay,
            base_rtt=raw.base_rtt,
            bottleneck_bps=raw.bottleneck_bps,
            mtu=raw.mtu,
            ber=raw.ber,
            congestion=self._congestion,
            loss_rate=max(0.0, self._loss),
            hops=raw.hops,
            path=raw.path,
            queue_limit=raw.queue_limit,
        )
