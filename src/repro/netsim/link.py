"""Point-to-point simplex link with serialization, queueing, and bit errors.

Each link is a single-server queue: frames wait in per-priority FIFO queues,
are serialized at the channel rate, then propagate for a fixed delay.  The
queue has finite capacity — overflow is *the* congestion-loss mechanism the
paper's adaptive policies respond to ("greater packet loss due to queue
overflows at intermediate switching nodes", §3(C)).

The server is *lazy*: a frame's whole trip is arithmetic on the instant it
was clocked onto the wire (``done = start + serialization``), so a hop
costs **one** kernel event — the landing at ``(done + delay) +`` the far
node's switching latency — and a second one, ``_drain`` at the instant the
wire frees, only when the frame had to queue.  Nothing can observe a frame
between those instants, so nothing is scheduled there (docs/performance.md,
"One event per hop").

Bit errors are applied per frame with probability ``1 - (1 - BER)**bits``
using the link's own random stream, so changing one link's traffic never
perturbs another's error pattern.  The stream is built at the link's first
draw: it is a pure function of ``(root_seed, "link:<name>")``, so a late
build draws what an eager one would, and a link that never sees a BER above
zero never builds one (nor loads numpy for it).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional


from repro.netsim.frame import Frame
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams
from repro.unites.obs.telemetry import TELEMETRY as _TELEMETRY

#: number of distinct priority classes a link serves (see frame.PRIO_*)
N_PRIORITIES = 3


@dataclass
class LinkStats:
    """Counters exposed to MANTTS' network monitor and to UNITES."""

    enqueued: int = 0
    delivered: int = 0
    dropped_overflow: int = 0
    dropped_down: int = 0
    dropped_mtu: int = 0
    corrupted: int = 0
    bytes_delivered: int = 0
    busy_time: float = 0.0

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` the channel spent transmitting."""
        return self.busy_time / elapsed if elapsed > 0 else 0.0


class Link:
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
        #: switching latency of the node ``deliver`` belongs to, folded into
        #: the landing instant; wired by ``Network.add_link`` and nowhere
        #: else — a stand-alone link lands at ``done + delay``
        self.far_latency = 0.0
        self.up = True
        self.stats = LinkStats()
        self._queues: list[deque[Frame]] = [deque() for _ in range(N_PRIORITIES)]
        #: frames waiting across ``_queues``, not counting the one on the
        #: wire — a maintained count, because every ``send`` reads it
        self.queue_len = 0
        #: the instant the wire frees: ``done`` of the last frame clocked on
        self._busy_until = 0.0
        #: a ``_drain`` event is pending at ``_busy_until`` (set whenever a
        #: frame waits; a frame never waits without one)
        self._draining = False
        #: ``(time, up-before, ber-before)`` for every ``fail`` / ``restore``
        #: / ``set_ber`` made while a frame was in flight: what ``_land``
        #: needs to judge a frame as of its ``done``.  Empty on a link no
        #: fault ever touched.
        self._changes: list[tuple[float, bool, float]] = []
        self._streams = rng
        #: ``link:<name>`` of ``_streams``, fetched at the first draw
        self._rng = None

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
        self.stats.enqueued += 1
        if _TELEMETRY.enabled:
            _TELEMETRY.metrics.counter(
                "link_frames_enqueued_total", labels={"link": self.name},
                help="frames accepted into the link queue").inc()
            _TELEMETRY.metrics.counter(
                "link_bytes_enqueued_total", labels={"link": self.name},
                help="bytes accepted into the link queue").inc(frame.size)
        now = self.sim.now
        if self._draining or now < self._busy_until:
            # busy wire: wait, with one ``_drain`` armed for the instant it
            # frees.  Priority -1 is the tie rule — at one instant the wire
            # frees before a frame arrives.
            prio = min(max(frame.priority, 0), N_PRIORITIES - 1)
            self._queues[prio].append(frame)
            self.queue_len += 1
            if not self._draining:
                self._draining = True
                self.sim.schedule_transient_at(
                    self._busy_until, self._drain, priority=-1)
        else:
            self._clock_on(frame, now)
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

    def _drain(self) -> None:
        """The wire frees: clock the next waiting frame onto it."""
        for q in self._queues:
            if q:
                frame = q.popleft()
                break
        else:  # ``fail`` or ``set_queue_limit`` emptied the queue meanwhile
            self._draining = False
            return
        self.queue_len -= 1
        self._clock_on(frame, self.sim.now)
        if self.queue_len:
            self.sim.schedule_transient_at(
                self._busy_until, self._drain, priority=-1)
        else:
            self._draining = False

    def _clock_on(self, frame: Frame, now: float) -> None:
        """Put ``frame`` on the free wire; it leaves it at ``done``."""
        ser = frame.size * 8.0 / self.bandwidth_bps  # serialization_time()
        self.stats.busy_time += ser
        self._busy_until = done = now + ser
        self._launch(frame, done)

    def _launch(self, frame: Frame, done: float) -> None:
        """Schedule the one event of a frame that leaves the wire at ``done``.

        With ``done = now + ser`` the additions are the three a per-stage
        model makes, in its order (serialization end, plus propagation, plus
        switching) — regrouping them moves simulated times by an ulp.  Shard
        boundary links override this hook
        (:class:`repro.shard.gateway.GatewayLink`) to land at ``done``
        itself, because the far shard must hear of the frame a full
        propagation delay ahead.
        """
        self.sim.schedule_transient_at(
            (done + self.delay) + self.far_latency, self._land, frame, done)

    def _land(self, frame: Frame, done: float) -> None:
        """Decide the frame's fate on the channel as of ``done``; deliver it.

        Landings fire in transmission order (``done`` is strictly increasing
        per link and delay/latency are fixed), so the link's random stream
        is drawn in the order a per-stage model draws it.  ``_changes``
        supplies the ``up`` / ``ber`` in force at ``done`` when a fault
        moved them since; entries older than ``done`` can matter to no later
        frame and are pruned here.
        """
        up = self.up
        ber = self.ber
        log = self._changes
        if log:
            while log and log[0][0] < done:
                del log[0]
            if log:
                _, up, ber = log[0]
        # Channel errors are imposed while the frame is on the wire.
        if ber > 0.0 and not frame.corrupted:
            p_err = 1.0 - (1.0 - ber) ** (frame.size * 8)
            gen = self._rng
            if gen is None:
                gen = self._rng = self._streams.stream(f"link:{self.name}")
            if gen.random() < p_err:
                frame.corrupted = True
                self.stats.corrupted += 1
                if _TELEMETRY.enabled:
                    _TELEMETRY.metrics.counter(
                        "link_frames_corrupted_total", labels={"link": self.name},
                        help="frames hit by channel bit errors").inc()
        if not up:
            self.stats.dropped_down += 1
            self._count_drop("down", frame.size)
            self._drop_payload(frame)
            return
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
            # time on the wire: serialization (at today's rate) then delay
            t.complete("link-tx", "netsim",
                       done - self.serialization_time(frame.size),
                       done + self.delay,
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
        self._note_change()
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
        leaking with the cleared deque.  The frame on the wire is judged
        when it lands, as of the instant it leaves the wire: lost unless the
        link is back up by then; a frame already propagating arrives.
        """
        self._note_change()
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
        self._note_change()
        self.up = True

    def _note_change(self) -> None:
        """Log ``up`` / ``ber`` as they stand, ahead of a change to either.

        Only frames already clocked onto the wire can need the old values
        (every later frame leaves the wire after now), so with none in
        flight the log is dropped instead of grown.
        """
        now = self.sim.now
        if now > (self._busy_until + self.delay) + self.far_latency:
            self._changes.clear()
        else:
            self._changes.append((now, self.up, self.ber))
