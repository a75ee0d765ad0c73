"""Per-host connection management: the scale layer of Figure 3.

The paper separates a *shared control path* (MANTTS negotiation, resource
admission) from *per-connection data paths* precisely so one transport
system instance can serve many application sessions.  Until this module
the reproduction hand-assembled one connection at a time: every
``AdaptiveConnection`` owned a free-running network monitor, every guard
timer was a separate kernel event, and nothing tracked the host's
connection population as a whole.

:class:`ConnectionManager` is that missing per-host layer.  One instance
rides along with every MANTTS entity and owns:

* the **connection table** — every live ``AdaptiveConnection`` keyed by
  ref and, once established, by its ``PortTable`` demux tuple
  ``(local_port, remote_host, remote_port)``;
* **shared path probing** — raw link-walks (:func:`repro.mantts.monitor.
  probe_path`) are cached per kernel event, so N monitors watching the
  same path inside one dispatch pay for one walk (each monitor keeps its
  own EWMA fold, so per-connection smoothing is unchanged);
* **lazy monitors** — a :class:`ManagedMonitor` only arms its sampling
  tick while something consumes samples (a policy engine with rules, an
  adaptation controller, or an explicit subscriber).  Sample *phase* is
  preserved: a monitor armed late ticks on the same ``start + k·interval``
  boundaries the free-running monitor would have used;
* **timer groups** — periodic samplers and one-shot reservation guards
  that fire at the same instant share one kernel event
  (:class:`TimerGroup`), so a wave of 100 connection opens costs one
  tick event per period instead of 100;
* **Stage II memoisation** — identical ``(ACD, network-state, TSC,
  binding)`` transformations return a fresh copy of a cached SCS instead
  of re-deriving the whole configuration;
* **admission + population accounting** — per-host gauges (pending /
  open / degraded connection counts, admission accepts/rejects, timer
  occupancy) published to UNITES-X when telemetry is enabled.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro.host.nic import Host
from repro.mantts.monitor import NetworkMonitor, PathProbe, probe_path
from repro.tko import ends
from repro.unites.obs.telemetry import TELEMETRY as _TELEMETRY

if TYPE_CHECKING:  # pragma: no cover
    from repro.mantts.acd import ACD
    from repro.mantts.adaptation import AdaptationController
    from repro.mantts.api import MANTTS, AdaptiveConnection
    from repro.mantts.monitor import NetworkState
    from repro.mantts.scs import SCS
    from repro.mantts.tsc import TSC

ConnKey = Tuple[int, str, int]


class GroupHandle:
    """Cancellable membership of one :class:`TimerGroup` bucket."""

    __slots__ = ("group", "when", "fn", "cancelled")

    def __init__(self, group: "TimerGroup", when: float, fn: Callable[[], None]) -> None:
        self.group = group
        self.when = when
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            self.group._member_cancelled(self.when)


class TimerGroup:
    """Coalesces callbacks due at the same instant onto one kernel event.

    Members join with an *absolute* fire time (:meth:`at`); all members
    sharing a fire time share one event on the PR-4 timer wheel.  Within a
    bucket, callbacks run in join order — the same relative order separate
    kernel events at an equal timestamp would have produced, so the
    coalescing is invisible to the simulation's results.
    """

    def __init__(self, sim, on_fire: Optional[Callable[[], None]] = None) -> None:
        self.sim = sim
        self._buckets: Dict[float, List[GroupHandle]] = {}
        self._events: Dict[float, object] = {}
        self._active: Dict[float, int] = {}
        self.on_fire = on_fire    #: called at the start of each bucket fire
        self.in_fire = False      #: True while a bucket's callbacks run
        self.fires = 0            #: kernel events actually dispatched
        self.calls = 0            #: member callbacks run
        self.coalesced = 0        #: callbacks that shared another's event

    def at(self, when: float, fn: Callable[[], None]) -> GroupHandle:
        """Run ``fn`` at absolute sim time ``when`` (>= now)."""
        handle = GroupHandle(self, when, fn)
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [handle]
            self._active[when] = 1
            self._events[when] = self.sim.schedule_timer(
                max(0.0, when - self.sim.now), self._fire, when
            )
        else:
            bucket.append(handle)
            self._active[when] += 1
        return handle

    def _member_cancelled(self, when: float) -> None:
        remaining = self._active.get(when)
        if remaining is None:
            return
        remaining -= 1
        self._active[when] = remaining
        if remaining <= 0:
            # last live member gone: drop the kernel event too
            event = self._events.pop(when, None)
            if event is not None:
                self.sim.cancel(event)
            self._buckets.pop(when, None)
            self._active.pop(when, None)

    def _fire(self, when: float) -> None:
        self._events.pop(when, None)
        self._active.pop(when, None)
        handles = self._buckets.pop(when, [])
        self.fires += 1
        if self.on_fire is not None:
            self.on_fire()
        ran = 0
        self.in_fire = True
        try:
            for handle in handles:
                if not handle.cancelled:
                    ran += 1
                    handle.fn()
        finally:
            self.in_fire = False
        self.calls += ran
        if ran > 1:
            self.coalesced += ran - 1

    @property
    def occupancy(self) -> int:
        """Live (uncancelled) memberships across all pending buckets."""
        return sum(self._active.values())


class ManagedMonitor(NetworkMonitor):
    """A :class:`NetworkMonitor` owned by a :class:`ConnectionManager`.

    Identical smoothing and sample semantics, with two scale properties:

    * raw path walks go through the manager's per-dispatch probe cache;
    * the periodic tick only runs while someone consumes samples.  The
      tick rides the manager's :class:`TimerGroup`, on the exact
      ``start + k·interval`` boundaries the free-running timer would hit,
      so samples that *are* delivered match the eager monitor's.
    """

    __slots__ = ("manager", "conn", "started", "_started_at", "_next_tick",
                 "_handle")

    def __init__(
        self,
        manager: "ConnectionManager",
        sim,
        network,
        src: str,
        dst: str,
        interval: float = 0.1,
        conn: Optional["AdaptiveConnection"] = None,
    ) -> None:
        super().__init__(sim, network, src, dst, interval=interval)
        self.manager = manager
        self.conn = conn
        self.started = False
        self._started_at = 0.0
        self._next_tick = 0.0
        self._handle: Optional[GroupHandle] = None
        self.on_sample = _SampleHooks(self)

    # -- probe sharing --------------------------------------------------
    def _probe(self) -> PathProbe:
        return self.manager.probe(self.network, self.src, self.dst)

    # -- lazy arming ----------------------------------------------------
    @property
    def wants_samples(self) -> bool:
        """Would a delivered sample have any observable effect right now?"""
        if self.conn is None:
            return True  # stand-alone use: behave like the eager monitor
        # bound-method access builds a fresh object each time: compare by
        # equality (same function, same instance), not identity
        own = self.conn._on_network_sample
        if any(cb != own for cb in self.on_sample):
            return True
        policies = getattr(self.conn, "policies", None)
        return bool(policies is not None and policies.active)

    def start(self) -> None:
        self.started = True
        self._started_at = self.sim.now
        self._next_tick = self._started_at + self.interval
        self.poke()

    def stop(self) -> None:
        self.started = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def retire(self) -> None:
        super().retire()  # also drops the hooks, which point back here
        self.conn = None

    def poke(self) -> None:
        """Re-evaluate arming (a subscriber or policy rule changed)."""
        if not self.started or self._handle is not None:
            return
        if not self.wants_samples:
            return
        # catch the phase up to the next boundary the eager monitor would
        # tick on (iterated addition matches Timer's rescheduling floats)
        now = self.sim.now
        while self._next_tick <= now:
            self._next_tick += self.interval
        self._handle = self.manager.sampler_group.at(self._next_tick, self._group_tick)

    def _group_tick(self) -> None:
        self._handle = None
        if not self.started:
            return
        # re-arm before sampling: Timer._expire schedules the next expiry
        # before running the callback, and event ordering must match
        self._next_tick += self.interval
        if self.wants_samples:
            self._handle = self.manager.sampler_group.at(
                self._next_tick, self._group_tick
            )
        self._tick()


class _SampleHooks(list):
    """``on_sample`` list that re-arms its lazy monitor when it changes."""

    __slots__ = ("_monitor",)

    def __init__(self, monitor: ManagedMonitor) -> None:
        super().__init__()
        self._monitor = monitor

    def append(self, cb) -> None:  # type: ignore[override]
        super().append(cb)
        self._monitor.poke()

    def extend(self, cbs) -> None:  # type: ignore[override]
        super().extend(cbs)
        self._monitor.poke()

    def insert(self, index, cb) -> None:  # type: ignore[override]
        super().insert(index, cb)
        self._monitor.poke()


class ConnectionManager:
    """The per-host connection table, shared caches, and timer groups."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self.sim = host.sim
        self.mantts: Optional["MANTTS"] = None

        #: every live connection handle, by ref
        self.connections: Dict[str, "AdaptiveConnection"] = {}
        #: established connections by their PortTable demux tuple
        self.by_key: Dict[ConnKey, str] = {}
        self._keys: Dict[str, ConnKey] = {}
        self.pending_refs: Set[str] = set()
        self.open_refs: Set[str] = set()
        self.degraded_refs: Set[str] = set()
        self.controllers: Dict[str, "AdaptationController"] = {}

        # lifetime totals
        self.opened_total = 0
        self.established_total = 0
        #: connections ended, by :func:`repro.tko.ends.kind` of the reason
        self.ends_by_reason: Counter = Counter()
        #: the subset of those that never established (failed opens)
        self.failed_by_reason: Counter = Counter()
        self.admission_accepted = 0
        self.admission_rejected = 0

        #: shared bucketed scheduler for monitor ticks + guard timers
        self.sampler_group = TimerGroup(self.sim, on_fire=self._begin_probe_batch)
        self._probe_cache: Dict[Tuple[str, str], PathProbe] = {}
        self.probe_hits = 0
        self.probe_misses = 0
        self._scs_cache: Dict[tuple, "SCS"] = {}
        self.scs_hits = 0
        self.scs_misses = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind(self, mantts: "MANTTS") -> None:
        """Attach the MANTTS entity this manager serves (one per host)."""
        self.mantts = mantts

    @property
    def resources(self):
        return self.mantts.resources if self.mantts is not None else None

    # ------------------------------------------------------------------
    # shared path probing (one raw link walk per path per kernel event)
    # ------------------------------------------------------------------
    def _begin_probe_batch(self) -> None:
        self._probe_cache.clear()

    def probe(self, network, src: str, dst: str) -> PathProbe:
        """One raw path walk, shared within a coalesced tick batch.

        The cache lives only while a :class:`TimerGroup` bucket is firing:
        link state is constant inside one kernel event (all data-path
        mutation is scheduled, never synchronous), so N monitors sampling
        the same path in one batch share a single walk.  Outside a batch
        (eager Stage-II snapshots, renegotiation probes) every call walks
        fresh — there is no cross-event staleness to reason about.
        """
        if not self.sampler_group.in_fire:
            return probe_path(network, src, dst)
        key = (src, dst)
        cached = self._probe_cache.get(key)
        if cached is not None:
            self.probe_hits += 1
            return cached
        raw = probe_path(network, src, dst)
        self._probe_cache[key] = raw
        self.probe_misses += 1
        return raw

    # ------------------------------------------------------------------
    # monitors
    # ------------------------------------------------------------------
    def monitor_for(
        self,
        dst: str,
        interval: float,
        conn: Optional["AdaptiveConnection"] = None,
    ) -> ManagedMonitor:
        """A lazy, probe-sharing path monitor from this host to ``dst``."""
        return ManagedMonitor(
            self, self.sim, self.host.network, self.host.name, dst,
            interval=interval, conn=conn,
        )

    # ------------------------------------------------------------------
    # Stage II memoisation
    # ------------------------------------------------------------------
    def scs_for(
        self,
        acd: "ACD",
        state: "NetworkState",
        tsc: "TSC",
        binding: str,
    ) -> "SCS":
        """Derive (or reuse) the Stage II transformation for ``acd``.

        Cache hits return a *fresh* SCS object (copied rationale, same
        immutable config) so later per-connection mutation — negotiation
        notes, counter-proposal merges — never leaks across connections.
        """
        from repro.mantts.transform import specify_scs

        try:
            key = (acd, state, tsc, binding)
            cached = self._scs_cache.get(key)
        except TypeError:  # unhashable ACD payload (callable-free rule data)
            return specify_scs(acd, state, tsc=tsc, binding=binding)
        if cached is None:
            cached = specify_scs(acd, state, tsc=tsc, binding=binding)
            self._scs_cache[key] = cached
            self.scs_misses += 1
        else:
            self.scs_hits += 1
        return cached.clone()

    # ------------------------------------------------------------------
    # coalesced one-shot timers (reservation guards etc.)
    # ------------------------------------------------------------------
    def defer(self, delay: float, fn: Callable[[], None]) -> GroupHandle:
        """Run ``fn`` after ``delay``; equal deadlines share one event."""
        return self.sampler_group.at(self.sim.now + delay, fn)

    # ------------------------------------------------------------------
    # connection table + lifecycle accounting
    # ------------------------------------------------------------------
    def connection_opening(self, conn: "AdaptiveConnection") -> None:
        self.connections[conn.ref] = conn
        self.pending_refs.add(conn.ref)
        self.opened_total += 1
        self._publish()

    def connection_established(self, conn: "AdaptiveConnection") -> None:
        self.pending_refs.discard(conn.ref)
        self.open_refs.add(conn.ref)
        self.established_total += 1
        session = conn.session
        if session is not None:
            key = (session.local_port, session.remote_host, session.remote_port)
            self.by_key[key] = conn.ref
            self._keys[conn.ref] = key
        self._publish()

    def connection_ended(self, conn: "AdaptiveConnection", reason: str) -> None:
        self._drop(conn.ref)
        reason = ends.kind(reason)
        self.ends_by_reason[reason] += 1
        if conn.lifecycle.failed:
            self.failed_by_reason[reason] += 1
        self._publish()

    def _drop(self, ref: str) -> None:
        self.connections.pop(ref, None)
        self.pending_refs.discard(ref)
        self.open_refs.discard(ref)
        self.degraded_refs.discard(ref)
        self.controllers.pop(ref, None)
        key = self._keys.pop(ref, None)
        if key is not None:
            self.by_key.pop(key, None)

    def lookup(self, local_port: int, remote_host: str, remote_port: int):
        """The established connection owning a demux tuple, if any."""
        ref = self.by_key.get((local_port, remote_host, remote_port))
        return self.connections.get(ref) if ref is not None else None

    # ------------------------------------------------------------------
    # admission + adaptation accounting
    # ------------------------------------------------------------------
    def note_admission(self, verdict: str) -> None:
        if verdict == "accept":
            self.admission_accepted += 1
        else:
            self.admission_rejected += 1
        self._publish()

    def register_controller(self, controller: "AdaptationController") -> None:
        """Adaptation controllers attach here instead of free-floating."""
        self.controllers[controller.conn.ref] = controller

    def note_degraded(self, conn: "AdaptiveConnection", degraded: bool) -> None:
        if degraded:
            self.degraded_refs.add(conn.ref)
        else:
            self.degraded_refs.discard(conn.ref)
        self._publish()

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def table(self) -> List[Dict[str, object]]:
        """The live connection table as plain rows (telemetry endpoint).

        Each row carries the ref, lifecycle state, demux tuple (once
        established), current adaptation rung, and — when the audit plane
        is on — the connection's conformance score and violation count.
        Read-only: building the table never touches protocol state.
        """
        from repro.mantts.adaptation import LEVELS as _LEVELS
        from repro.unites.obs.audit import AUDIT as _AUDIT

        rows: List[Dict[str, object]] = []
        for ref in sorted(self.connections):
            row: Dict[str, object] = {
                "ref": ref,
                "host": self.host.name,
                "state": ("pending" if ref in self.pending_refs else "degraded"
                          if ref in self.degraded_refs else "open"),
            }
            key = self._keys.get(ref)
            if key is not None:
                row["local_port"], row["remote_host"], row["remote_port"] = key
            ctrl = self.controllers.get(ref)
            if ctrl is not None:
                row["adaptation_level"] = _LEVELS[ctrl.level]
            auditor = _AUDIT.auditors.get(ref) if _AUDIT.enabled else None
            if auditor is not None:
                row["qos_score"] = round(auditor.overall_score, 4)
                row["qos_violations"] = len(auditor.violations)
            rows.append(row)
        return rows

    def audit_scorecards(self) -> List[Dict[str, object]]:
        """Conformance scorecards for this host's audited connections."""
        from repro.unites.obs.audit import AUDIT as _AUDIT

        return [
            _AUDIT.auditors[ref].scorecard()
            for ref in sorted(self.connections)
            if ref in _AUDIT.auditors
        ]

    def snapshot(self) -> Dict[str, float]:
        """The per-host gauge set (also what UNITES publishes)."""
        failed = self.failed_by_reason.total()
        return {
            "conn_pending": float(len(self.pending_refs)),
            "conn_open": float(len(self.open_refs)),
            "conn_degraded": float(len(self.degraded_refs)),
            "conn_opened_total": float(self.opened_total),
            "conn_established_total": float(self.established_total),
            "conn_closed_total": float(self.ends_by_reason.total() - failed),
            "conn_failed_total": float(failed),
            "admission_accepted": float(self.admission_accepted),
            "admission_rejected": float(self.admission_rejected),
            "timer_group_occupancy": float(self.sampler_group.occupancy),
            "timer_group_coalesced": float(self.sampler_group.coalesced),
            "probe_cache_hits": float(self.probe_hits),
            "scs_cache_hits": float(self.scs_hits),
        }

    def _publish(self) -> None:
        if not _TELEMETRY.enabled:
            return
        metrics = _TELEMETRY.metrics
        labels = {"host": self.host.name}
        metrics.gauge(
            "connmgr_pending_connections", labels=labels,
            help="connections in establishment on this host",
        ).set(len(self.pending_refs))
        metrics.gauge(
            "connmgr_open_connections", labels=labels,
            help="established connections on this host",
        ).set(len(self.open_refs))
        metrics.gauge(
            "connmgr_degraded_connections", labels=labels,
            help="connections currently at the degraded adaptation level",
        ).set(len(self.degraded_refs))
        metrics.gauge(
            "connmgr_timer_group_occupancy", labels=labels,
            help="live memberships across the host's coalesced timer buckets",
        ).set(self.sampler_group.occupancy)
        metrics.counter(
            "connmgr_admission_decisions_total",
            labels={**labels, "verdict": "accept"},
            help="admission verdicts recorded by the connection manager",
        ).value = float(self.admission_accepted)
        metrics.counter(
            "connmgr_admission_decisions_total",
            labels={**labels, "verdict": "reject"},
            help="admission verdicts recorded by the connection manager",
        ).value = float(self.admission_rejected)
        from repro.unites.obs.audit import AUDIT as _AUDIT

        if _AUDIT.enabled:
            audited = [
                _AUDIT.auditors[ref]
                for ref in self.connections
                if ref in _AUDIT.auditors
            ]
            metrics.gauge(
                "connmgr_audited_connections", labels=labels,
                help="live connections with a QoS conformance auditor attached",
            ).set(len(audited))
            metrics.gauge(
                "connmgr_qos_violations_open", labels=labels,
                help="QoS violations recorded against this host's live connections",
            ).set(sum(len(a.violations) for a in audited))

    def __len__(self) -> int:
        return len(self.connections)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ConnectionManager {self.host.name} "
            f"pending={len(self.pending_refs)} open={len(self.open_refs)}>"
        )
