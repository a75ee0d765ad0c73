"""The UNITES facade: one sampler feeding the metric repository.

Two collection routes, matching §4.3's two monitoring modes:

1. applications request metrics through the ACD's Transport Measurement
   Component — MANTTS calls :meth:`UNITES.instrument`, which samples the
   instrumented session at the TMC's rate;
2. experimenters request metrics directly (:meth:`UNITES.watch_session`,
   :meth:`UNITES.watch_host`, ...) — the language/graphics interface of the
   paper is replaced by this programmatic one.

Each route is a sample function run by the one periodic sampler, whose
:class:`~repro.sim.timers.Timer` it returns; every sample lands in the
shared :class:`~repro.unites.repository.MetricRepository`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterable, Optional

from repro.sim.kernel import Simulator
from repro.sim.timers import Timer
from repro.unites.metrics import METRICS, session_snapshot
from repro.unites.obs.telemetry import TELEMETRY as _TELEMETRY
from repro.unites.repository import MetricRepository

if TYPE_CHECKING:  # pragma: no cover
    from repro.mantts.acd import TMC
    from repro.mantts.api import AdaptiveConnection
    from repro.tko.session import TKOSession

#: entity -> {metric: value}: one sample's rows within one scope
Rows = Dict[str, Dict[str, Optional[float]]]


class UNITES:
    """Facade tying specification, collection, and the repository together."""

    def __init__(self, sim: Simulator, repository: Optional[MetricRepository] = None) -> None:
        self.sim = sim
        self.repository = repository if repository is not None else MetricRepository()
        #: connection ref -> TMC presentation format requested in the ACD
        self._presentations: dict = {}

    # ------------------------------------------------------------------
    def _sample_every(
        self,
        interval: float,
        scope: str,
        sample: Callable[[], Rows],
        last: Optional[Callable[[], bool]] = None,
    ) -> Timer:
        """The one collection loop: every ``interval`` seconds, record the
        rows ``sample()`` returns under ``scope``; stand down after the
        sample taken once ``last()`` is true."""
        if interval <= 0:
            raise ValueError("sampling interval must be positive")

        def tick() -> None:
            for entity, values in sample().items():
                self.repository.record_many(self.sim.now, scope, entity, values)
            if last is not None and last():
                timer.cancel()

        timer = Timer(self.sim, tick, interval=interval, periodic=True)
        timer.schedule(interval)
        return timer

    # ------------------------------------------------------------------
    def instrument(self, connection: "AdaptiveConnection", tmc: "TMC") -> Timer:
        """Honour an ACD's Transport Measurement Component (route 1)."""
        assert connection.session is not None
        timer = self.watch_session(
            connection.session,
            connection.ref,
            metrics=tmc.metrics or None,
            interval=tmc.sampling_interval,
        )
        self._presentations[connection.ref] = tmc.presentation
        return timer

    def render_tmc(self, conn_ref: str) -> str:
        """Render one instrumented connection's metrics in the format its
        TMC asked for (Table 2's "presentation format" parameter)."""
        from repro.unites.present import render_csv, render_series, render_table

        fmt = self._presentations.get(conn_ref, "table")
        repo = self.repository
        metrics = repo.metrics_for("session", conn_ref)
        if not metrics:
            return f"(no samples for {conn_ref})"
        if fmt == "series":
            blocks = [
                render_series(repo.series(m, "session", conn_ref), label=m)
                for m in metrics
            ]
            return "\n".join(blocks)
        rows = []
        for m in metrics:
            series = repo.series(m, "session", conn_ref)
            rows.append(
                {"metric": m, "samples": len(series), "latest": series[-1][1]}
            )
        if fmt == "csv":
            return render_csv(rows, ["metric", "samples", "latest"])
        return render_table(rows, ["metric", "samples", "latest"],
                            title=f"== TMC report: {conn_ref} ==")

    def watch_session(
        self,
        session: "TKOSession",
        entity: str,
        metrics: Optional[Iterable[str]] = None,
        interval: float = 0.5,
    ) -> Timer:
        """Experimenter-driven collection (route 2); stands down after
        the first sample taken once the session has closed."""
        chosen = list(metrics) if metrics is not None else list(METRICS)
        unknown = [m for m in chosen if m not in METRICS]
        if unknown:
            raise KeyError(f"unknown metrics requested: {unknown}")

        def sample() -> Rows:
            registry = _TELEMETRY.metrics if _TELEMETRY.enabled else None
            return {entity: session_snapshot(session, chosen, registry=registry, entity=entity)}

        return self._sample_every(interval, "session", sample, last=lambda: session.closed)

    def watch_host(self, host, interval: float = 0.5) -> Timer:
        """Sample host-scope metrics (CPU utilization, buffer pressure)."""
        start_time = self.sim.now

        def sample() -> Rows:
            elapsed = max(1e-9, self.sim.now - start_time)
            return {host.name: {
                "cpu_utilization": host.cpu.utilization(elapsed),
                "buffer_fill": host.buffers.fill_fraction,
                "frames_sent": float(host.frames_sent),
                "frames_received": float(host.frames_received),
            }}

        return self._sample_every(interval, "host", sample)

    def watch_manager(self, manager, interval: float = 0.5) -> Timer:
        """Sample a host's connection-manager population gauges.

        Rows land in the ``"host"`` scope under the owning host's name:
        pending/open/degraded connection counts, lifetime totals,
        admission verdicts, and timer-group occupancy — the per-host
        scale view the connection-management layer maintains.
        """
        return self._sample_every(
            interval, "host", lambda: {manager.host.name: manager.snapshot()}
        )

    def watch_network(self, network, interval: float = 0.5) -> Timer:
        """Sample per-link counters into the repository's "link" scope.

        Rows come from each link's :class:`~repro.netsim.link.LinkStats`,
        so this works with telemetry enabled or disabled.
        """
        start_time = self.sim.now

        def sample() -> Rows:
            elapsed = max(1e-9, self.sim.now - start_time)
            rows: Rows = {}
            for link in network.links.values():
                st = link.stats
                rows[link.name] = {
                    "frames_enqueued": float(st.enqueued),
                    "frames_delivered": float(st.delivered),
                    "frames_dropped": float(
                        st.dropped_overflow + st.dropped_down + st.dropped_mtu
                    ),
                    "frames_corrupted": float(st.corrupted),
                    "queue_len": float(link.queue_len),
                    "utilization": st.utilization(elapsed),
                }
            return rows

        return self._sample_every(interval, "link", sample)

    def watch_telemetry(self, interval: float = 0.5) -> Timer:
        """Sample the UNITES-X registry's flat snapshot (kernel gauges,
        link counters, mechanism invocation counts) into the "system"
        scope, so :meth:`report` and the experiment harness read push-side
        telemetry as ordinary repository rows (none while it is disabled).
        """
        return self._sample_every(
            interval,
            "system",
            lambda: {"": _TELEMETRY.metrics.snapshot()} if _TELEMETRY.enabled else {},
        )

    # ------------------------------------------------------------------
    def report(self) -> str:
        """A full repository report at every scope (Figure 6's
        "systemwide, per-host, or per-connection" presentation, plus the
        UNITES-X per-link scope).

        Rows show the latest value of every metric per entity; the system
        scope aggregates each metric's mean across entities.
        """
        from repro.unites.present import render_table

        repo = self.repository
        sections, systemwide = [], []
        for scope, title in (
            ("session", "per-connection"),
            ("host", "per-host"),
            ("link", "per-link"),
        ):
            entities = repo.entities(scope)
            if not entities:
                continue
            metrics = sorted({m for e in entities for m in repo.metrics_for(scope, e)})
            rows = []
            for e in entities:
                row: dict = {"entity": e}
                for m in metrics:
                    row[m] = repo.latest(m, scope, e)
                rows.append(row)
            sections.append(render_table(rows, ["entity", *metrics],
                                         title=f"== UNITES {title} =="))
            if scope == "session":
                # systemwide: mean of each session metric across entities
                row = {"entity": "system"}
                for m in metrics:
                    values = [r[m] for r in rows if r[m] is not None]
                    row[m] = sum(values) / len(values) if values else None
                systemwide.append(render_table([row], ["entity", *metrics],
                                               title="== UNITES systemwide =="))
        sections += systemwide
        return "\n\n".join(sections) if sections else "(no metrics collected)"
