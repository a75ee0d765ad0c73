"""UNITES-X — the full-system observability layer.

The paper positions UNITES as "a controlled prototyping environment for
monitoring, analyzing, and experimenting" (§4.3).  The base ``repro.unites``
modules cover the *metric* half of that promise (session-scope snapshots in
a repository); this subpackage adds the *systems* half:

* :mod:`repro.unites.obs.telemetry` — hierarchical spans with sim-time and
  wall-time stamps, carried through a zero-cost-when-disabled global
  :data:`~repro.unites.obs.telemetry.TELEMETRY` handle that every layer
  (sim kernel, netsim links, MANTTS negotiation, TKO sessions and
  mechanisms) hooks into;
* :mod:`repro.unites.obs.registry` — a typed metric registry (counters,
  gauges, fixed-bucket histograms) that backs the session snapshots of
  :mod:`repro.unites.metrics` and routes into the
  :class:`~repro.unites.repository.MetricRepository`;
* :mod:`repro.unites.obs.exporters` — JSONL event logs, Chrome
  ``trace_event`` JSON (loadable in Perfetto / ``chrome://tracing``), and
  Prometheus-style text dumps (with :func:`~repro.unites.obs.exporters.
  validate_prometheus` structural checks);
* :mod:`repro.unites.obs.audit` — the QoS conformance **audit plane**:
  per-connection contract capture, sliding-window measurement of the
  delivered service, typed :class:`~repro.unites.obs.audit.QoSViolation`
  events, and scorecards behind the global
  :data:`~repro.unites.obs.audit.AUDIT` handle;
* :mod:`repro.unites.obs.flight` — the bounded black-box flight recorder
  and its post-hoc analyzer (``python -m repro.unites.obs.flight``);
* :mod:`repro.unites.obs.server` — a stdlib daemon-thread HTTP endpoint
  serving ``/metrics``, ``/healthz``, ``/connections``, and ``/audit``
  from the live registries; ``TelemetryServer`` is resolved at first
  attribute access (PEP 562) so that ``http.server`` and ``email`` load
  only in a process that serves.

These modules are deliberate *leaves*: they import nothing from the rest of
``repro``, so the lowest substrate (``repro.sim.kernel``) can import the
telemetry handle without cycles.
"""

from repro.unites.obs.registry import Counter, Gauge, Histogram, MetricRegistry
from repro.unites.obs.telemetry import NULL_SPAN, TELEMETRY, Span, Telemetry
from repro.unites.obs.exporters import (
    render_prometheus,
    to_chrome_trace,
    to_jsonl,
    validate_prometheus,
    write_chrome_trace,
    write_jsonl,
)
from repro.unites.obs.audit import (
    AUDIT,
    AuditPlane,
    QoSAuditor,
    QoSContract,
    QoSViolation,
)
from repro.unites.obs.flight import FlightRecorder, analyze as analyze_flight

__all__ = [
    "AUDIT",
    "AuditPlane",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NULL_SPAN",
    "QoSAuditor",
    "QoSContract",
    "QoSViolation",
    "TELEMETRY",
    "TelemetryServer",
    "Span",
    "Telemetry",
    "analyze_flight",
    "render_prometheus",
    "to_chrome_trace",
    "to_jsonl",
    "validate_prometheus",
    "write_chrome_trace",
    "write_jsonl",
]


def __getattr__(name: str):
    if name == "TelemetryServer":
        from repro.unites.obs.server import TelemetryServer

        globals()[name] = TelemetryServer
        return TelemetryServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
