"""UNITES — "UNIform Transport Evaluation Subsystem" (§4.3, Figure 6).

Metric specification, collection, analysis, and presentation for
controlled transport-system experimentation:

* :mod:`repro.unites.metrics` — the blackbox/whitebox metric catalogue;
* :mod:`repro.unites.repository` — the metric repository (an in-memory
  database queried per-session, per-host, per-link, or system-wide);
* :mod:`repro.unites.collect` — the ``UNITES`` facade that MANTTS hands
  TMC requests to; every ``instrument`` / ``watch_*`` route is one sample
  function run by its one periodic sampler, which writes the repository;
* :mod:`repro.unites.analyze` — statistics and A/B comparison;
* :mod:`repro.unites.present` — tables / CSV / series;
* :mod:`repro.unites.experiment` — the controlled hypothesis-testing
  harness used by every benchmark in ``benchmarks/``;
* :mod:`repro.unites.obs` — UNITES-X: the span/trace bus, typed metric
  registry, and exporters that instrument every layer of the system
  (see ``docs/observability.md``).

This package resolves its re-exports lazily (PEP 562): the observability
substrate in :mod:`repro.unites.obs` is imported by the lowest layers of
the system (``repro.sim.kernel``, ``repro.netsim.link``), and an eager
``__init__`` here would close an import cycle through
``repro.unites.collect`` → ``repro.sim.kernel``.
"""

from importlib import import_module

_EXPORTS = {
    # metrics catalogue
    "BLACKBOX": "repro.unites.metrics",
    "METRICS": "repro.unites.metrics",
    "WHITEBOX": "repro.unites.metrics",
    "MetricSpec": "repro.unites.metrics",
    "session_snapshot": "repro.unites.metrics",
    # repository
    "MetricRepository": "repro.unites.repository",
    # collection facade
    "UNITES": "repro.unites.collect",
    # analysis / presentation
    "compare": "repro.unites.analyze",
    "percentile": "repro.unites.analyze",
    "summarize": "repro.unites.analyze",
    "render_csv": "repro.unites.present",
    "render_series": "repro.unites.present",
    "render_table": "repro.unites.present",
    # experiment harness
    "Experiment": "repro.unites.experiment",
    "VariantResult": "repro.unites.experiment",
    # protocol event tracing
    "SessionTracer": "repro.unites.trace",
    "TraceEvent": "repro.unites.trace",
    # UNITES-X observability layer
    "TELEMETRY": "repro.unites.obs.telemetry",
    "Telemetry": "repro.unites.obs.telemetry",
    "Span": "repro.unites.obs.telemetry",
    "MetricRegistry": "repro.unites.obs.registry",
    "Counter": "repro.unites.obs.registry",
    "Gauge": "repro.unites.obs.registry",
    "Histogram": "repro.unites.obs.registry",
    "render_prometheus": "repro.unites.obs.exporters",
    "to_chrome_trace": "repro.unites.obs.exporters",
    "write_chrome_trace": "repro.unites.obs.exporters",
    "to_jsonl": "repro.unites.obs.exporters",
    "write_jsonl": "repro.unites.obs.exporters",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value  # cache: subsequent lookups skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
