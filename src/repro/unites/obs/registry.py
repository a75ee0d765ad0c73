"""Typed metric registry: counters, gauges, fixed-bucket histograms.

The base UNITES catalogue (:mod:`repro.unites.metrics`) evaluates *session*
state on demand; the registry is the complementary push-side store that any
layer can increment as events happen — the kernel counts dispatches, links
count drops, mechanisms count invocations.  The registry holds what each
metric is *now*; the :class:`~repro.unites.repository.MetricRepository`
holds how it moved, written by the one UNITES sampler
(``UNITES.watch_telemetry`` samples :meth:`MetricRegistry.snapshot`).  All
three metric types render to Prometheus text
(:func:`repro.unites.obs.exporters.render_prometheus`).

This module is a leaf: stdlib only, importable from the sim kernel.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Dict[str, str]]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def format_metric(name: str, labels: LabelItems) -> str:
    """Prometheus-style flat name: ``name{k="v",...}`` (no braces unlabelled)."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "labels", "help", "value")

    def __init__(self, name: str, labels: LabelItems = (), help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n

    @property
    def flat_name(self) -> str:
        return format_metric(self.name, self.labels)


class Gauge:
    """A value that can go up and down (depths, ratios, utilizations)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "help", "value")

    def __init__(self, name: str, labels: LabelItems = (), help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = float(v)

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        self.value -= n

    @property
    def flat_name(self) -> str:
        return format_metric(self.name, self.labels)


class Histogram:
    """Fixed-bucket histogram with cumulative-bucket quantile estimates.

    Buckets are upper bounds (seconds by default — tuned for wall-clock
    handler times and sim-time latencies); observations above the last
    bound land in the implicit ``+Inf`` bucket.  Quantiles are estimated as
    the upper bound of the first bucket whose cumulative count reaches the
    requested rank — coarse, bounded-memory, and deterministic.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "help", "bounds", "bucket_counts", "count", "sum")

    DEFAULT_BOUNDS = (
        1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
        1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    )

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        help: str = "",
        bounds: Optional[Iterable[float]] = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self.bounds: Tuple[float, ...] = tuple(bounds) if bounds is not None else self.DEFAULT_BOUNDS
        if list(self.bounds) != sorted(self.bounds) or not self.bounds:
            raise ValueError("histogram bounds must be a non-empty ascending sequence")
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # last = +Inf
        self.count = 0
        self.sum = 0.0

    def observe(self, v: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, v)] += 1
        self.count += 1
        self.sum += v

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Upper bound of the bucket holding the ``q``-quantile observation."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return None
        rank = q * self.count
        cumulative = 0
        for i, c in enumerate(self.bucket_counts):
            cumulative += c
            if cumulative >= rank and c:
                return self.bounds[i] if i < len(self.bounds) else float("inf")
        return float("inf")

    @property
    def flat_name(self) -> str:
        return format_metric(self.name, self.labels)


class MetricRegistry:
    """Registry of named, optionally-labelled metrics (get-or-create)."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelItems], object] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name: str, labels, help: str, **kw):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], help=help, **kw)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}, not {cls.kind}"
            )
        return metric

    def counter(self, name: str, labels: Optional[Dict[str, str]] = None, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, labels, help)

    def gauge(self, name: str, labels: Optional[Dict[str, str]] = None, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, labels, help)

    def histogram(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        help: str = "",
        bounds: Optional[Iterable[float]] = None,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, labels, help, bounds=bounds)

    # ------------------------------------------------------------------
    def get(self, name: str, labels: Optional[Dict[str, str]] = None):
        """The metric if registered, else None (never creates)."""
        return self._metrics.get((name, _label_key(labels)))

    def collect(self) -> List[object]:
        """All metrics, grouped by name (registration order within groups)."""
        return sorted(self._metrics.values(), key=lambda m: (m.name, m.labels))

    def snapshot(self) -> Dict[str, float]:
        """Flat ``name{labels} -> value`` view (histograms: count/sum/p50/p95)."""
        out: Dict[str, float] = {}
        for m in self.collect():
            if isinstance(m, Histogram):
                out[m.flat_name + "_count"] = float(m.count)
                out[m.flat_name + "_sum"] = m.sum
                for q, tag in ((0.5, "_p50"), (0.95, "_p95")):
                    v = m.quantile(q)
                    if v is not None and v != float("inf"):
                        out[m.flat_name + tag] = v
            else:
                out[m.flat_name] = m.value
        return out

    def reset(self) -> None:
        self._metrics.clear()

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self.collect())
