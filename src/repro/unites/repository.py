"""The UNITES Metric Repository (Figure 6).

"The UNITES Metric Repository stores the collected metric information in a
database ... presented in either a systemwide, per-host, or per-connection
manner."  Samples are (time, scope, entity, metric, value) rows held in
memory, one time series per (scope, entity, metric); queries return time
series or aggregates at any scope (a per-link scope extends the paper's
three for the UNITES-X network instrumentation, and a per-sweep-cell scope
holds the results that :mod:`repro.sweep` campaigns stream back).
"""

from __future__ import annotations

from heapq import merge
from typing import Dict, List, Optional, Tuple

SCOPES = ("session", "host", "link", "system", "sweep")


class MetricRepository:
    """In-memory measurement database: one series per scope/entity/metric.

    Each stored sample is ``(n, time, value)``, ``n`` its place in the
    recording order, so a query across series answers in that order.
    """

    def __init__(self) -> None:
        self._series: Dict[Tuple[str, str, str], List[Tuple[int, float, float]]] = {}
        self._n = 0

    # ------------------------------------------------------------------
    def record(self, time: float, scope: str, entity: str, metric: str, value: float) -> None:
        if scope not in SCOPES:
            raise ValueError(f"scope must be one of {SCOPES}")
        if value is None:
            return
        self._series.setdefault((scope, entity, metric), []).append(
            (self._n, time, float(value))
        )
        self._n += 1

    def record_many(self, time: float, scope: str, entity: str, values: Dict[str, Optional[float]]) -> None:
        for metric, value in values.items():
            if value is not None:
                self.record(time, scope, entity, metric, value)

    # ------------------------------------------------------------------
    def series(self, metric: str, scope: str = "session", entity: str = "") -> List[Tuple[float, float]]:
        """Time series of one metric for one entity."""
        return [(t, v) for _, t, v in self._series.get((scope, entity, metric), [])]

    def latest(self, metric: str, scope: str = "session", entity: str = "") -> Optional[float]:
        rows = self._series.get((scope, entity, metric))
        return rows[-1][2] if rows else None

    def values(self, metric: str, scope: Optional[str] = None) -> List[float]:
        """All values of one metric, across entities (systemwide view)."""
        chosen = [
            rows
            for (s, _, m), rows in self._series.items()
            if m == metric and (scope is None or s == scope)
        ]
        return [v for _, _, v in merge(*chosen)]

    def entities(self, scope: str) -> List[str]:
        return sorted({e for s, e, _ in self._series if s == scope})

    def metrics_for(self, scope: str, entity: str) -> List[str]:
        return sorted({m for s, e, m in self._series if s == scope and e == entity})

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def clear(self) -> None:
        self._series.clear()
        self._n = 0
