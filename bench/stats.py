"""Order statistics for the benchmark: medians, quartiles, supported tails.

Stdlib only.  Two rules from the metrics guide live here so every number
the benchmark prints obeys them:

* a tail percentile is reported only when at least ten samples lie
  beyond it (:func:`supported_tail`);
* run-to-run noise is the distance between the first and third quartile
  as a share of the median (``spread``), computed exactly as the
  driver computes it (``statistics.quantiles(values, n=4)``).
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

#: fewer samples than this beyond a percentile and it is not reported
MIN_BEYOND = 10

#: percentiles tried, highest first, when the wanted tail is unsupported
TAIL_LADDER = (0.99, 0.95, 0.90, 0.75)


def quantile(sorted_samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of an already sorted sample."""
    if not sorted_samples:
        raise ValueError("quantile of an empty sample")
    rank = max(1, math.ceil(q * len(sorted_samples)))
    return sorted_samples[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-quantile."""
    return n - max(1, math.ceil(q * n))


def supported_tail(n: int, want: float = 0.99) -> Optional[float]:
    """Highest percentile ``<= want`` with ``MIN_BEYOND`` samples beyond it.

    Returns ``None`` when even the lowest rung of :data:`TAIL_LADDER` is
    unsupported (fewer than 40 samples).
    """
    for q in TAIL_LADDER:
        if q <= want and samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def tail(samples: Sequence[float], want: float = 0.99) -> Tuple[float, Optional[float]]:
    """``(value, percentile_used)`` for the highest supported tail.

    With too few samples for any rung the maximum is returned with
    ``percentile_used = None`` so callers can flag it.
    """
    ordered = sorted(samples)
    q = supported_tail(len(ordered), want)
    if q is None:
        return ordered[-1], None
    return quantile(ordered, q), q


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """The row printed beside every repeated measurement; ``spread`` is the
    inter-quartile distance as a share of the median (0 for one value)."""
    q1, q2, q3 = quartiles(values)
    return {
        "median": q2, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / q2 if q2 else 0.0,
        "n": len(values),
    }


def spread(values: Sequence[float]) -> float:
    return summarize(values)["spread"]
