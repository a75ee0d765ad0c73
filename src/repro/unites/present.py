"""Metric presentation: tables, CSV, ASCII series (Figure 6's display box).

The paper's interactive graphic displays and SNMP/CMIP exports are
replaced by deterministic text renderings — what the benchmark harness
prints as "the same rows/series the paper reports".
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple


def _fmt(value, width: int = 0) -> str:
    if value is None:
        s = "-"
    elif isinstance(value, float):
        if value == 0:
            s = "0"
        elif abs(value) >= 1e5 or abs(value) < 1e-3:
            s = f"{value:.3e}"
        else:
            s = f"{value:.4g}"
    else:
        s = str(value)
    return s.rjust(width) if width else s


def render_table(
    rows: Sequence[Dict[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: str = "",
) -> str:
    """Render dict-rows as an aligned ASCII table."""
    if not rows:
        return f"{title}\n(no data)" if title else "(no data)"
    cols = list(columns) if columns is not None else list(rows[0].keys())
    cells = [[_fmt(r.get(c)) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(c.rjust(w) for c, w in zip(cols, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def render_csv(rows: Sequence[Dict[str, object]], columns: Optional[Sequence[str]] = None) -> str:
    """CSV rendering (stable column order)."""
    if not rows:
        return ""
    cols = list(columns) if columns is not None else list(rows[0].keys())
    out = [",".join(cols)]
    for r in rows:
        out.append(",".join(_fmt(r.get(c)) for c in cols))
    return "\n".join(out)


def render_series(
    series: Sequence[Tuple[float, float]],
    width: int = 60,
    height: int = 8,
    label: str = "",
) -> str:
    """A coarse ASCII plot of one (time, value) series."""
    if not series:
        return f"{label}: (no samples)"
    times = [t for t, _ in series]
    values = [v for _, v in series]
    vmin, vmax = min(values), max(values)
    span = (vmax - vmin) or 1.0
    tmin, tmax = times[0], times[-1]
    tspan = (tmax - tmin) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for t, v in series:
        x = min(width - 1, int((t - tmin) / tspan * (width - 1)))
        y = min(height - 1, int((v - vmin) / span * (height - 1)))
        grid[height - 1 - y][x] = "*"
    lines = [f"{label}  [{vmin:.4g} .. {vmax:.4g}]  t=[{tmin:.3g}s .. {tmax:.3g}s]"]
    lines += ["|" + "".join(row) for row in grid]
    lines.append("+" + "-" * width)
    return "\n".join(lines)
