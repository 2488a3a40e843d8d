"""ASCII data visualization.

The paper ships a Tableau dashboard; offline we render the same series as
terminal scatter/line/bar plots.  Good enough to eyeball the crossovers and
orderings every figure is about, and exercised by the examples.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.errors import ReproError

#: One marker per series.  32 covers the 15 tentpole cells of the catalog
#: plus SRAM with room for custom cells; never ``?`` (collision) or space.
_MARKERS = "ox+*#@%&ABCDEFGHIJKLMNPQRSTUVWYZ"


def _nice_fmt(value: float) -> str:
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1e4 or magnitude < 1e-2:
        return f"{value:.1e}"
    return f"{value:.3g}"


def _transform(value: float, log: bool, label: str) -> float:
    if not math.isfinite(value):
        raise ReproError(f"{label}: cannot plot non-finite value {value}")
    if not log:
        return value
    if value <= 0:
        raise ReproError(f"{label}: log-scale axes need positive values")
    return math.log10(value)


def scatter(
    series: Mapping[str, Sequence[tuple[float, float]]],
    width: int = 70,
    height: int = 20,
    x_label: str = "x",
    y_label: str = "y",
    log_x: bool = False,
    log_y: bool = False,
    title: str = "",
) -> str:
    """Render labelled point series on a character grid.

    ``series`` maps a label to its (x, y) points; each series gets its own
    marker, listed in the legend.
    """
    if len(series) > len(_MARKERS):
        raise ReproError(f"scatter draws at most {len(_MARKERS)} series")
    markers = dict(zip(series, _MARKERS))
    points = [
        (markers[label], _transform(x, log_x, x_label), _transform(y, log_y, y_label))
        for label, pts in series.items()
        for x, y in pts
    ]
    if not points:
        return "(no data)"
    _, xs, ys = zip(*points)
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for marker, x, y in points:
        cx = int((x - x_lo) / x_span * (width - 1))
        cy = int((y - y_lo) / y_span * (height - 1))
        row = height - 1 - cy
        if grid[row][cx] not in (" ", marker):
            grid[row][cx] = "?"  # collision between different series
        else:
            grid[row][cx] = marker

    lines = []
    if title:
        lines.append(title)
    y_hi_text = _nice_fmt(10**y_hi if log_y else y_hi)
    y_lo_text = _nice_fmt(10**y_lo if log_y else y_lo)
    lines.append(f"{y_label} ^  (top={y_hi_text}, bottom={y_lo_text}"
                 f"{', log' if log_y else ''})")
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width + f"> {x_label}"
                 f"{' (log)' if log_x else ''}")
    x_lo_text = _nice_fmt(10**x_lo if log_x else x_lo)
    x_hi_text = _nice_fmt(10**x_hi if log_x else x_hi)
    lines.append(f"  x: {x_lo_text} .. {x_hi_text}")
    legend = "  ".join(f"{marker}={label}" for label, marker in markers.items())
    lines.append("  " + legend)
    return "\n".join(lines)


def bar_chart(
    values: Mapping[str, float],
    width: int = 50,
    title: str = "",
    log: bool = False,
) -> str:
    """Horizontal bars, one per labelled value."""
    if not values:
        return "(no data)"
    items = list(values.items())
    axis = title or "value"
    transformed = [_transform(v, log, axis) for _, v in items if v is not None]
    if not transformed:
        return "(no data)"
    lo = min(0.0, min(transformed)) if not log else min(transformed)
    hi = max(transformed)
    span = (hi - lo) or 1.0
    label_width = max(len(k) for k, _ in items)
    lines = [title] if title else []
    for key, value in items:
        if value is None:
            lines.append(f"{key:<{label_width}} | (n/a)")
            continue
        filled = int((_transform(value, log, axis) - lo) / span * width)
        lines.append(
            f"{key:<{label_width}} |{'#' * filled:<{width}} {_nice_fmt(value)}"
        )
    return "\n".join(lines)


def line_chart(
    series: Mapping[str, Sequence[tuple[float, float]]],
    **kwargs,
) -> str:
    """Alias of :func:`scatter` — per-series markers trace the lines."""
    return scatter(series, **kwargs)
