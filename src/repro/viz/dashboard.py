"""Text dashboards over result tables.

The interactive-dashboard equivalent for a terminal: given a
:class:`~repro.results.ResultTable` of evaluations, render the standard
NVMExplorer views (power vs. read rate, latency vs. write rate, lifetime,
array characteristics).
"""

from __future__ import annotations

from repro.results.table import ResultTable
from repro.viz.ascii import bar_chart, scatter


def _series(table: ResultTable, x: str, y: str, by: str) -> dict:
    """Collect (x, y) series grouped by a column.

    Non-positive values are dropped: every dashboard view draws on log
    axes, and zero-rate points (e.g. a read-only workload's write rate)
    simply have nothing to show there.
    """
    series: dict[str, list[tuple[float, float]]] = {}
    for row in table:
        xv, yv = row.get(x), row.get(y)
        if xv is None or yv is None:
            continue
        if not (isinstance(xv, (int, float)) and isinstance(yv, (int, float))):
            continue
        if xv <= 0 or yv <= 0:
            continue
        series.setdefault(str(row.get(by, "all")), []).append((xv, yv))
    return {label: pts for label, pts in series.items() if pts}


def power_view(table: ResultTable, by: str = "cell") -> str:
    """Total memory power vs. read access rate (Figure 8/9 left)."""
    return scatter(
        _series(table, "reads_per_s", "total_power_mw", by),
        x_label="reads/s",
        y_label="power [mW]",
        log_x=True,
        log_y=True,
        title="Total memory power vs read traffic",
    )


def latency_view(table: ResultTable, by: str = "cell") -> str:
    """Aggregate memory latency vs. write access rate (Figure 8/9 middle)."""
    return scatter(
        _series(table, "writes_per_s", "memory_latency_s_per_s", by),
        x_label="writes/s",
        y_label="latency [s/s]",
        log_x=True,
        log_y=True,
        title="Total memory latency vs write traffic",
    )


def lifetime_view(table: ResultTable, by: str = "cell") -> str:
    """Projected lifetime vs. write access rate (Figure 8/9 right)."""
    rows = table.filter(lambda r: r.get("lifetime_years") is not None)
    return scatter(
        _series(rows, "writes_per_s", "lifetime_years", by),
        x_label="writes/s",
        y_label="lifetime [y]",
        log_x=True,
        log_y=True,
        title="Projected memory lifetime vs write traffic",
    )


def array_view(table: ResultTable, by: str = "cell") -> str:
    """Read energy vs. read latency for arrays (Figure 3/5/10 style)."""
    return scatter(
        _series(table, "read_latency_ns", "read_energy_pj", by),
        x_label="read latency [ns]",
        y_label="read energy [pJ]",
        log_x=True,
        log_y=True,
        title="Array read characteristics",
    )


def density_view(table: ResultTable) -> str:
    """Storage density bars per cell."""
    best: dict[str, float] = {}
    for row in table:
        cell = str(row.get("cell"))
        density = row.get("density_mbit_mm2")
        if density is not None:
            best[cell] = max(best.get(cell, 0.0), density)
    return bar_chart(best, title="Storage density [Mbit/mm^2]", log=False)


def summary_dashboard(table: ResultTable) -> str:
    """All standard views stacked, like the web dashboard's landing page."""
    views = [power_view(table), latency_view(table), lifetime_view(table),
             array_view(table), density_view(table)]
    return "\n\n".join(views)
