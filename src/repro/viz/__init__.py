"""Terminal visualization: ASCII plots and dashboards."""

from repro.viz.ascii import bar_chart, line_chart, scatter
from repro.viz.report import study_report
from repro.viz.dashboard import (
    array_view,
    density_view,
    latency_view,
    lifetime_view,
    power_view,
    summary_dashboard,
)

__all__ = [
    "scatter",
    "line_chart",
    "bar_chart",
    "power_view",
    "latency_view",
    "lifetime_view",
    "array_view",
    "density_view",
    "summary_dashboard",
    "study_report",
]
