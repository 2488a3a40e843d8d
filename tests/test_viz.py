"""ASCII visualization and dashboard tests."""

import pytest

from repro.errors import ReproError
from repro.results import ResultTable
from repro.viz import (
    array_view,
    bar_chart,
    density_view,
    latency_view,
    lifetime_view,
    power_view,
    scatter,
    summary_dashboard,
)


class TestScatter:
    def test_renders_markers_and_legend(self):
        text = scatter({"stt": [(1, 1), (2, 2)], "rram": [(3, 1)]})
        assert "o=stt" in text and "x=rram" in text
        assert "o" in text.splitlines()[1]

    def test_empty(self):
        assert scatter({}) == "(no data)"

    def test_log_axes(self):
        text = scatter({"s": [(1e3, 1e-3), (1e9, 1e3)]}, log_x=True, log_y=True)
        assert "(log)" in text

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ReproError):
            scatter({"s": [(0.0, 1.0)]}, log_x=True)

    def test_single_point(self):
        text = scatter({"s": [(5.0, 5.0)]})
        assert "s" in text

    def test_title_shown(self):
        assert scatter({"s": [(1, 1)]}, title="hello").startswith("hello")


class TestBarChart:
    def test_bars_scale(self):
        text = bar_chart({"a": 1.0, "b": 10.0})
        lines = text.splitlines()
        assert lines[0].count("#") < lines[1].count("#")

    def test_handles_none(self):
        assert "(n/a)" in bar_chart({"a": None, "b": 1.0})

    def test_empty(self):
        assert bar_chart({}) == "(no data)"


@pytest.fixture()
def eval_table():
    return ResultTable(
        [
            {
                "cell": "STT-optimistic", "tech": "STT",
                "reads_per_s": 1e6, "writes_per_s": 1e4,
                "total_power_mw": 2.0, "memory_latency_s_per_s": 0.01,
                "lifetime_years": 50.0, "feasible": True,
                "read_latency_ns": 2.0, "read_energy_pj": 9.0,
                "density_mbit_mm2": 100.0, "area_mm2": 0.6,
            },
            {
                "cell": "RRAM-optimistic", "tech": "RRAM",
                "reads_per_s": 1e6, "writes_per_s": 1e4,
                "total_power_mw": 1.0, "memory_latency_s_per_s": 0.02,
                "lifetime_years": 0.5, "feasible": True,
                "read_latency_ns": 3.0, "read_energy_pj": 12.0,
                "density_mbit_mm2": 400.0, "area_mm2": 0.2,
            },
            {
                "cell": "PCM-pessimistic", "tech": "PCM",
                "reads_per_s": 1e6, "writes_per_s": 1e4,
                "total_power_mw": 30.0, "memory_latency_s_per_s": 3.0,
                "lifetime_years": None, "feasible": False,
                "read_latency_ns": 300.0, "read_energy_pj": 170.0,
                "density_mbit_mm2": 45.0, "area_mm2": 1.5,
            },
        ]
    )


class TestDashboard:
    def test_views_render(self, eval_table):
        for view in (power_view, latency_view, lifetime_view, array_view):
            text = view(eval_table)
            assert isinstance(text, str) and len(text) > 50

    def test_lifetime_view_skips_unlimited(self, eval_table):
        text = lifetime_view(eval_table)
        assert "PCM" not in text  # its lifetime is None

    def test_density_view_takes_best(self, eval_table):
        text = density_view(eval_table)
        assert "RRAM-optimistic" in text

    def test_summary_dashboard_combines(self, eval_table):
        text = summary_dashboard(eval_table)
        assert "power" in text and "lifetime" in text.lower()
