"""ASCII visualization and dashboard tests."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.results import ResultTable
from repro.viz import (
    array_view,
    bar_chart,
    dashboard,
    density_view,
    latency_view,
    lifetime_view,
    power_view,
    scatter,
    summary_dashboard,
)
from repro.viz.ascii import _MARKERS


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

    def test_every_series_has_its_own_marker(self):
        series = {f"s{i}": [(i + 1, i + 1)] for i in range(len(_MARKERS))}
        legend = scatter(series).splitlines()[-1].split()
        assert [entry[0] for entry in legend] == list(_MARKERS)
        assert len(set(_MARKERS)) == len(_MARKERS)
        assert "?" not in _MARKERS and " " not in _MARKERS

    def test_more_series_than_markers_is_an_error(self):
        series = {f"s{i}": [(1, 1)] for i in range(len(_MARKERS) + 1)}
        with pytest.raises(ReproError):
            scatter(series)


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


# --- column-built views oracle --------------------------------------------------
#
# The row-at-a-time series builder that dashboard._series replaced; every
# view must render byte for byte as it does over this reference.


def _reference_series(table, x, y):
    series = {}
    for row in table:
        xv, yv = row.get(x), row.get(y)
        if xv is None or yv is None:
            continue
        if not (isinstance(xv, (int, float)) and isinstance(yv, (int, float))):
            continue
        if xv <= 0 or yv <= 0:
            continue
        series.setdefault(str(row.get("cell", "all")), []).append((xv, yv))
    return {label: pts for label, pts in series.items() if pts}


_AXES = ("reads_per_s", "writes_per_s", "total_power_mw",
         "memory_latency_s_per_s", "lifetime_years", "read_latency_ns",
         "read_energy_pj")
_ODD_VALUES = [None, 0, 0.0, -0.0, -2.5, "n/a", "1e3", True, False,
               np.float64(3.5), np.int64(4), 7, 1e-9, 2.5e6]


def _odd_table(n=120, seed=3):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        record = {}
        if i % 7:
            record["cell"] = [None, "A", "B", 3, "C"][i % 5]
        for axis in _AXES:
            draw = rng.integers(len(_ODD_VALUES) + 4)
            if draw < len(_ODD_VALUES):
                record[axis] = _ODD_VALUES[draw]
            elif draw < len(_ODD_VALUES) + 3:
                record[axis] = float(rng.lognormal(2.0, 3.0))
            # else: the key is missing
        records.append(record)
    return ResultTable(records)


def _views(table):
    return [power_view(table), latency_view(table), lifetime_view(table),
            array_view(table)]


def _reference_views(table):
    """The views as they were drawn before: lifetime over a filtered copy."""
    with_lifetime = table.filter(lambda r: r.get("lifetime_years") is not None)
    return [power_view(table), latency_view(table),
            lifetime_view(with_lifetime), array_view(table)]


def test_column_built_views_match_row_reference(eval_table, monkeypatch):
    tables = [_odd_table(), eval_table]
    built = [_views(table) for table in tables]
    monkeypatch.setattr(dashboard, "_series", _reference_series)
    assert built == [_reference_views(table) for table in tables]
    assert all("(no data)" not in text for views in built for text in views)


@pytest.mark.parametrize("plot, axis", [
    (lambda: power_view(ResultTable([
        {"cell": "a", "reads_per_s": float("nan"), "total_power_mw": 1.0},
        {"cell": "a", "reads_per_s": 2.0, "total_power_mw": 1.0},
    ])), "reads/s"),
    (lambda: bar_chart({"a": float("nan"), "b": 1.0}), "value"),
    (lambda: scatter({"s": [(1.0, float("inf")), (2.0, 3.0)]}), "y"),
], ids=["power_view_nan", "bar_chart_nan", "scatter_inf"])
def test_non_finite_value_names_its_axis(plot, axis):
    with pytest.raises(ReproError, match=f"^{axis}: cannot plot non-finite"):
        plot()
