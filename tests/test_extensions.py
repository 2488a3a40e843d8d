"""Tests for extension modules: 3D stacking, retention, hierarchy, and
markdown reports."""

import csv
import math
import re

import pytest

from repro.cells import TechnologyClass, tentpoles_for
from repro.core import (
    deployment_check,
    evaluate_hierarchy,
    max_unpowered_interval,
    scrub_energy_per_pass,
    split_traffic,
)
from repro.errors import CharacterizationError, EvaluationError
from repro.nvsim import (
    OptimizationTarget,
    characterize,
    characterize_stacked,
    stacking_sweep,
)
from repro.results import ResultTable
from repro.studies.pipeline import REGISTRY
from repro.traffic import TrafficPattern
from repro.units import kb, mb
from repro.viz import study_report
from repro.viz.report import REPORT_ROWS


class TestStacking:
    def test_single_layer_is_planar(self, rram_optimistic):
        planar = characterize(rram_optimistic, mb(4))
        stacked = characterize_stacked(rram_optimistic, mb(4), layers=1)
        assert stacked.area == planar.area
        assert stacked.cell.name == rram_optimistic.name

    def test_stacking_improves_density(self, rram_optimistic):
        sweep = stacking_sweep(rram_optimistic, mb(16), max_layers=8)
        densities = [a.density_mbit_per_mm2 for a in sweep]
        assert densities == sorted(densities)
        assert densities[-1] > 2.5 * densities[0]

    def test_stacking_reduces_area_leakage(self, rram_optimistic):
        planar = characterize_stacked(rram_optimistic, mb(16), 1)
        stacked = characterize_stacked(rram_optimistic, mb(16), 4)
        assert stacked.area < planar.area
        assert stacked.leakage_power < planar.leakage_power
        assert stacked.sleep_power < planar.sleep_power

    def test_layer_select_overhead_eventually_bites(self, rram_optimistic):
        four = characterize_stacked(rram_optimistic, mb(16), 4)
        eight = characterize_stacked(rram_optimistic, mb(16), 8)
        # Diminishing returns: the 4->8 latency gain is small or negative.
        assert eight.read_latency > 0.9 * four.read_latency

    def test_unstackable_technology_refused(self, stt_optimistic):
        with pytest.raises(CharacterizationError):
            characterize_stacked(stt_optimistic, mb(4), layers=4)

    def test_layer_bounds(self, rram_optimistic):
        with pytest.raises(CharacterizationError):
            characterize_stacked(rram_optimistic, mb(4), layers=0)
        with pytest.raises(CharacterizationError):
            characterize_stacked(rram_optimistic, mb(4), layers=16)

    def test_stacked_name_tagged(self, rram_optimistic):
        stacked = characterize_stacked(rram_optimistic, mb(4), 2)
        assert stacked.cell.name.endswith("-3D2")


class TestRetention:
    def test_envm_interval_scaled_by_margin(self, stt_array_1mb):
        interval = max_unpowered_interval(stt_array_1mb, margin=0.1)
        assert interval == pytest.approx(stt_array_1mb.retention_seconds * 0.1)

    def test_volatile_interval_zero(self, sram_array_1mb):
        assert max_unpowered_interval(sram_array_1mb) == 0.0

    def test_scrub_energy_covers_whole_array(self, stt_array_1mb):
        energy = scrub_energy_per_pass(stt_array_1mb)
        accesses = stt_array_1mb.capacity_bytes / stt_array_1mb.access_bytes
        assert energy == pytest.approx(
            accesses * (stt_array_1mb.read_energy + stt_array_1mb.write_energy)
        )

    def test_short_retention_needs_scrubbing(self):
        rram_pess = tentpoles_for(TechnologyClass.RRAM).pessimistic
        array = characterize(rram_pess, mb(1))
        assert array.retention_seconds < 1e5
        check = deployment_check(array, wake_interval_seconds=86400.0)
        assert check.needs_scrubbing
        assert check.scrub_power_watts > 0
        assert check.lifetime_impact_fraction > 0

    def test_long_retention_skips_scrubbing(self, stt_array_1mb):
        check = deployment_check(stt_array_1mb, wake_interval_seconds=3600.0)
        assert not check.needs_scrubbing
        assert check.scrub_power_watts == 0.0

    def test_volatile_cannot_be_scrubbed(self, sram_array_1mb):
        check = deployment_check(sram_array_1mb, wake_interval_seconds=60.0)
        assert check.scrub_power_watts == float("inf")

    def test_invalid_arguments(self, stt_array_1mb):
        with pytest.raises(EvaluationError):
            deployment_check(stt_array_1mb, wake_interval_seconds=0.0)
        with pytest.raises(EvaluationError):
            max_unpowered_interval(stt_array_1mb, margin=0.0)


class TestHierarchy:
    def _arrays(self):
        front = characterize(
            tentpoles_for(TechnologyClass.STT).optimistic, kb(64),
            optimization_target=OptimizationTarget.READ_LATENCY,
        )
        backing = characterize(
            tentpoles_for(TechnologyClass.FEFET).optimistic, mb(4),
        )
        return front, backing

    def test_split_traffic_semantics(self, simple_traffic):
        front, backing = split_traffic(simple_traffic, 0.25, 0.5)
        assert front.reads_per_second == pytest.approx(0.25e7)
        assert front.writes_per_second == simple_traffic.writes_per_second
        assert backing.reads_per_second == pytest.approx(0.75e7)
        assert backing.writes_per_second == pytest.approx(0.5e5)

    def test_split_validates(self, simple_traffic):
        with pytest.raises(EvaluationError):
            split_traffic(simple_traffic, 1.5, 0.0)
        with pytest.raises(EvaluationError):
            split_traffic(simple_traffic, 0.5, 1.0)

    def test_hierarchy_composes_power(self, simple_traffic):
        front, backing = self._arrays()
        combo = evaluate_hierarchy(front, backing, simple_traffic,
                                   read_hit_rate=0.5, write_coalescing=0.5)
        assert combo.total_power == pytest.approx(
            combo.front.total_power + combo.backing.total_power
        )

    def test_write_coalescing_extends_backing_lifetime(self):
        front, backing = self._arrays()
        traffic = TrafficPattern("writes", 1e5, 1e6)
        without = evaluate_hierarchy(front, backing, traffic,
                                     write_coalescing=0.0)
        with_half = evaluate_hierarchy(front, backing, traffic,
                                       write_coalescing=0.5)
        assert with_half.lifetime_seconds == pytest.approx(
            2 * without.lifetime_seconds
        )

    def test_front_must_be_smaller(self, simple_traffic):
        front, backing = self._arrays()
        with pytest.raises(EvaluationError):
            evaluate_hierarchy(backing, front, simple_traffic)


class TestReports:
    def _table(self):
        return ResultTable(
            [
                {"cell": "A", "workload": "w1", "total_power_mw": 2.0,
                 "reads_per_s": 1e6, "writes_per_s": 1e4,
                 "memory_latency_s_per_s": 0.1, "lifetime_years": 10.0,
                 "read_latency_ns": 2.0, "read_energy_pj": 5.0},
                {"cell": "B", "workload": "w1", "total_power_mw": 1.0,
                 "reads_per_s": 1e6, "writes_per_s": 1e4,
                 "memory_latency_s_per_s": 0.2, "lifetime_years": 1.0,
                 "read_latency_ns": 3.0, "read_energy_pj": 4.0},
            ]
        )

    def test_study_report_structure(self):
        report = study_report("My Study", self._table(), description="desc")
        assert report.startswith("# My Study")
        assert "## Winners" in report
        assert "| w1 | B (1) |" in report
        assert "## Data" in report

    def test_study_report_without_winner_column(self):
        report = study_report("X", self._table(), winner_column=None)
        assert "## Winners" not in report

    @staticmethod
    def _rows(n):
        return ResultTable(
            {"cell": "AB"[i % 2], "workload": f"w{i % 3}", "row": f"r{i:04d}",
             "total_power_mw": 1.0 + i / 7}
            for i in range(n)
        )

    def test_report_embeds_a_table_up_to_the_bound_whole(self):
        table = self._rows(REPORT_ROWS)
        report = study_report("X", table)
        assert f"## Data\n\n{table.to_markdown()}\n" in report
        assert "rows shown" not in report

    def test_report_samples_a_larger_table_evenly(self):
        table = self._rows(REPORT_ROWS + 1)
        report = study_report("X", table)
        data = report.split("## Data\n\n", 1)[1]
        pointer, markdown = data.split("\n\n", 1)
        assert pointer == (
            f"*126 of {REPORT_ROWS + 1} rows shown (rows 0, 2, 4, ...); "
            "the study's CSV holds the full table.*"
        )
        sample = ResultTable(table[i] for i in range(0, REPORT_ROWS + 1, 2))
        assert markdown == sample.to_markdown() + "\n"
        rows = [line for line in markdown.splitlines() if "| r0" in line]
        assert len(rows) == 126
        assert "| r0000 |" in rows[0] and "| r0250 |" in rows[-1]
        assert "| r0001 |" not in markdown

    def test_sample_keeps_the_full_tables_columns(self):
        table = self._rows(REPORT_ROWS + 1)
        table.append({"row": "late", "only_in_row_251": 1})
        report = study_report("X", table, winner_column=None)
        header = report.split("## Data\n\n", 1)[1].split("\n\n", 1)[1]
        assert header.splitlines()[0] == "| " + " | ".join(table.columns) + " |"


@pytest.fixture(scope="module")
def suite_reports(suite):
    """Every registry study's report text, from the session suite run."""
    return {name: (suite.out / "reports" / f"{name}.md").read_text()
            for name in REGISTRY}


#: Every numeric column of the registry CSVs.  Each physical quantity,
#: rate, count and ratio the suite reports is finite and non-negative.
NUMERIC_COLUMNS = (
    "accuracy", "area_efficiency", "area_mm2", "backing_lifetime_years",
    "baseline_accuracy", "bits_per_cell", "capacity_mb", "cell_error_rate",
    "coalescing", "density_mbit_mm2", "dynamic_power_mw", "energy_per_day_j",
    "energy_per_inference_uj", "energy_per_task_uj", "front_kb",
    "inferences_per_day", "latency_s_per_s", "leakage_mw", "lifetime_years",
    "max_unpowered_s", "memory_latency_s_per_s", "node_nm", "read_bw_gbps",
    "read_energy_per_bit_pj", "read_energy_pj", "read_latency_ns",
    "reads_per_s", "retention_s", "scrub_power_uw", "sleep_power_uw",
    "sleep_uw", "slowdown", "static_power_mw", "total_power_mw",
    "wake_interval_s", "write_bw_gbps", "write_energy_per_bit_pj",
    "write_energy_pj", "write_latency_ns", "writes_per_s",
)


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def test_registry_csv_numbers_are_finite_and_non_negative(suite):
    seen = set()
    for name in REGISTRY:
        with open(suite.out / "results" / f"{name}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for column in rows[0]:
            cells = [row[column] for row in rows if row[column] != ""]
            if column not in NUMERIC_COLUMNS:
                # A column that holds only numbers must be listed above.
                assert not cells or None in map(_number, cells), (name, column)
                continue
            seen.add(column)
            bad = [cell for cell, value in zip(cells, map(_number, cells))
                   if value is None or not math.isfinite(value) or value < 0]
            assert not bad, f"{name}.csv column {column}: {bad[:3]}"
    assert seen == set(NUMERIC_COLUMNS)


#: The unit suffixes of the numeric columns (``_s_per_s``: seconds per
#: second of execution), and the numeric columns that carry no unit.
UNIT_SUFFIXES = (
    "_ns", "_s", "_s_per_s", "_per_s", "_per_day", "_years", "_pj", "_uj",
    "_j", "_mw", "_uw", "_mm2", "_mb", "_kb", "_nm", "_gbps",
)
DIMENSIONLESS = (
    "accuracy", "area_efficiency", "baseline_accuracy", "bits_per_cell",
    "cell_error_rate", "coalescing", "slowdown",
)


def test_every_numeric_column_names_its_unit():
    """Each numeric CSV column (the test above ties NUMERIC_COLUMNS to the
    suite's CSVs) ends in a unit suffix or is dimensionless."""
    unitless = [column for column in NUMERIC_COLUMNS
                if column not in DIMENSIONLESS and not column.endswith(UNIT_SUFFIXES)]
    assert not unitless


def test_no_registry_report_exceeds_256_kib(suite_reports):
    sizes = {name: len(text.encode()) for name, text in suite_reports.items()}
    assert max(sizes.values()) <= 256 * 1024, sizes


def test_no_registry_legend_repeats_a_marker(suite_reports):
    legends = 0
    for name, text in suite_reports.items():
        for fence in re.findall(r"```\n(.*?)\n```", text, re.S):
            legend = fence.splitlines()[-1]
            markers = [entry[0] for entry in legend.split()]
            assert len(set(markers)) == len(markers), (name, legend)
            assert "?" not in markers, (name, legend)
            legends += 1
    assert legends > 0
