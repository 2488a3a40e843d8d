"""Tests for extension modules: 3D stacking, retention, hierarchy, and
markdown reports."""

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
from repro.traffic import TrafficPattern
from repro.units import kb, mb
from repro.viz import study_report


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

