"""Tests for cell export and the retention and hierarchy studies."""

import pytest

from repro.cells import (
    TechnologyClass,
    back_gated_fefet,
    cell_from_dict,
    cell_to_dict,
    reference_rram,
    sram_cell,
    tentpoles_for,
)
from repro.errors import CellDefinitionError
from repro.studies import (
    hierarchy_study,
    measured_coalescing,
    retention_study,
    scrub_burdened_technologies,
)
from repro.units import mb


class TestCellExport:
    def test_roundtrip_preserves_everything(self):
        cells = [
            tentpoles_for(TechnologyClass.STT).optimistic,
            reference_rram(),
            back_gated_fefet(),
            sram_cell(16),
        ]
        for original in cells:
            assert cell_from_dict(cell_to_dict(original)) == original

    def test_dict_is_json_friendly(self):
        import json

        data = cell_to_dict(reference_rram())
        text = json.dumps(data)
        rebuilt = cell_from_dict(json.loads(text))
        assert rebuilt == reference_rram()

    def test_unknown_fields_rejected(self):
        data = cell_to_dict(reference_rram())
        data["frobnication"] = 42
        with pytest.raises(CellDefinitionError):
            cell_from_dict(data)

    def test_missing_required_fields_rejected(self):
        with pytest.raises(CellDefinitionError):
            cell_from_dict({"area_f2": 10.0})

    def test_bad_access_device_rejected(self):
        data = cell_to_dict(reference_rram())
        data["access_device"] = "quantum"
        with pytest.raises(CellDefinitionError):
            cell_from_dict(data)


class TestRetentionStudy:
    @pytest.fixture(scope="class")
    def table(self):
        return retention_study(capacity_bytes=mb(2))

    def test_low_retention_cells_need_scrubbing_at_low_rates(self, table):
        burdened = scrub_burdened_technologies(table, rate=1.0)
        # Pessimistic RRAM retains ~1e3 s: a daily wake-up needs scrubbing.
        assert "RRAM" in burdened

    def test_high_rates_avoid_scrubbing(self, table):
        assert scrub_burdened_technologies(table, rate=1e5) == set()

    def test_stt_never_needs_scrubbing(self, table):
        rows = table.where(tech="STT")
        assert not any(r["needs_scrubbing"] for r in rows)

    def test_scrub_power_reported_when_needed(self, table):
        for row in table:
            if row["needs_scrubbing"]:
                assert row["scrub_power_uw"] > 0


class TestHierarchyStudy:
    def test_measured_coalescing_monotone_in_size(self):
        factors = [measured_coalescing(kb) for kb in (16, 64, 256)]
        assert factors == sorted(factors)
        assert 0.0 < factors[0] <= factors[-1] < 1.0

    def test_study_rows_and_lifetime_scaling(self):
        table = hierarchy_study(
            backing_techs=(TechnologyClass.RRAM,), front_sizes_kb=(16, 256)
        )
        assert len(table) == 2
        small = table.where(front_kb=16)[0]
        large = table.where(front_kb=256)[0]
        # More coalescing -> longer backing lifetime.
        assert large["coalescing"] >= small["coalescing"]
        assert large["backing_lifetime_years"] >= small["backing_lifetime_years"]
