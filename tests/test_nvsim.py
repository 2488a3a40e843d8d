"""Array characterizer tests: organizations, peripherals, physics, sweep."""


import pytest

from repro.cells import TechnologyClass, tentpoles_for
from repro.core.engine import DSEEngine, SweepSpec
from repro.errors import CharacterizationError
from repro.nvsim import (
    ArrayCharacterization,
    OptimizationTarget,
    all_organizations,
    candidate_organizations,
    characterize,
)
from repro.nvsim import peripheral
from repro.nvsim.model import (
    bitline_sense_time,
    evaluate_organization,
    repeated_wire,
    subarray_geometry,
)
from repro.nvsim.organization import ArrayOrganization
from repro.runtime.executor import sweep_points
from repro.tech import get_node
from repro.units import mb


class TestOrganization:
    def test_candidates_cover_capacity(self):
        capacity_bits = mb(1) * 8
        for org in candidate_organizations(capacity_bits, 64):
            assert org.total_bits >= capacity_bits

    def test_candidates_not_grossly_overprovisioned(self):
        capacity_bits = mb(1) * 8
        for org in candidate_organizations(capacity_bits, 64):
            assert org.total_bits <= 2 * capacity_bits + org.bits_per_subarray

    def test_mux_divides_columns(self):
        for org in candidate_organizations(mb(1) * 8, 64):
            assert org.cols % org.mux == 0

    def test_active_subarrays_cover_access(self):
        for org in candidate_organizations(mb(1) * 8, 512):
            assert org.active_subarrays * org.bits_per_activation >= 512

    def test_mlc_halves_cells(self):
        slc = next(candidate_organizations(mb(1) * 8, 64, bits_per_cell=1))
        mlc = ArrayOrganization(
            rows=slc.rows, cols=slc.cols, mux=slc.mux,
            n_subarrays=slc.n_subarrays, active_subarrays=slc.active_subarrays,
            access_bits=slc.access_bits, bits_per_cell=2,
        )
        assert mlc.total_bits == 2 * slc.total_bits

    def test_invalid_org_rejected(self):
        with pytest.raises(CharacterizationError):
            ArrayOrganization(rows=0, cols=64, mux=1, n_subarrays=1,
                              active_subarrays=1, access_bits=64)
        with pytest.raises(CharacterizationError):
            ArrayOrganization(rows=64, cols=64, mux=3, n_subarrays=1,
                              active_subarrays=1, access_bits=64)
        with pytest.raises(CharacterizationError):
            ArrayOrganization(rows=64, cols=64, mux=1, n_subarrays=1,
                              active_subarrays=2, access_bits=64)

    def test_grid_shape_covers_subarrays(self):
        org = ArrayOrganization(rows=128, cols=256, mux=2, n_subarrays=12,
                                active_subarrays=1, access_bits=64)
        nx, ny = org.grid_shape
        assert nx * ny == 12

    def test_concurrency_capped(self):
        org = ArrayOrganization(rows=128, cols=256, mux=1, n_subarrays=256,
                                active_subarrays=1, access_bits=64)
        assert org.concurrency == 16

    def test_zero_capacity_rejected(self):
        with pytest.raises(CharacterizationError):
            list(candidate_organizations(0, 64))


class TestPeripherals:
    node = get_node(22)

    def test_decoder_scales_with_rows(self):
        small = peripheral.row_decoder(self.node, 128, 50e-15)
        large = peripheral.row_decoder(self.node, 2048, 50e-15)
        assert large.leakage_power > small.leakage_power
        assert large.area > small.area
        assert large.delay >= small.delay

    def test_trivial_decoder_is_free(self):
        assert peripheral.row_decoder(self.node, 1, 1e-15).delay == 0.0

    def test_mux_degree_one_is_free(self):
        assert peripheral.column_mux(self.node, 1024, 1) is not None
        assert peripheral.column_mux(self.node, 1024, 1).area == 0.0

    def test_sense_amps_scale_linearly(self):
        one = peripheral.sense_amplifiers(self.node, 1)
        many = peripheral.sense_amplifiers(self.node, 100)
        assert many.dynamic_energy == pytest.approx(100 * one.dynamic_energy)
        assert many.area == pytest.approx(100 * one.area)

    def test_write_drivers_grow_with_current(self):
        weak = peripheral.write_drivers(self.node, 64, 1.0, 1e-6)
        strong = peripheral.write_drivers(self.node, 64, 1.0, 500e-6)
        assert strong.area > weak.area
        assert strong.leakage_power > weak.leakage_power

    def test_charge_pump_only_above_vdd(self):
        none = peripheral.charge_pump(self.node, 0.5)
        assert none.area == 0.0 and none.leakage_power == 0.0
        pump = peripheral.charge_pump(self.node, 3.0)
        assert pump.area > 0 and pump.leakage_power > 0

    def test_pump_efficiency_degrades_with_boost(self):
        assert peripheral.pump_efficiency(self.node, 0.5) == 1.0
        high = peripheral.pump_efficiency(self.node, 4.0)
        low = peripheral.pump_efficiency(self.node, 1.5)
        assert high < low <= 0.9

    def test_circuit_block_arithmetic(self):
        a = peripheral.CircuitBlock(1.0, 2.0, 3.0, 4.0)
        b = peripheral.CircuitBlock(10.0, 20.0, 30.0, 40.0)
        total = a + b
        assert total.delay == 11.0 and total.area == 44.0
        doubled = a.scaled(2)
        assert doubled.dynamic_energy == 4.0 and doubled.delay == 1.0


class TestPhysicsModel:
    node = get_node(22)

    def _org(self, **kwargs):
        defaults = dict(rows=512, cols=1024, mux=8, n_subarrays=16,
                        active_subarrays=1, access_bits=64, bits_per_cell=1)
        defaults.update(kwargs)
        return ArrayOrganization(**defaults)

    def test_repeated_wire_zero_length(self):
        seg = repeated_wire(self.node, 0.0)
        assert seg.delay == 0.0 and seg.energy_per_bit == 0.0

    def test_repeated_wire_monotone(self):
        short = repeated_wire(self.node, 0.5e-3)
        long = repeated_wire(self.node, 4e-3)
        assert long.delay > short.delay
        assert long.energy_per_bit > short.energy_per_bit

    def test_geometry_scales_with_cell_area(self, stt_optimistic, fefet_optimistic):
        org = self._org()
        stt_geo = subarray_geometry(stt_optimistic, self.node, org)
        fefet_geo = subarray_geometry(fefet_optimistic, self.node, org)
        # FeFET (2 F^2) has shorter wires than STT (14 F^2) at equal rows/cols.
        assert fefet_geo.wordline_length < stt_geo.wordline_length
        assert fefet_geo.bitline_length < stt_geo.bitline_length

    def test_sense_time_at_least_read_pulse(self, stt_optimistic):
        geo = subarray_geometry(stt_optimistic, self.node, self._org())
        assert bitline_sense_time(stt_optimistic, self.node, geo) >= \
            stt_optimistic.read_pulse

    def test_sram_sense_uses_differential_model(self, sram16):
        node = get_node(16)
        geo = subarray_geometry(sram16, node, self._org())
        t = bitline_sense_time(sram16, node, geo)
        assert t > 0

    def test_write_latency_dominated_by_pulse(self, fefet_optimistic):
        numbers = evaluate_organization(fefet_optimistic, self.node, self._org())
        assert numbers.write_latency >= fefet_optimistic.write_pulse

    def test_mlc_read_slower_and_write_much_slower(self, rram_optimistic):
        slc = evaluate_organization(rram_optimistic, self.node, self._org())
        mlc = evaluate_organization(
            rram_optimistic, self.node, self._org(bits_per_cell=2)
        )
        assert mlc.read_latency > slc.read_latency
        assert mlc.write_latency > slc.write_latency

    def test_energy_and_leakage_positive(self, pcm_optimistic):
        numbers = evaluate_organization(pcm_optimistic, self.node, self._org())
        assert numbers.read_energy > 0
        assert numbers.write_energy > 0
        assert numbers.leakage_power > 0
        assert numbers.sleep_power > 0
        assert 0 < numbers.area_efficiency <= 1

    def test_sram_leakage_dominated_by_cells(self, sram16):
        node = get_node(16)
        org = self._org()
        numbers = evaluate_organization(sram16, node, org)
        cell_leak = sram16.cell_leakage * org.n_subarrays * org.cells_per_subarray
        assert numbers.leakage_power > 0.9 * cell_leak

    def test_nonvolatile_sleep_is_tiny(self, stt_optimistic, sram16):
        envm = evaluate_organization(stt_optimistic, self.node, self._org())
        sram = evaluate_organization(sram16, get_node(16), self._org())
        assert envm.sleep_power < sram.sleep_power / 10


class TestCharacterize:
    def test_basic_contract(self, stt_array_1mb):
        array = stt_array_1mb
        assert isinstance(array, ArrayCharacterization)
        assert array.capacity_bytes == mb(1)
        assert array.organization.total_bits >= array.capacity_bits
        assert array.read_latency > 0 and array.write_latency > 0
        assert array.read_bandwidth > 0 and array.write_bandwidth > 0

    def test_results_cached_and_deterministic(self, stt_optimistic):
        a = characterize(stt_optimistic, mb(1), 22, OptimizationTarget.READ_EDP)
        b = characterize(stt_optimistic, mb(1), 22, OptimizationTarget.READ_EDP)
        assert a.read_latency == b.read_latency
        assert a.organization == b.organization

    def test_each_target_optimizes_its_metric(self, pcm_optimistic):
        by_target = {
            target: characterize(pcm_optimistic, mb(4), 22, target)
            for target in (
                OptimizationTarget.READ_LATENCY,
                OptimizationTarget.READ_ENERGY,
                OptimizationTarget.AREA,
                OptimizationTarget.LEAKAGE,
            )
        }
        # The characterizer may trade up to 5% of the target metric for a
        # cheaper near-tie organization, so compare with that tolerance.
        for target, array in by_target.items():
            for other in by_target.values():
                assert array.metric(target) <= other.metric(target) * 1.05

    def test_capacity_scaling_monotone(self, stt_optimistic):
        small = characterize(stt_optimistic, mb(1), 22, OptimizationTarget.READ_EDP)
        large = characterize(stt_optimistic, mb(16), 22, OptimizationTarget.READ_EDP)
        assert large.area > small.area
        assert large.leakage_power > small.leakage_power
        assert large.read_latency >= small.read_latency

    def test_mlc_doubles_density(self, rram_optimistic):
        slc = characterize(rram_optimistic, mb(4), 22, OptimizationTarget.AREA)
        mlc = characterize(
            rram_optimistic, mb(4), 22, OptimizationTarget.AREA, bits_per_cell=2
        )
        assert mlc.area < slc.area
        assert mlc.density_mbit_per_mm2 > 1.5 * slc.density_mbit_per_mm2

    def test_mlc_rejected_for_sram(self, sram16):
        from repro.errors import CellDefinitionError

        with pytest.raises(CellDefinitionError):
            characterize(sram16, mb(1), 16, bits_per_cell=2)

    def test_sweep_uses_sram_node(self, stt_optimistic, sram16):
        spec = SweepSpec(
            cells=[stt_optimistic, sram16], capacities_bytes=[mb(1)],
        )
        nodes = {p.cell.name: p.node_nm for p in sweep_points(spec)}
        assert nodes["STT-optimistic"] == 22
        assert nodes["SRAM-16nm"] == 16
        results = DSEEngine().arrays(spec)
        assert {r.cell.name: r.node_nm for r in results} == nodes

    def test_all_organizations_exposes_cloud(self, stt_optimistic):
        cloud = all_organizations(stt_optimistic, mb(1))
        assert len(cloud) > 10
        efficiencies = {round(a.area_efficiency, 3) for a in cloud}
        assert len(efficiencies) > 3  # genuinely different organizations

    def test_density_ordering_follows_cell_area(self):
        """Denser cells -> denser arrays (the Figure 5 x-axis)."""
        results = {}
        for tech in (TechnologyClass.FEFET, TechnologyClass.RRAM,
                     TechnologyClass.STT, TechnologyClass.PCM):
            cell = tentpoles_for(tech).optimistic
            results[tech] = characterize(
                cell, mb(2), 22, OptimizationTarget.READ_EDP
            ).density_mbit_per_mm2
        assert results[TechnologyClass.FEFET] > results[TechnologyClass.RRAM]
        assert results[TechnologyClass.RRAM] > results[TechnologyClass.STT]
        assert results[TechnologyClass.STT] > results[TechnologyClass.PCM]

    def test_summary_renders(self, stt_array_1mb):
        text = stt_array_1mb.summary()
        assert "STT-optimistic" in text and "mm2" in text
