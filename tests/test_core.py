"""Cross-stack engine tests: metrics, intermittent, write buffers, DSE."""


import pytest

from repro.cells import TechnologyClass, sram_cell, tentpoles_for
from repro.core import (
    DSEEngine,
    SweepSpec,
    WriteBufferConfig,
    buffered_traffic,
    coalescing_factor,
    crossover_rate,
    evaluate,
    evaluate_intermittent,
    evaluate_with_buffer,
    lifetime_seconds,
    pareto_front,
    retention_ok,
    wake_energy,
    wake_latency,
)
from repro.core.metrics import CONTROLLER_POWER_PER_BYTE
from repro.errors import CharacterizationError, EvaluationError
from repro.nvsim import OptimizationTarget, characterize
from repro.traffic import RESNET26, TrafficPattern
from repro.units import mb


class TestEvaluate:
    def test_power_decomposition(self, stt_array_1mb, simple_traffic):
        ev = evaluate(stt_array_1mb, simple_traffic)
        assert ev.total_power == pytest.approx(ev.dynamic_power + ev.leakage_power)
        controller = CONTROLLER_POWER_PER_BYTE * stt_array_1mb.capacity_bytes
        assert ev.leakage_power == pytest.approx(
            stt_array_1mb.leakage_power + controller
        )

    def test_dynamic_power_linear_in_rates(self, stt_array_1mb):
        t1 = TrafficPattern("a", 1e6, 1e4)
        t2 = TrafficPattern("b", 2e6, 2e4)
        e1 = evaluate(stt_array_1mb, t1)
        e2 = evaluate(stt_array_1mb, t2)
        assert e2.dynamic_power == pytest.approx(2 * e1.dynamic_power)

    def test_wide_accesses_scale_array_accesses(self, stt_array_1mb):
        # 64-byte application accesses against an 8-byte array port.
        narrow = TrafficPattern("n", 1e6, 0.0, access_bytes=8)
        wide = TrafficPattern("w", 1e6, 0.0, access_bytes=64)
        assert evaluate(stt_array_1mb, wide).dynamic_power == pytest.approx(
            8 * evaluate(stt_array_1mb, narrow).dynamic_power
        )

    def test_latency_aggregation(self, stt_array_1mb):
        t = TrafficPattern("l", 1e8, 1e6)
        ev = evaluate(stt_array_1mb, t)
        expected = (
            1e8 * stt_array_1mb.read_latency + 1e6 * stt_array_1mb.write_latency
        ) / stt_array_1mb.organization.concurrency
        assert ev.memory_latency_per_second == pytest.approx(expected)
        assert ev.slowdown == max(1.0, expected)

    def test_overloaded_memory_slows_down(self, stt_array_1mb):
        t = TrafficPattern("overload", 1e12, 0.0)
        ev = evaluate(stt_array_1mb, t)
        assert ev.slowdown > 1.0
        assert not ev.read_bandwidth_ok

    def test_energy_per_task(self, stt_array_1mb):
        t = TrafficPattern("task", 1e6, 0.0, reads_per_task=1000, writes_per_task=10)
        ev = evaluate(stt_array_1mb, t)
        expected = (
            1000 * stt_array_1mb.read_energy + 10 * stt_array_1mb.write_energy
        )
        assert ev.energy_per_task == pytest.approx(expected)

    def test_no_task_no_energy_per_task(self, stt_array_1mb, simple_traffic):
        assert evaluate(stt_array_1mb, simple_traffic).energy_per_task is None

    def test_invalid_mask_rejected(self, stt_array_1mb, simple_traffic):
        with pytest.raises(EvaluationError):
            evaluate(stt_array_1mb, simple_traffic, write_latency_mask=1.5)


class TestLifetime:
    def test_sram_unlimited(self, sram_array_1mb, simple_traffic):
        assert lifetime_seconds(sram_array_1mb, simple_traffic) is None

    def test_zero_writes_unlimited(self, stt_array_1mb):
        t = TrafficPattern("ro", 1e6, 0.0)
        assert lifetime_seconds(stt_array_1mb, t) is None

    def test_lifetime_inverse_in_write_rate(self, rram_optimistic):
        array = characterize(rram_optimistic, mb(1), 22, OptimizationTarget.READ_EDP)
        slow = lifetime_seconds(array, TrafficPattern("s", 0, 1e4))
        fast = lifetime_seconds(array, TrafficPattern("f", 0, 1e6))
        assert slow == pytest.approx(100 * fast)

    def test_wear_leveling_efficiency(self, rram_optimistic):
        array = characterize(rram_optimistic, mb(1), 22, OptimizationTarget.READ_EDP)
        t = TrafficPattern("w", 0, 1e6)
        ideal = lifetime_seconds(array, t, wear_leveling_efficiency=1.0)
        poor = lifetime_seconds(array, t, wear_leveling_efficiency=0.5)
        assert poor == pytest.approx(ideal / 2)

    def test_endurance_ordering(self, simple_traffic):
        """STT (1e15) outlives RRAM (1e6) under identical write load."""
        stt = characterize(
            tentpoles_for(TechnologyClass.STT).optimistic, mb(1), 22,
            OptimizationTarget.READ_EDP,
        )
        rram = characterize(
            tentpoles_for(TechnologyClass.RRAM).optimistic, mb(1), 22,
            OptimizationTarget.READ_EDP,
        )
        t = TrafficPattern("w", 0, 1e7)
        stt_life = lifetime_seconds(stt, t)
        rram_life = lifetime_seconds(rram, t)
        assert rram_life is not None
        assert stt_life is None or stt_life > rram_life

    def test_retention_check(self, stt_array_1mb, sram_array_1mb):
        assert retention_ok(stt_array_1mb, 86400.0)
        assert not retention_ok(sram_array_1mb, 1.0)
        assert retention_ok(sram_array_1mb, 0.0)


class TestIntermittent:
    def test_envm_has_no_wake_cost(self, stt_array_1mb):
        assert wake_energy(stt_array_1mb, RESNET26) == 0.0
        assert wake_latency(stt_array_1mb, RESNET26) == 0.0

    def test_sram_pays_dram_reload(self, sram_array_1mb):
        assert wake_energy(sram_array_1mb, RESNET26) > 0.0
        assert wake_latency(sram_array_1mb, RESNET26) > 0.0

    def test_daily_energy_increases_with_rate(self, stt_array_1mb):
        low = evaluate_intermittent(stt_array_1mb, RESNET26, 10)
        high = evaluate_intermittent(stt_array_1mb, RESNET26, 1e5)
        assert high.energy_per_day > low.energy_per_day

    def test_zero_rate_is_pure_sleep(self, stt_array_1mb):
        ev = evaluate_intermittent(stt_array_1mb, RESNET26, 0.0)
        assert ev.energy_per_day == pytest.approx(
            stt_array_1mb.sleep_power * 86400.0
        )

    def test_negative_rate_rejected(self, stt_array_1mb):
        with pytest.raises(EvaluationError):
            evaluate_intermittent(stt_array_1mb, RESNET26, -1.0)

    def test_crossover_math(self, stt_array_1mb, sram_array_1mb):
        # SRAM has enormous sleep power and wake cost; STT wins everywhere,
        # so there is no positive crossover where SRAM becomes better.
        a = evaluate_intermittent(sram_array_1mb, RESNET26, 1.0)
        b = evaluate_intermittent(stt_array_1mb, RESNET26, 1.0)
        assert crossover_rate(b, a) == float("inf")


class TestWriteBuffer:
    def test_config_validation(self):
        with pytest.raises(EvaluationError):
            WriteBufferConfig(mask_fraction=1.5)
        with pytest.raises(EvaluationError):
            WriteBufferConfig(traffic_reduction=1.0)

    def test_buffered_traffic_reduces_writes(self, simple_traffic):
        config = WriteBufferConfig(0.0, 0.5)
        reduced = buffered_traffic(simple_traffic, config)
        assert reduced.writes_per_second == pytest.approx(
            simple_traffic.writes_per_second / 2
        )
        assert reduced.reads_per_second == simple_traffic.reads_per_second

    def test_masking_hides_write_latency(self, pcm_optimistic):
        array = characterize(pcm_optimistic, mb(1), 22, OptimizationTarget.READ_EDP)
        t = TrafficPattern("w-heavy", 1e5, 1e6)
        plain = evaluate(array, t)
        masked = evaluate_with_buffer(array, t, WriteBufferConfig(1.0, 0.0))
        assert masked.memory_latency_per_second < plain.memory_latency_per_second
        # Energy is still paid in full.
        assert masked.dynamic_power == pytest.approx(plain.dynamic_power)

    def test_reduction_extends_lifetime(self, rram_optimistic):
        array = characterize(rram_optimistic, mb(1), 22, OptimizationTarget.READ_EDP)
        t = TrafficPattern("w", 0, 1e6)
        plain = evaluate(array, t)
        reduced = evaluate_with_buffer(array, t, WriteBufferConfig(0.0, 0.5))
        assert reduced.lifetime_seconds == pytest.approx(2 * plain.lifetime_seconds)

    def test_coalescing_factor_hot_addresses(self):
        # Repeatedly writing the same 4 lines through a 16-line buffer
        # coalesces almost everything.
        addresses = [64 * (i % 4) for i in range(1000)]
        factor = coalescing_factor(addresses, buffer_lines=16)
        assert factor > 0.95

    def test_coalescing_factor_streaming(self):
        # A pure stream cannot be coalesced.
        addresses = [64 * i for i in range(1000)]
        factor = coalescing_factor(addresses, buffer_lines=16)
        assert factor == pytest.approx(0.0, abs=0.02)

    def test_coalescing_factor_empty(self):
        assert coalescing_factor([], buffer_lines=4) == 0.0


class TestPareto:
    records = [
        {"name": "a", "x": 1.0, "y": 10.0},
        {"name": "b", "x": 2.0, "y": 5.0},
        {"name": "c", "x": 3.0, "y": 1.0},
        {"name": "d", "x": 3.0, "y": 10.0},  # dominated by a and c
        {"name": "e", "x": 2.0, "y": 5.0},  # duplicate of b: stays
    ]

    def test_front_excludes_dominated(self):
        front = pareto_front(self.records, ["x", "y"])
        names = {r["name"] for r in front}
        assert names == {"a", "b", "c", "e"}

    def test_single_objective(self):
        front = pareto_front(self.records, ["x"])
        assert {r["name"] for r in front} == {"a"}

    def test_missing_objective_excluded(self):
        records = self.records + [{"name": "f", "x": 0.0}]
        front = pareto_front(records, ["x", "y"])
        assert all("y" in r for r in front)

    def test_empty_objectives_rejected(self):
        with pytest.raises(EvaluationError):
            pareto_front(self.records, [])


class TestDSEEngine:
    def test_array_only_sweep(self, stt_optimistic, sram16):
        spec = SweepSpec(
            cells=[stt_optimistic, sram16],
            capacities_bytes=[mb(1)],
            optimization_targets=(OptimizationTarget.READ_EDP,),
        )
        table = DSEEngine().run(spec)
        assert len(table) == 2
        assert set(table.column("tech")) == {"STT", "SRAM"}
        assert set(table.column("node_nm")) == {22, 16}

    def test_traffic_sweep_rows(self, stt_optimistic, simple_traffic):
        spec = SweepSpec(
            cells=[stt_optimistic],
            capacities_bytes=[mb(1), mb(2)],
            traffic=[simple_traffic],
        )
        table = DSEEngine().run(spec)
        assert len(table) == 2
        assert all(row["workload"] == "unit-test-traffic" for row in table)

    def test_empty_sweep_rejected(self):
        with pytest.raises(CharacterizationError):
            SweepSpec(cells=[], capacities_bytes=[mb(1)])
        with pytest.raises(CharacterizationError):
            SweepSpec(cells=[sram_cell(16)], capacities_bytes=[])

    def test_record_flavor_tagging(self, stt_optimistic):
        spec = SweepSpec(cells=[stt_optimistic], capacities_bytes=[mb(1)])
        row = DSEEngine().run(spec)[0]
        assert row["flavor"] == "optimistic"
        assert row["capacity_mb"] == pytest.approx(1.0)
