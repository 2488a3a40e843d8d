"""Case-study tests: each paper study produces its expected *shape*.

The claim classes (``TestArrayStudies`` onwards) are named checks of the
paper's claims on the tables the suite publishes: they read the one
session suite run (the root ``conftest.py``'s ``suite`` fixture), as the
figure benches in ``benchmarks/`` do.  Only Fig. 4 and Fig. 7, which are
not registered studies, compute their own.  The registry-runtime and
characterization-path classes run studies themselves, because they test
caching and ``on_error`` rather than the published numbers.
"""

import re

import pytest

from repro.errors import CharacterizationError
from repro.studies import (
    acceptable,
    efficiency_of_latency_extremes,
    fefet_stt_crossover,
    intermittent_sweep,
    low_efficiency_latency_advantage,
    lowest_power_technology,
    preferred_technologies,
    tentpole_validation,
    best_lifetime_technology,
    worst_lifetime_technology,
    winner_per_benchmark,
    feasible,
    performant_technologies,
)
from repro.runtime.cache import PACK_SUFFIX
from repro.runtime.executor import SweepPoint
from repro.runtime.options import RuntimeOptions
from repro.studies.pipeline import REGISTRY
from repro.traffic import ALBERT, RESNET26
from repro.units import kb, mb


#: Per-study parameter overrides that shrink the regression sweeps below
#: without changing which code paths run.
_SHRINK = {
    "fig03_array_targets": {"capacity_bytes": mb(1)},
    "fig05_dnn_arrays": {"capacity_bytes": mb(1)},
    "fig08_graph": {"points_per_axis": 2, "include_kernels": False},
    "fig12_area_efficiency": {"traffic_points": 2, "capacity_bytes": mb(4)},
    "fig13_mlc": {"trials": 1, "capacities": (mb(8),)},
    "ext_retention": {"inferences_per_day": (1.0, 1e3)},
    "ext_synthetic_llc": {"n_accesses": 20_000},
}


class TestRegistryRuntime:
    """Every registered study honors the shared runtime options.

    The regression the registry exists to prevent: studies silently
    dropping ``cache_dir`` (the old ``inspect``-probed,
    lambda-wrapped ``summary.STUDIES`` did exactly that for
    fig11/fig12/fig13).
    """

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_cache_dir_honored_and_warm_run_identical(self, name, tmp_path):
        spec = REGISTRY[name]
        runtime = RuntimeOptions(cache_dir=tmp_path / "cache")
        overrides = _SHRINK.get(name, {})
        cold = spec.run(runtime, **overrides)
        warm = spec.run(runtime, **overrides)
        assert cold.ok and warm.ok
        # cache_dir honored: the second run recomputes nothing.
        assert warm.telemetry.completed == 0, name
        assert warm.telemetry.evaluated == 0, name
        assert warm.telemetry.trace_simulated == 0, name
        assert warm.telemetry.cached + warm.telemetry.eval_cached > 0, name
        # parity: cached rows identical to freshly computed rows.
        assert list(warm.table) == list(cold.table), name

    def test_every_builder_takes_runtime_keyword(self):
        import inspect

        for name, spec in REGISTRY.items():
            assert "runtime" in inspect.signature(spec.builder).parameters, name

    def test_trace_cache_used_by_synthetic_llc(self, tmp_path):
        runtime = RuntimeOptions(cache_dir=tmp_path / "cache")
        cold = REGISTRY["ext_synthetic_llc"].run(runtime, n_accesses=20_000)
        assert cold.telemetry.trace_simulated == 4  # one per synthetic workload
        trace_dir = tmp_path / "cache" / "traces"
        assert trace_dir.exists()
        assert list(trace_dir.glob(f"*{PACK_SUFFIX}"))
        warm = REGISTRY["ext_synthetic_llc"].run(runtime, n_accesses=20_000)
        assert warm.telemetry.trace_simulated == 0
        assert warm.telemetry.trace_cached == 4

    def test_seed_reaches_synthetic_traces(self, tmp_path):
        """runtime.seed must change the regenerated traffic, not be dropped."""
        cache = tmp_path / "cache"
        REGISTRY["ext_synthetic_llc"].run(
            RuntimeOptions(cache_dir=cache, seed=1), n_accesses=20_000)
        reseeded = REGISTRY["ext_synthetic_llc"].run(
            RuntimeOptions(cache_dir=cache, seed=2), n_accesses=20_000)
        # A different seed is a different trace fingerprint: nothing warm.
        assert reseeded.telemetry.trace_simulated == 4
        assert reseeded.telemetry.trace_cached == 0


#: Each study that needs arrays without the default evaluation, with the
#: number of SweepSpecs it characterizes (one executor call each).
_SPECS_PER_STUDY = {
    "fig06_dnn_intermittent": 1,
    "fig13_mlc": 2,  # bits per cell 1 and 2
    "fig14_writebuffer": 1,
    "ext_retention": 1,
    "ext_hierarchy": 2,  # backing at READ_EDP, front at READ_LATENCY
}

#: One point per study made to fail, as (cell name, capacity, bits per
#: cell), and the predicate of the rows that point feeds.
_FAILING_POINT = {
    "fig06_dnn_intermittent": (
        ("STT-optimistic", mb(8), 1),
        lambda r: r["cell"] == "STT-optimistic" and r["capacity_mb"] == 8,
    ),
    "fig13_mlc": (
        ("RRAM-optimistic", mb(8), 2),
        lambda r: r["cell"] == "RRAM-optimistic" and r["bits_per_cell"] == 2,
    ),
    "fig14_writebuffer": (
        ("PCM-optimistic", mb(8), 1), lambda r: r["cell"] == "PCM-optimistic",
    ),
    "ext_retention": (
        ("FeFET-pessimistic", mb(8), 1),
        lambda r: r["cell"] == "FeFET-pessimistic",
    ),
    "ext_hierarchy": (("STT-optimistic", kb(64), 1), lambda r: r["front_kb"] == 64),
}


def _fail_point(monkeypatch, cell_name, capacity, bits):
    real = SweepPoint.characterize

    def characterize(point):
        if (point.cell.name, point.capacity_bytes, point.bits_per_cell) == (
            cell_name, capacity, bits,
        ):
            raise CharacterizationError("injected failure")
        return real(point)

    monkeypatch.setattr(SweepPoint, "characterize", characterize)


class TestOneCharacterizationPath:
    """Every study characterizes whole SweepSpecs through DSEEngine.arrays."""

    @pytest.mark.parametrize("name", sorted(_SPECS_PER_STUDY))
    def test_cold_run_writes_one_array_pack_per_spec(self, name, tmp_path):
        outcome = REGISTRY[name].run(
            RuntimeOptions(cache_dir=tmp_path), **_SHRINK.get(name, {}))
        assert outcome.ok
        packs = list((tmp_path / "arrays").glob(f"*{PACK_SUFFIX}"))
        assert len(packs) == _SPECS_PER_STUDY[name]

    @pytest.mark.parametrize("name", sorted(_FAILING_POINT))
    def test_skip_drops_the_failing_points_rows(self, name, monkeypatch):
        spec, overrides = REGISTRY[name], _SHRINK.get(name, {})
        point, feeds = _FAILING_POINT[name]
        reference = list(spec.run(RuntimeOptions(), **overrides).table)
        _fail_point(monkeypatch, *point)
        outcome = spec.run(RuntimeOptions(on_error="skip"), **overrides)
        assert outcome.ok
        assert outcome.telemetry.failed == 1
        kept = [row for row in reference if not feeds(row)]
        assert len(kept) < len(reference)
        assert list(outcome.table) == kept

    @pytest.mark.parametrize("name", sorted(_FAILING_POINT))
    def test_raise_names_the_failing_point(self, name, monkeypatch):
        (cell_name, capacity, bits), _ = _FAILING_POINT[name]
        _fail_point(monkeypatch, cell_name, capacity, bits)
        label = f"{cell_name}@{capacity / mb(1):g}MB/"
        with pytest.raises(CharacterizationError, match=re.escape(label)):
            REGISTRY[name].run(
                RuntimeOptions(on_error="raise"), **_SHRINK.get(name, {}))


@pytest.fixture
def graph_table(suite):
    return suite.tables["fig08_graph"]


@pytest.fixture
def continuous_table(suite):
    return suite.tables["fig06_dnn_continuous"]


@pytest.fixture
def llc_table(suite):
    return suite.tables["fig09_spec_llc"]


class TestArrayStudies:
    def test_fig3_covers_cells_and_targets(self, suite):
        table = suite.tables["fig03_array_targets"]
        assert len(table.unique("target")) == 6
        assert "SRAM" in table.unique("tech")

    def test_fig3_targets_trade_off(self, suite):
        table = suite.tables["fig03_array_targets"]
        stt = table.where(cell="STT-optimistic")
        latency_opt = stt.where(target="ReadLatency")[0]
        area_opt = stt.where(target="Area")[0]
        assert latency_opt["read_latency_ns"] <= area_opt["read_latency_ns"]
        assert area_opt["area_mm2"] <= latency_opt["area_mm2"]

    def test_fig4_validation_brackets_published_macro(self):
        for result in tentpole_validation():
            assert result.covered or result.within_order_of_magnitude, result

    def test_fig5_density_and_tiers(self, suite):
        table = suite.tables["fig05_dnn_arrays"]
        sram = table.where(tech="SRAM")[0]
        stt = table.where(cell="STT-optimistic")[0]
        fefet = table.where(cell="FeFET-optimistic")[0]
        # optimistic STT several-fold denser than SRAM; FeFET densest of all
        assert stt["density_mbit_mm2"] > 3 * sram["density_mbit_mm2"]
        assert fefet["density_mbit_mm2"] == max(
            r["density_mbit_mm2"] for r in table
        )
        # FeFET read energy is a tier above the other optimistic eNVMs
        others = [
            r["read_energy_pj"]
            for r in table
            if r["flavor"] == "optimistic" and r["tech"] in ("STT", "PCM", "RRAM")
        ]
        assert fefet["read_energy_pj"] > 3 * max(others)

    def test_fig10_only_stt_and_rram_beat_sram_writes(self, suite):
        table = suite.tables["fig10_llc_arrays"].where(target="ReadEDP")
        sram_write = table.where(tech="SRAM")[0]["write_latency_ns"]
        beating = {
            r["tech"]
            for r in table
            if r["tech"] != "SRAM" and r["write_latency_ns"] < sram_write
        }
        assert beating == {"STT", "RRAM"}


class TestDNNStudy:
    def test_fig6_envm_power_advantage(self, continuous_table):
        rows = continuous_table.where(workload="resnet26-weights-60fps")
        sram = rows.where(tech="SRAM")[0]["total_power_mw"]
        for tech in ("PCM", "RRAM", "STT"):
            best = rows.where(tech=tech, flavor="optimistic")[0]["total_power_mw"]
            assert sram / best > 4.0, tech
        fefet = rows.where(tech="FeFET", flavor="optimistic")[0]["total_power_mw"]
        assert 1.5 < sram / fefet < 6.0

    def test_fig6_feasibility_excludes_slow_writers(self, continuous_table):
        acts = continuous_table.where(workload="resnet26-weights+acts-60fps")
        slow = acts.where(cell="PCM-pessimistic")[0]
        assert not slow["meets_fps"]

    def test_fig6_intermittent_winners_low_density_tier(self, suite):
        table = suite.tables["fig06_dnn_intermittent"]
        single = table.where(workload="resnet26")
        best = single.min_by("energy_per_inference_uj")
        assert best["tech"] in {"RRAM", "STT", "PCM"}

    def test_fig7_crossover_location(self):
        albert = fefet_stt_crossover(ALBERT, mb(32))
        assert 1e2 < albert < 1e5

    def test_fig7_albert_crosses_before_resnet(self):
        albert = fefet_stt_crossover(ALBERT, mb(32))
        resnet = fefet_stt_crossover(RESNET26, mb(2))
        assert albert < resnet

    def test_fig7_sweep_monotone_energy(self):
        table = intermittent_sweep(RESNET26, mb(2), rates_per_day=(1, 1e3, 1e6))
        for cell in table.unique("cell"):
            energies = table.where(cell=cell).sort_by("inferences_per_day")
            values = energies.column("energy_per_day_j")
            assert values == sorted(values)

    def test_table2_density_priority_picks_fefet_then_ctt_like(self, suite):
        choices = preferred_technologies(
            suite.tables["fig06_dnn_continuous"], suite.tables["fig06_dnn_intermittent"]
        )
        density_rows = [c for c in choices if c.priority == "high-density"]
        assert density_rows
        assert all(c.optimistic_winner == "FeFET" for c in density_rows)


class TestGraphStudy:
    def test_fig8_fefet_wins_low_read_rates(self, graph_table):
        assert lowest_power_technology(graph_table, 1e6) == "FeFET"

    def test_fig8_stt_wins_high_read_rates(self, graph_table):
        assert lowest_power_technology(graph_table, 1.25e9) == "STT"

    def test_fig8_stt_best_lifetime_rram_worst(self, graph_table):
        assert best_lifetime_technology(graph_table) == "STT"
        assert worst_lifetime_technology(graph_table) == "RRAM"

    def test_fig8_fefet_fails_high_write_traffic(self, graph_table):
        """Pessimistic FeFET misses SRAM-level latency at high writes."""
        heavy = graph_table.filter(
            lambda r: r["writes_per_s"] > 1e7 and r["reads_per_s"] > 1e8
        )
        sram = min(
            r["memory_latency_s_per_s"] for r in heavy if r["tech"] == "SRAM"
        )
        fefet = min(
            r["memory_latency_s_per_s"]
            for r in heavy
            if r["cell"] == "FeFET-pessimistic"
        )
        assert fefet > sram

    def test_fig8_kernel_points_included(self, graph_table):
        workloads = set(graph_table.column("workload"))
        assert "Facebook-Graph-BFS" in workloads
        assert "Wikipedia-BFS" in workloads


class TestLLCStudy:
    def test_fig9_rram_not_viable_lifetime(self, llc_table):
        """RRAM lifetime collapses under write-heavy SPEC benchmarks."""
        rows = feasible(llc_table).where(cell="RRAM-optimistic", workload="619.lbm_s")
        assert rows
        assert rows[0]["lifetime_years"] < 1.0

    def test_fig9_stt_best_lifetime(self, llc_table):
        rows = feasible(llc_table).where(workload="619.lbm_s", flavor="optimistic")
        lifetimes = {
            r["tech"]: (float("inf") if r["lifetime_years"] is None else r["lifetime_years"])
            for r in rows
        }
        assert lifetimes["STT"] == max(lifetimes.values())

    def test_fig9_low_rate_winners_are_dense_technologies(self, llc_table):
        winners = winner_per_benchmark(llc_table)
        low_rate = winners["648.exchange2_s"]
        assert low_rate in {"RRAM", "FeFET"}

    def test_fig9_all_plotted_meet_bandwidth(self, llc_table):
        ok = feasible(llc_table)
        assert all(r["feasible"] for r in ok)


class TestCodesign:
    def test_fig11_bg_fefet_closes_write_gap(self, suite):
        table = suite.tables["fig11_bg_fefet"]
        bg = table.where(cell="FeFET-back-gated")
        std = table.where(cell="FeFET-optimistic")
        assert max(bg.column("write_latency_ns")) < max(std.column("write_latency_ns")) / 5
        # BG-FeFET meets latency in strictly more scenarios.
        bg_ok = sum(1 for r in bg if r["memory_latency_s_per_s"] <= 1.0)
        std_ok = sum(1 for r in std if r["memory_latency_s_per_s"] <= 1.0)
        assert bg_ok >= std_ok

    def test_fig11_bg_fefet_trades_density_and_read_energy(self, suite):
        table = suite.tables["fig11_bg_fefet"]
        bg = table.where(cell="FeFET-back-gated")[0]
        std = table.where(cell="FeFET-optimistic")[0]
        assert bg["density_mbit_mm2"] < std["density_mbit_mm2"]

    def test_fig12_latency_optimal_designs_sacrifice_efficiency(self, suite):
        extremes = efficiency_of_latency_extremes(suite.tables["fig12_area_efficiency"])
        for tech, values in extremes.items():
            assert (
                values["latency_optimal_efficiency"] < values["max_efficiency"]
            ), tech
            assert (
                values["latency_optimal_ns"] <= values["max_efficiency_latency_ns"]
            ), tech

    def test_fig12_median_split_reports(self, suite):
        cloud = suite.tables["fig12_area_efficiency"]
        medians = low_efficiency_latency_advantage(cloud, efficiency_threshold=0.5)
        assert medians["low_eff_median"] > 0
        assert medians["high_eff_median"] > 0


class TestMLCStudy:
    @pytest.fixture
    def mlc_table(self, suite):
        return suite.tables["fig13_mlc"]

    def test_fig13_mlc_rram_acceptable_and_denser(self, mlc_table):
        rram_mlc = mlc_table.where(tech="RRAM", bits_per_cell=2, capacity_mb=8.0)[0]
        rram_slc = mlc_table.where(tech="RRAM", bits_per_cell=1, capacity_mb=8.0)[0]
        assert rram_mlc["accuracy_ok"]
        assert rram_mlc["density_mbit_mm2"] > 1.5 * rram_slc["density_mbit_mm2"]

    def test_fig13_small_fefet_mlc_fails(self, mlc_table):
        small = mlc_table.where(cell="FeFET-2F2", bits_per_cell=2, capacity_mb=8.0)[0]
        large = mlc_table.where(cell="FeFET-103F2", bits_per_cell=2, capacity_mb=8.0)[0]
        assert not small["accuracy_ok"]
        assert large["accuracy_ok"]

    def test_fig13_slc_acceptable_everywhere(self, mlc_table):
        slc = mlc_table.where(bits_per_cell=1)
        assert all(r["accuracy_ok"] for r in slc)

    def test_fig13_filter(self, mlc_table):
        ok = acceptable(mlc_table)
        assert 0 < len(ok) < len(mlc_table)


class TestWriteBufferStudy:
    @pytest.fixture
    def wb_table(self, suite):
        return suite.tables["fig14_writebuffer"]

    def test_fig14_buffering_expands_viable_set(self, wb_table):
        budget = 0.45
        before = performant_technologies(
            wb_table, "Facebook-Graph-BFS", "no-buffer", latency_budget=budget
        )
        after = performant_technologies(
            wb_table, "Facebook-Graph-BFS", "mask+reduce50", latency_budget=budget
        )
        assert before <= after
        assert len(after) > len(before)

    def test_fig14_stt_stays_lowest_power_high_traffic(self, wb_table):
        rows = wb_table.where(base_workload="Facebook-Graph-BFS",
                              scenario="mask+reduce50", flavor="optimistic")
        best = rows.min_by("total_power_mw")
        assert best["tech"] == "STT"

    def test_fig14_masking_does_not_change_power(self, wb_table):
        plain = wb_table.where(base_workload="605.mcf_s", scenario="no-buffer",
                               cell="PCM-optimistic")[0]
        masked = wb_table.where(base_workload="605.mcf_s", scenario="mask-only",
                                cell="PCM-optimistic")[0]
        assert masked["total_power_mw"] == pytest.approx(plain["total_power_mw"])
        assert masked["memory_latency_s_per_s"] < plain["memory_latency_s_per_s"]
