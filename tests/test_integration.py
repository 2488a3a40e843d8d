"""Integration tests: full flows across modules, end to end."""

import json


from repro.cells import TechnologyClass, sram_cell, tentpoles_for
from repro.config import run_config
from repro.core import DSEEngine, SweepSpec, evaluate
from repro.dnn import trained_proxy
from repro.faults import fault_model_for
from repro.nvsim import OptimizationTarget, characterize
from repro.results import ResultTable
from repro.traffic import (
    NVDLAPerformanceModel,
    RESNET26,
    bfs_access_counts,
    facebook_like_graph,
    kernel_traffic,
)
from repro.units import mb
from repro.viz import summary_dashboard


class TestEndToEndFlows:
    def test_cells_to_system_metrics(self):
        """Survey -> tentpole -> array -> traffic -> metrics, one chain."""
        cell = tentpoles_for(TechnologyClass.STT).optimistic
        array = characterize(cell, mb(2), 22, OptimizationTarget.READ_EDP)
        traffic = NVDLAPerformanceModel(mb(2)).continuous_traffic(RESNET26)
        ev = evaluate(array, traffic)
        assert ev.feasible
        assert ev.total_power > 0
        assert ev.slowdown == 1.0

    def test_graph_kernel_to_lifetime(self):
        """Count BFS's accesses on the Facebook-scale graph, push its traffic
        through an RRAM scratchpad, and confirm the endurance problem the
        paper reports."""
        counts = bfs_access_counts(facebook_like_graph())
        traffic = kernel_traffic("bfs", counts)
        rram = characterize(
            tentpoles_for(TechnologyClass.RRAM).optimistic,
            mb(8), 22, OptimizationTarget.READ_EDP,
        )
        stt = characterize(
            tentpoles_for(TechnologyClass.STT).optimistic,
            mb(8), 22, OptimizationTarget.READ_EDP,
        )
        ev_rram = evaluate(rram, traffic)
        ev_stt = evaluate(stt, traffic)
        assert ev_rram.lifetime_years < 1.0
        assert ev_stt.lifetime_years is None or ev_stt.lifetime_years > 100.0

    def test_fault_chain_storage_to_accuracy(self):
        """Cell -> fault model -> injection -> task accuracy."""
        proxy = trained_proxy("resnet18")
        fefet_small = tentpoles_for(TechnologyClass.FEFET).optimistic  # 2 F^2
        model = fault_model_for(fefet_small, bits_per_cell=2)
        accuracy = proxy.accuracy_under_model(model, trials=2)
        assert accuracy < proxy.baseline_accuracy - 0.01

    def test_sweep_filter_dashboard(self):
        """Engine output flows into the dashboard rendering."""
        from repro.traffic import spec2017_suite

        spec = SweepSpec(
            cells=[tentpoles_for(TechnologyClass.STT).optimistic, sram_cell(16)],
            capacities_bytes=[mb(4)],
            traffic=spec2017_suite()[:4],
            access_bits=512,
        )
        table = DSEEngine().run(spec)
        assert len(table) > 0
        dashboard = summary_dashboard(table)
        assert "power" in dashboard

    def test_config_json_to_csv(self, tmp_path):
        """The paper's artifact flow: JSON config in, CSV out."""
        config = {
            "name": "integration",
            "cells": {
                "technologies": ["STT", "RRAM"],
                "flavors": ["optimistic"],
                "include_sram": True,
            },
            "system": {"capacities_mb": [1], "access_bits": 64},
            "traffic": {"kind": "generic", "points": 2},
            "output_csv": str(tmp_path / "out.csv"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        table = run_config(path)
        assert (tmp_path / "out.csv").exists()
        reloaded = ResultTable.from_csv((tmp_path / "out.csv").read_text())
        assert len(reloaded) == len(table) == 3 * 4  # 3 cells x 2x2 traffic

    def test_mlc_array_plus_fault_consistency(self):
        """MLC halves the array cost and raises the error rate — both sides
        of the Figure 13 trade-off come from the same cell definition."""
        rram = tentpoles_for(TechnologyClass.RRAM).optimistic
        slc_array = characterize(rram, mb(8), 22, OptimizationTarget.AREA)
        mlc_array = characterize(
            rram, mb(8), 22, OptimizationTarget.AREA, bits_per_cell=2
        )
        slc_model = fault_model_for(rram, 1)
        mlc_model = fault_model_for(rram, 2)
        assert mlc_array.area < slc_array.area
        assert mlc_model.cell_error_rate > slc_model.cell_error_rate

    def test_cross_technology_consistency_at_scale(self):
        """Every study technology characterizes at every study capacity."""
        for tech in (TechnologyClass.STT, TechnologyClass.PCM,
                     TechnologyClass.RRAM, TechnologyClass.FEFET):
            for flavor, cell in tentpoles_for(tech).labelled():
                for capacity in (mb(1), mb(8)):
                    array = characterize(
                        cell, capacity, 22, OptimizationTarget.READ_EDP
                    )
                    assert array.area > 0
                    assert array.read_latency < 1e-5
                    assert array.write_latency < 1e-1
