"""The write-buffering study (Section V-D, Figure 14).

For SPEC2017 and the Facebook-BFS workload, evaluate every study eNVM at
8 MB under the write-buffer scenarios (no buffer / mask latency / mask +
reduce traffic 25% / 50%) and report which technologies become performant
(latency) or attractive (power) as buffering improves.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Iterator, Optional, Sequence

from repro.cells import STUDY_TECHNOLOGIES, sram_cell, study_cells
from repro.core.engine import DSEEngine, SweepSpec
from repro.core.metrics import evaluation_rows
from repro.core.writebuffer import DEFAULT_SCENARIOS, WriteBufferConfig, buffered_traffic
from repro.results.table import ResultTable
from repro.runtime.options import RuntimeOptions
from repro.studies.arrays import ENVM_NODE_NM, SRAM_NODE_NM
from repro.traffic.base import TrafficPattern
from repro.traffic.graph import facebook_bfs_traffic
from repro.traffic.spec import benchmark_by_name, spec_traffic
from repro.units import mb

STUDY_CAPACITY = mb(8)


def _scenario_rows(arrays, traffic, extra: Any) -> Iterator[list[dict]]:
    """Block evaluator: every (traffic, write-buffer scenario) row.

    ``extra`` is the JSON-able scenario list (it participates in the
    evaluation-cache fingerprint, so changing the scenario sweep
    invalidates cached blocks).  Each (pattern, scenario) pair is one
    column of the model: the buffered pattern under the scenario's mask.
    """
    pairs = [(pattern, WriteBufferConfig(**config))
             for pattern in traffic for config in extra]
    blocks = evaluation_rows(
        arrays, [buffered_traffic(pattern, config) for pattern, config in pairs],
        write_latency_masks=[config.mask_fraction for _, config in pairs])
    for rows in blocks:
        for row, (pattern, config) in zip(rows, pairs):
            row["scenario"] = config.label
            row["base_workload"] = pattern.name
        yield rows


def writebuffer_study(
    workloads: Sequence[TrafficPattern] = (),
    scenarios: Sequence[WriteBufferConfig] = DEFAULT_SCENARIOS,
    runtime: Optional[RuntimeOptions] = None,
) -> ResultTable:
    """Figure 14: eNVM power/latency across write-buffer scenarios."""
    if not workloads:
        workloads = (
            facebook_bfs_traffic(),
            spec_traffic(benchmark_by_name("605.mcf_s")),
            spec_traffic(benchmark_by_name("619.lbm_s")),
        )
    engine = DSEEngine(runtime)
    spec = SweepSpec(
        cells=study_cells(STUDY_TECHNOLOGIES, include_reference=False)
        + [sram_cell(SRAM_NODE_NM)],
        capacities_bytes=[STUDY_CAPACITY],
        node_nm=ENVM_NODE_NM,
        sram_node_nm=SRAM_NODE_NM,
    )
    blocks = engine.evaluate_blocks(
        engine.arrays(spec), tuple(workloads),
        rows_fn=_scenario_rows,
        extra=[asdict(config) for config in scenarios],
    )
    table = ResultTable()
    for rows in blocks:
        for row in rows:
            table.append(row)
    return table


def performant_technologies(
    table: ResultTable,
    workload_name: str,
    scenario_label: str,
    latency_budget: float = 1.0,
) -> set[str]:
    """Technologies meeting the latency budget under one scenario."""
    rows = table.where(base_workload=workload_name, scenario=scenario_label)
    return {
        r["tech"]
        for r in rows
        if r["memory_latency_s_per_s"] <= latency_budget and r["feasible"]
    }
