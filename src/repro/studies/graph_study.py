"""The graph-processing case study (Section IV-B, Figure 8).

8 MB scratchpad arrays under (a) generic traffic covering graph-kernel
bandwidth envelopes and (b) BFS traffic counted in closed form over the
synthetic Facebook/Wikipedia-scale graphs, evaluated for power, aggregate
latency, and projected lifetime.
"""

from __future__ import annotations

from typing import Optional

from repro.cells import STUDY_TECHNOLOGIES, sram_cell, study_cells
from repro.core.engine import DSEEngine, SweepSpec
from repro.results.table import ResultTable
from repro.runtime.options import RuntimeOptions
from repro.studies.arrays import ENVM_NODE_NM, SRAM_NODE_NM
from repro.nvsim.result import OptimizationTarget
from repro.traffic.generic import graph_envelope_sweep
from repro.traffic.graph import facebook_bfs_traffic, wikipedia_bfs_traffic
from repro.units import mb

#: The Graphicionado-style scratchpad the paper replaces.
SCRATCHPAD_BYTES = mb(8)
#: The cited scratchpad latency target, seconds.
SCRATCHPAD_LATENCY_TARGET = 1.5e-9


def graph_study(
    points_per_axis: int = 4,
    include_kernels: bool = True,
    capacity_bytes: int = SCRATCHPAD_BYTES,
    runtime: Optional[RuntimeOptions] = None,
) -> ResultTable:
    """Figure 8: generic graph traffic (+ BFS kernel points) on 8 MB arrays."""
    traffic = graph_envelope_sweep(points_per_axis=points_per_axis)
    if include_kernels:
        traffic = traffic + [facebook_bfs_traffic(), wikipedia_bfs_traffic()]
    cells = study_cells(STUDY_TECHNOLOGIES) + [sram_cell(SRAM_NODE_NM)]
    spec = SweepSpec(
        cells=cells,
        capacities_bytes=[capacity_bytes],
        traffic=traffic,
        node_nm=ENVM_NODE_NM,
        sram_node_nm=SRAM_NODE_NM,
        optimization_targets=(OptimizationTarget.READ_EDP,),
        access_bits=64,
    )
    return DSEEngine(runtime).run(spec)


def lowest_power_technology(
    table: ResultTable,
    reads_per_second: float,
    tolerance: float = 2.0,
    flavor: Optional[str] = "optimistic",
) -> str:
    """The lowest-power technology at the traffic column nearest a read rate.

    Looks across all write rates at that column (like reading the bottom
    envelope of Figure 8, left).
    """
    rows = table.filter(lambda r: r["tech"] != "SRAM")
    if flavor is not None:
        rows = rows.where(flavor=flavor)
    rates = sorted(set(rows.column("reads_per_s")))
    nearest = min(rates, key=lambda r: abs(r - reads_per_second))
    column_rows = rows.filter(
        lambda r: abs(r["reads_per_s"] - nearest) <= nearest / tolerance
    )
    return column_rows.min_by("total_power_mw")["tech"]


def best_lifetime_technology(table: ResultTable) -> str:
    """Technology with the longest worst-case lifetime across the sweep."""
    worst: dict[str, float] = {}
    for row in table:
        if row["tech"] == "SRAM" or row.get("flavor") != "optimistic":
            continue
        lifetime = row.get("lifetime_years")
        if lifetime is None:
            lifetime = float("inf")
        tech = row["tech"]
        worst[tech] = min(worst.get(tech, float("inf")), lifetime)
    return max(worst, key=worst.get)


def worst_lifetime_technology(table: ResultTable) -> str:
    """Technology with the shortest best-case lifetime (Figure 8 right)."""
    best: dict[str, float] = {}
    for row in table:
        if row["tech"] == "SRAM" or row.get("flavor") != "optimistic":
            continue
        lifetime = row.get("lifetime_years")
        if lifetime is None:
            lifetime = float("inf")
        tech = row["tech"]
        best[tech] = max(best.get(tech, 0.0), lifetime) if tech in best else lifetime
    return min(best, key=best.get)
