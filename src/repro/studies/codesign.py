"""Co-design studies (Section V-A/B, Figures 11 and 12).

* :func:`back_gated_fefet_study` — swap in the back-gated FeFET cell
  (10 ns writes, 1e12 endurance) and re-run the 8 MB graph/LLC traffic to
  see the write-latency gap close (Figure 11).
* :func:`area_efficiency_study` — the full internal-organization cloud for
  8 MB arrays, annotated with area efficiency (Figure 12).  The paper
  finds low-efficiency organizations faster; this model agrees for each
  technology's extremes and not for the cloud's medians (README.md,
  "Known deviations").
"""

from __future__ import annotations

import math
from typing import Optional

from repro.cells import back_gated_fefet, sram_cell, tentpoles_for
from repro.cells.base import TechnologyClass
from repro.core.engine import DSEEngine, SweepSpec
from repro.nvsim import all_organizations
from repro.nvsim.result import OptimizationTarget
from repro.results.table import ResultTable
from repro.runtime.options import RuntimeOptions
from repro.studies.arrays import ENVM_NODE_NM, SRAM_NODE_NM
from repro.traffic.generic import graph_envelope_sweep
from repro.traffic.graph import wikipedia_bfs_traffic
from repro.traffic.spec import spec2017_suite
from repro.units import mb

CODESIGN_CAPACITY = mb(8)


def back_gated_fefet_study(
    points_per_axis: int = 3,
    runtime: Optional[RuntimeOptions] = None,
) -> ResultTable:
    """Figure 11: back-gated FeFET vs. standard FeFETs vs. SRAM at 8 MB."""
    tent = tentpoles_for(TechnologyClass.FEFET)
    cells = [
        back_gated_fefet(),
        tent.optimistic,
        tent.pessimistic,
        sram_cell(SRAM_NODE_NM),
    ]
    traffic = graph_envelope_sweep(points_per_axis=points_per_axis)
    traffic.append(wikipedia_bfs_traffic())
    traffic.extend(spec2017_suite()[:6])
    spec = SweepSpec(
        cells=cells,
        capacities_bytes=[CODESIGN_CAPACITY],
        traffic=traffic,
        node_nm=ENVM_NODE_NM,
        sram_node_nm=SRAM_NODE_NM,
        optimization_targets=(OptimizationTarget.READ_EDP,),
        access_bits=64,
    )
    return DSEEngine(runtime).run(spec)


def area_efficiency_study(
    capacity_bytes: int = CODESIGN_CAPACITY,
    traffic_points: int = 3,
    runtime: Optional[RuntimeOptions] = None,
) -> ResultTable:
    """Figure 12: the organization cloud, annotated with area efficiency.

    Every feasible internal organization of every study technology is
    evaluated under a spread of traffic patterns; rows carry area
    efficiency so callers can apply the paper's "maximum area efficiency"
    filter and inspect the latency structure.  The (organization x
    traffic) evaluation layer runs through the engine's block cache, so
    warm re-runs skip it.
    """
    engine = DSEEngine(runtime)
    traffic = graph_envelope_sweep(points_per_axis=traffic_points)
    arrays = [
        array
        for tech in (TechnologyClass.STT, TechnologyClass.PCM,
                     TechnologyClass.RRAM, TechnologyClass.FEFET)
        for array in all_organizations(
            tentpoles_for(tech).optimistic, capacity_bytes, node_nm=ENVM_NODE_NM
        )
    ]
    table = ResultTable()
    for array, rows in zip(arrays, engine.evaluate_blocks(arrays, traffic)):
        organization = array.organization.describe()
        for row in rows:
            row["organization"] = organization
            table.append(row)
    return table


def low_efficiency_latency_advantage(
    table: ResultTable, efficiency_threshold: float = 0.5
) -> dict[str, float]:
    """Median memory latency of low- vs. high-efficiency organizations.

    Returns ``{"low_eff_median": ..., "high_eff_median": ...}``.  The paper
    observes the low-efficiency group tends to be faster; in this model the
    whole-cloud low-efficiency median is higher (H-tree delay grows with
    the inflated footprint of periphery-heavy designs).  The Figure 12
    bench reads the suite's ``fig12_area_efficiency`` table and asserts
    the per-technology extremes (:func:`efficiency_of_latency_extremes`)
    as the paper states them and these medians in the measured direction
    (README.md, "Known deviations").
    """
    low = [
        r["memory_latency_s_per_s"]
        for r in table
        if r["area_efficiency"] < efficiency_threshold
    ]
    high = [
        r["memory_latency_s_per_s"]
        for r in table
        if r["area_efficiency"] >= efficiency_threshold
    ]

    def median(values: list[float]) -> float:
        if not values:
            return math.nan
        ordered = sorted(values)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return 0.5 * (ordered[mid - 1] + ordered[mid])

    return {"low_eff_median": median(low), "high_eff_median": median(high)}


def efficiency_of_latency_extremes(table: ResultTable) -> dict[str, dict[str, float]]:
    """Per technology: area efficiency of the fastest vs. the densest design.

    The core of the Figure 12 observation — squeezing latency means doing
    *less* amortization of periphery, so the latency-optimal internal
    organization always shows lower area efficiency than the area-optimal
    one.  ``table`` is the organization cloud of
    :func:`area_efficiency_study` (the suite's ``fig12_area_efficiency``):
    each technology's fastest organization is its first row of lowest
    ``read_latency_ns``, its densest the first row of highest
    ``area_efficiency``.
    """
    out: dict[str, dict[str, float]] = {}
    for tech in table.unique("tech"):
        rows = table.where(tech=tech)
        fastest = rows.min_by("read_latency_ns")
        densest = rows.max_by("area_efficiency")
        out[tech] = {
            "latency_optimal_efficiency": fastest["area_efficiency"],
            "max_efficiency": densest["area_efficiency"],
            "latency_optimal_ns": fastest["read_latency_ns"],
            "max_efficiency_latency_ns": densest["read_latency_ns"],
        }
    return out
