"""Write-buffer sizing study over explicit two-level hierarchies.

Extends the Figure 14 what-if into a concrete design question: an STT
front buffer over an 8 MB eNVM store, with the write-coalescing factor
*measured* per buffer size on a locality-parameterized write stream.
Reports the power/latency/lifetime landscape versus buffer size for each
backing technology.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from repro.cachesim import SYNTHETIC_SUITE, zipfian_batch
from repro.cells import tentpoles_for
from repro.cells.base import TechnologyClass
from repro.core.engine import DSEEngine, SweepSpec
from repro.core.hierarchy import evaluate_hierarchy
from repro.core.writebuffer import coalescing_factor
from repro.nvsim.result import OptimizationTarget
from repro.results.table import ResultTable
from repro.runtime.options import RuntimeOptions, ensure_runtime
from repro.studies.arrays import ENVM_NODE_NM
from repro.traffic.graph import facebook_bfs_traffic
from repro.units import kb, mb

BACKING_CAPACITY = mb(8)
FRONT_SIZES_KB = (16, 64, 256)


@lru_cache(maxsize=8)
def measured_coalescing(front_kb: int, skew: float = 1.3, seed: int = 5) -> float:
    """Coalescing factor of a ``front_kb`` buffer on a zipfian write stream."""
    addresses, _ = zipfian_batch(
        30_000, working_set_bytes=mb(2), write_fraction=1.0,
        skew=skew, seed=seed,
    )
    return coalescing_factor(addresses, buffer_lines=front_kb * 1024 // 64)


def hierarchy_study(
    backing_techs=(TechnologyClass.FEFET, TechnologyClass.PCM,
                   TechnologyClass.RRAM),
    front_sizes_kb=FRONT_SIZES_KB,
    read_hit_rate: float = 0.3,
    traffic_source: str = "bfs",
    runtime: Optional[RuntimeOptions] = None,
) -> ResultTable:
    """STT-front hierarchies over several backing eNVMs.

    ``traffic_source="bfs"`` uses the measured Facebook-BFS pattern;
    ``"synthetic-llc"`` regenerates traffic through the cache simulator,
    via the engine's trace store.
    """
    runtime = ensure_runtime(runtime)
    engine = DSEEngine(runtime)
    if traffic_source == "synthetic-llc":
        [trace] = engine.llc_traces(SYNTHETIC_SUITE[1:2], 100_000, runtime.seed_or(1))
        traffic = trace.traffic()
    else:
        traffic = facebook_bfs_traffic()
    backings = {
        a.cell: a
        for a in engine.arrays(SweepSpec(
            cells=[tentpoles_for(tech).optimistic for tech in backing_techs],
            capacities_bytes=[BACKING_CAPACITY],
            node_nm=ENVM_NODE_NM,
        ))
    }
    fronts = {
        a.capacity_bytes: a
        for a in engine.arrays(SweepSpec(
            cells=[tentpoles_for(TechnologyClass.STT).optimistic],
            capacities_bytes=[kb(front_kb) for front_kb in front_sizes_kb],
            node_nm=ENVM_NODE_NM,
            optimization_targets=(OptimizationTarget.READ_LATENCY,),
        ))
    }
    table = ResultTable()
    for tech in backing_techs:
        backing = backings.get(tentpoles_for(tech).optimistic)
        for front_kb in front_sizes_kb:
            front = fronts.get(kb(front_kb))
            if backing is None or front is None:  # dropped under on_error="skip"
                continue
            coalescing = measured_coalescing(front_kb, seed=runtime.seed_or(5))
            combo = evaluate_hierarchy(
                front, backing, traffic,
                read_hit_rate=read_hit_rate,
                write_coalescing=coalescing,
            )
            table.append(
                {
                    "backing_tech": tech.value,
                    "front_kb": front_kb,
                    "coalescing": coalescing,
                    "total_power_mw": combo.total_power * 1e3,
                    "latency_s_per_s": combo.memory_latency_per_second,
                    "backing_lifetime_years": combo.lifetime_years,
                }
            )
    return table
