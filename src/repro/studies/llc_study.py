"""The non-volatile LLC case study (Section IV-C, Figure 9).

16 MB last-level-cache arrays under SPEC CPU2017 traffic: per-benchmark
power, aggregate latency, and lifetime; candidates that cannot sustain a
benchmark's bandwidth demand are excluded, exactly as the paper drops
"arrays unable to meet application bandwidth".

Traffic comes from the shipped SPEC characterization table by default, or
— with ``source="synthetic"`` — is regenerated by driving synthetic
workloads through the cache simulator, in which case regenerated traces
persist in the runtime's trace cache (``<cache_dir>/traces``) so
repeated runs skip simulation.
"""

from __future__ import annotations

from typing import Optional

from repro.cells import STUDY_TECHNOLOGIES, sram_cell, study_cells
from repro.core.engine import SweepSpec
from repro.errors import ConfigError
from repro.nvsim.result import OptimizationTarget
from repro.results.table import ResultTable
from repro.runtime.options import RuntimeOptions, ensure_runtime
from repro.studies.arrays import ENVM_NODE_NM, SRAM_NODE_NM
from repro.traffic.spec import spec2017_suite
from repro.units import mb

LLC_BYTES = mb(16)


def regenerated_traffic(
    workloads,
    runtime: RuntimeOptions,
    n_accesses: int = 100_000,
) -> list:
    """Traffic regenerated through the cache simulator, trace-cached.

    Traces persist under the runtime's trace cache; one ``phase="trace"``
    progress event fires per workload (``completed`` = simulated fresh,
    ``cached`` = served from disk), preceded by a ``corrupt`` one when the load quarantined
    a damaged pack, so warm-run telemetry accounts for trace
    regeneration exactly like characterizations and evaluations.
    """
    # Imported lazily: the simulator pulls in numpy and the batch engine,
    # which table-driven traffic never needs.
    import time

    from repro.cachesim.llc import simulate_llc_traffic
    from repro.runtime.cache import LLCTraceCache
    from repro.runtime.telemetry import CACHED, COMPLETED, CORRUPT, ProgressEvent

    cache_dir = runtime.effective_trace_cache_dir
    cache = LLCTraceCache(cache_dir) if cache_dir is not None else None
    patterns = []
    for index, workload in enumerate(workloads):
        hits_before = cache.hits if cache is not None else 0
        corrupt_before = cache.corrupt if cache is not None else 0
        start = time.perf_counter()
        trace = simulate_llc_traffic(
            workload, n_accesses=n_accesses, seed=runtime.seed_or(1),
            cache=cache,
        )
        duration_s = time.perf_counter() - start
        patterns.append(trace.traffic())
        if runtime.progress is not None:
            if cache is not None and cache.corrupt > corrupt_before:
                runtime.progress(ProgressEvent(
                    CORRUPT, workload.name, index, len(workloads),
                    phase="trace", source="disk",
                ))
            served = cache is not None and cache.hits > hits_before
            runtime.progress(ProgressEvent(
                CACHED if served else COMPLETED, workload.name,
                index, len(workloads), phase="trace",
                source="disk" if served else "",
                duration_s=0.0 if served else duration_s,
            ))
    return patterns


def llc_traffic(
    source: str,
    runtime: RuntimeOptions,
    n_accesses: int = 100_000,
) -> list:
    """The LLC traffic set for one study run.

    ``"spec2017"`` reads the shipped characterization table;
    ``"synthetic"`` regenerates traffic through the cache simulator,
    persisting traces via the runtime's trace cache.
    """
    if source == "spec2017":
        return spec2017_suite()
    if source == "synthetic":
        from repro.cachesim.llc import SYNTHETIC_SUITE

        return regenerated_traffic(SYNTHETIC_SUITE, runtime, n_accesses)
    raise ConfigError(
        f"unknown LLC traffic source {source!r} (use 'spec2017' or 'synthetic')"
    )


def llc_study(
    capacity_bytes: int = LLC_BYTES,
    source: str = "spec2017",
    n_accesses: int = 100_000,
    runtime: Optional[RuntimeOptions] = None,
) -> ResultTable:
    """Figure 9: SPEC2017 (or regenerated synthetic) traffic on 16 MB LLCs."""
    runtime = ensure_runtime(runtime)
    cells = study_cells(STUDY_TECHNOLOGIES) + [sram_cell(SRAM_NODE_NM)]
    spec = SweepSpec(
        cells=cells,
        capacities_bytes=[capacity_bytes],
        traffic=llc_traffic(source, runtime, n_accesses=n_accesses),
        node_nm=ENVM_NODE_NM,
        sram_node_nm=SRAM_NODE_NM,
        optimization_targets=(OptimizationTarget.READ_EDP,),
        access_bits=512,
    )
    return runtime.engine().run(spec)


def feasible(table: ResultTable) -> ResultTable:
    """Drop candidates that cannot meet a benchmark's bandwidth."""
    return table.filter(lambda r: r["feasible"] and r["slowdown"] <= 1.0)


def winner_per_benchmark(table: ResultTable, column: str = "total_power_mw") -> dict:
    """The minimizing optimistic eNVM per SPEC benchmark."""
    winners = {}
    rows = feasible(table).filter(
        lambda r: r["tech"] != "SRAM" and r.get("flavor") == "optimistic"
    )
    for benchmark in rows.unique("workload"):
        winners[benchmark] = rows.where(workload=benchmark).min_by(column)["tech"]
    return winners
