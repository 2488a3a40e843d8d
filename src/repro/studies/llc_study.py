"""The non-volatile LLC case study (Section IV-C, Figure 9).

16 MB last-level-cache arrays under SPEC CPU2017 traffic: per-benchmark
power, aggregate latency, and lifetime; candidates that cannot sustain a
benchmark's bandwidth demand are excluded, exactly as the paper drops
"arrays unable to meet application bandwidth".

Traffic comes from the shipped SPEC characterization table by default, or
— with ``source="synthetic"`` — is regenerated by driving synthetic
workloads through the cache simulator.  Regeneration goes through the
engine's trace phase (:meth:`~repro.core.engine.DSEEngine.llc_traces`),
which serves and persists traces like arrays and evaluation blocks
(``<cache_dir>/traces``), so repeated runs skip simulation.
"""

from __future__ import annotations

from typing import Optional

from repro.cachesim.llc import SYNTHETIC_SUITE
from repro.cells import STUDY_TECHNOLOGIES, sram_cell, study_cells
from repro.core.engine import DSEEngine, SweepSpec
from repro.errors import ConfigError
from repro.nvsim.result import OptimizationTarget
from repro.results.table import ResultTable
from repro.runtime.options import RuntimeOptions, ensure_runtime
from repro.studies.arrays import ENVM_NODE_NM, SRAM_NODE_NM
from repro.traffic.spec import spec2017_suite
from repro.units import mb

LLC_BYTES = mb(16)


def llc_traffic(source: str, engine: DSEEngine, n_accesses: int, seed: int) -> list:
    """The LLC traffic set for one study run.

    ``"spec2017"`` reads the shipped characterization table;
    ``"synthetic"`` regenerates traffic through the cache simulator, via
    the engine's trace store.
    """
    if source == "spec2017":
        return spec2017_suite()
    if source == "synthetic":
        traces = engine.llc_traces(SYNTHETIC_SUITE, n_accesses, seed)
        return [trace.traffic() for trace in traces]
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
    engine = DSEEngine(runtime)
    cells = study_cells(STUDY_TECHNOLOGIES) + [sram_cell(SRAM_NODE_NM)]
    spec = SweepSpec(
        cells=cells,
        capacities_bytes=[capacity_bytes],
        traffic=llc_traffic(source, engine, n_accesses, runtime.seed_or(1)),
        node_nm=ENVM_NODE_NM,
        sram_node_nm=SRAM_NODE_NM,
        optimization_targets=(OptimizationTarget.READ_EDP,),
        access_bits=512,
    )
    return engine.run(spec)


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
