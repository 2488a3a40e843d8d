"""Runtime benchmark: parallel sweep speedup and warm-cache re-runs.

Acceptance contract for the sweep runtime (see ``repro.runtime``):

* a >= 64-point sweep with ``workers > 1`` and the serial run produce
  identical ``ResultTable`` rows;
* a warm-cache re-run completes with **zero** re-characterizations.

Timings are printed for the record, never asserted: tier-1 carries no
wall-clock assertions.
"""

import os
import time

from repro.cells import VALIDATED_TECHNOLOGIES, sram_cell, study_cells
from repro.core.engine import DSEEngine, SweepSpec
from repro.nvsim.characterize import clear_characterization_caches
from repro.nvsim.result import OptimizationTarget
from repro.traffic import TrafficPattern
from repro.units import mb

#: Always >1 so the pool path is exercised.
WORKERS = max(2, min(8, os.cpu_count() or 1))


def build_spec() -> SweepSpec:
    cells = study_cells(VALIDATED_TECHNOLOGIES) + [sram_cell(16)]
    traffic = [
        TrafficPattern("read-heavy", reads_per_second=1e8, writes_per_second=1e6),
        TrafficPattern("balanced", reads_per_second=1e7, writes_per_second=1e7),
    ]
    return SweepSpec(
        cells=cells,
        capacities_bytes=[mb(2), mb(4), mb(8), mb(16)],
        traffic=traffic,
        optimization_targets=(
            OptimizationTarget.READ_EDP,
            OptimizationTarget.WRITE_EDP,
            OptimizationTarget.READ_LATENCY,
            OptimizationTarget.AREA,
        ),
    )


def timed(engine: DSEEngine, spec: SweepSpec):
    # Clear the in-process characterizer cache so every timed run (and the
    # workers forked from this process) starts cold and comparisons are fair.
    clear_characterization_caches()
    start = time.perf_counter()
    table = engine.run(spec)
    return table, time.perf_counter() - start


def test_parallel_sweep_runtime(tmp_path):
    spec = build_spec()
    n_points = (len(spec.cells) * len(spec.capacities_bytes)
                * len(spec.optimization_targets))
    assert n_points >= 64, n_points

    cache_dir = tmp_path / "nvmcache"
    cold_engine = DSEEngine(workers=WORKERS, cache_dir=cache_dir)
    parallel, t_parallel = timed(cold_engine, spec)

    serial, t_serial = timed(DSEEngine(), spec)

    warm_engine = DSEEngine(workers=WORKERS, cache_dir=cache_dir)
    warm, t_warm = timed(warm_engine, spec)

    print(f"\n=== Parallel sweep runtime ({n_points} points, "
          f"{len(spec.traffic)} traffic patterns, workers={WORKERS}) ===")
    print(f"serial          {t_serial * 1e3:8.1f} ms")
    print(f"parallel cold   {t_parallel * 1e3:8.1f} ms  "
          f"(speedup {t_serial / t_parallel:4.2f}x)")
    print(f"parallel warm   {t_warm * 1e3:8.1f} ms  "
          f"({warm_engine.last_telemetry.summary()})")

    # Equivalence: row-for-row identical tables, any worker count.
    assert list(parallel) == list(serial)
    assert list(warm) == list(serial)

    # Warm cache: every characterization served from disk, none recomputed.
    assert warm_engine.last_telemetry.completed == 0
    assert warm_engine.last_telemetry.cached == n_points
    assert warm_engine.cache.hits >= n_points

    # Warm evaluation cache: every (array x traffic) block served from
    # disk, zero fresh evaluations.
    assert warm_engine.last_telemetry.evaluated == 0
    assert warm_engine.last_telemetry.eval_cached == n_points
    assert warm_engine.eval_cache.hits >= n_points


def test_interrupted_sweep_resumes(tmp_path):
    """A sweep killed mid-run resumes from whatever the cache captured."""
    spec = build_spec()
    cache_dir = tmp_path / "nvmcache"

    # Simulate an interrupted run: characterize only the first capacity.
    partial = SweepSpec(
        cells=spec.cells,
        capacities_bytes=spec.capacities_bytes[:1],
        traffic=spec.traffic,
        optimization_targets=spec.optimization_targets,
    )
    DSEEngine(workers=WORKERS, cache_dir=cache_dir).run(partial)

    resumed = DSEEngine(workers=WORKERS, cache_dir=cache_dir)
    table = resumed.run(spec)
    n_partial = (len(spec.cells) * 1 * len(spec.optimization_targets))
    assert resumed.last_telemetry.cached == n_partial
    n_points = (len(spec.cells) * len(spec.capacities_bytes)
                * len(spec.optimization_targets))
    assert resumed.last_telemetry.completed == n_points - n_partial
    assert len(table) == n_points * len(spec.traffic)
