"""The top-level DSE engine: cells x system configs x traffic -> results.

This is the programmatic equivalent of the paper's ``run.py`` sweep driver:
given cell definitions, array provisioning choices, and traffic patterns,
characterize every array once and evaluate every (array, traffic) pair,
producing a :class:`~repro.results.ResultTable` whose rows carry everything
the dashboards plot.

Every study describes the arrays it needs as :class:`SweepSpec` objects
and characterizes each through :meth:`DSEEngine.arrays`, one call per
spec; there is no single-point entry, so ``on_error`` means the same in
every study.

Execution is delegated to :mod:`repro.runtime`, which runs every sweep
serially in this process.  An engine is built from one
:class:`~repro.runtime.options.RuntimeOptions`: its ``cache_dir``
persists characterizations, evaluation blocks and the LLC traces the
cache-hierarchy studies regenerate, ``on_error="skip"`` reports failed
points as progress events instead of aborting the sweep, and every
event goes to its ``progress`` callback.  The defaults
(no persistent cache, abort on error) preserve the engine's historical
behavior.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from repro.cachesim.llc import LLCTrace
from repro.cachesim.streams import WorkloadModel
from repro.cells.base import CellTechnology
from repro.core.metrics import array_record
from repro.errors import CharacterizationError
from repro.nvsim.result import ArrayCharacterization, OptimizationTarget
from repro.results.table import ResultTable
from repro.runtime.cache import CharacterizationCache, EvaluationCache, LLCTraceCache
from repro.runtime.executor import (
    characterize_points,
    evaluate_blocks,
    simulate_traces,
    sweep_points,
)
from repro.runtime.options import RuntimeOptions, ensure_runtime
from repro.traffic.base import TrafficPattern


@dataclass(frozen=True)
class SweepSpec:
    """One design sweep: the cross product the engine evaluates."""

    cells: Sequence[CellTechnology]
    capacities_bytes: Sequence[int]
    traffic: Sequence[TrafficPattern] = ()
    node_nm: int = 22
    sram_node_nm: int = 16
    optimization_targets: Sequence[OptimizationTarget] = (
        OptimizationTarget.READ_EDP,
    )
    access_bits: int = 64
    bits_per_cell: int = 1

    def __post_init__(self) -> None:
        if not self.cells:
            raise CharacterizationError("sweep needs at least one cell")
        if not self.capacities_bytes:
            raise CharacterizationError("sweep needs at least one capacity")


class DSEEngine:
    """Runs sweeps and regenerates LLC traces through the runtime's stores.

    ``runtime`` (default: no persistent cache, abort on error) names the
    persistent cache root, whose ``arrays/``, ``evaluations/`` and
    ``traces/`` stores back :attr:`cache`, :attr:`eval_cache` and
    :attr:`trace_cache`; the error policy (``on_error="skip"`` drops a
    failing point, reports it as a ``failed`` event and keeps sweeping);
    and the progress callback, which receives one
    :class:`~repro.runtime.telemetry.ProgressEvent` per item (a study
    passes its :class:`~repro.runtime.telemetry.SweepTelemetry`).
    Each store sits in the directory its class's ``store_name`` names.
    An engine memoizes nothing between calls: a repeated point is served
    by the persistent store, or recomputed.
    """

    def __init__(self, runtime: Optional[RuntimeOptions] = None) -> None:
        self.runtime = ensure_runtime(runtime)
        self.cache: Optional[CharacterizationCache] = None
        self.eval_cache: Optional[EvaluationCache] = None
        self.trace_cache: Optional[LLCTraceCache] = None
        if self.runtime.cache_dir is not None:
            root = Path(self.runtime.cache_dir)
            self.cache, self.eval_cache, self.trace_cache = (
                store(root / store.store_name)
                for store in (CharacterizationCache, EvaluationCache, LLCTraceCache)
            )

    def evaluate_blocks(
        self,
        arrays: Sequence[ArrayCharacterization],
        traffic: Sequence[TrafficPattern],
        rows_fn=None,
        extra=None,
    ) -> list[list[dict]]:
        """Evaluate arrays under a traffic block through every cache layer.

        One list of flattened rows per array, in array order; blocks
        already present in the persistent evaluation cache are served
        without re-running the model.  See
        :func:`repro.runtime.executor.evaluate_blocks` for ``rows_fn`` /
        ``extra`` semantics.
        """
        return evaluate_blocks(
            arrays,
            traffic,
            rows_fn=rows_fn,
            extra=extra,
            cache=self.eval_cache,
            progress=self.runtime.progress,
        )

    def llc_traces(
        self, workloads: Sequence[WorkloadModel], n_accesses: int, seed: int
    ) -> list[LLCTrace]:
        """Each workload's LLC trace, regenerated through the trace store.

        See :func:`repro.runtime.executor.simulate_traces`.
        """
        return simulate_traces(
            workloads,
            n_accesses=n_accesses,
            seed=seed,
            cache=self.trace_cache,
            progress=self.runtime.progress,
        )

    def arrays(self, spec: SweepSpec) -> list[ArrayCharacterization]:
        """Characterize every (cell, capacity, target) of the sweep.

        This is the engine's one characterization path: the whole spec
        goes to the executor in one call.  Points that fail under
        ``on_error="skip"`` are omitted (callers look arrays up by cell
        and capacity, so a dropped point has no rows); each is reported
        to the progress callback as a ``failed`` event.  Under
        ``on_error="raise"`` the first failing point raises
        :class:`~repro.errors.CharacterizationError` naming it.
        """
        results = characterize_points(
            sweep_points(spec),
            cache=self.cache,
            on_error=self.runtime.on_error,
            progress=self.runtime.progress,
        )
        return [array for array in results if array is not None]

    def run(self, spec: SweepSpec) -> ResultTable:
        """Run the full sweep.

        Without traffic the table holds array characterizations; with
        traffic it holds one row per (array, traffic) evaluation.  Row
        order is deterministic.
        """
        arrays = self.arrays(spec)
        table = ResultTable()
        if not spec.traffic:
            for array in arrays:
                table.append(array_record(array))
            return table
        for rows in self.evaluate_blocks(arrays, tuple(spec.traffic)):
            for row in rows:
                table.append(row)
        return table
