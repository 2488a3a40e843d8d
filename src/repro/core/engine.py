"""The top-level DSE engine: cells x system configs x traffic -> results.

This is the programmatic equivalent of the paper's ``run.py`` sweep driver:
given cell definitions, array provisioning choices, and traffic patterns,
characterize every array once and evaluate every (array, traffic) pair,
producing a :class:`~repro.results.ResultTable` whose rows carry everything
the dashboards plot.

Execution is delegated to :mod:`repro.runtime`, which runs every sweep
serially in this process: ``cache_dir`` persists characterizations and
evaluation blocks across runs, and ``on_error="skip"`` reports failed
points through telemetry instead of aborting the sweep.  The defaults
(in-memory cache only, abort on error) preserve the engine's historical
behavior.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.cells.base import CellTechnology
from repro.core.metrics import array_record
from repro.errors import CharacterizationError
from repro.nvsim.result import ArrayCharacterization, OptimizationTarget
from repro.results.table import ResultTable
from repro.runtime.cache import CharacterizationCache, EvaluationCache
from repro.runtime.executor import (
    SweepPoint,
    characterize_points,
    evaluate_blocks,
    sweep_points,
)
from repro.runtime.options import (
    ARRAY_CACHE_SUBDIR,
    EVALUATION_CACHE_SUBDIR,
    RuntimeOptions,
)
from repro.runtime.telemetry import SweepTelemetry
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
    """Runs sweeps and caches array characterizations along the way.

    Parameters
    ----------
    cache_dir:
        Root of the persistent cache layout (``arrays/`` holds
        characterizations, ``evaluations/`` holds (array x traffic)
        evaluation row blocks); ``None`` keeps results in memory only.
    on_error:
        ``"raise"`` aborts the sweep on the first
        :class:`CharacterizationError` (historical behavior); ``"skip"``
        drops the failing point, records it in the run's telemetry, and
        keeps sweeping.
    progress:
        Optional callback receiving one
        :class:`~repro.runtime.telemetry.ProgressEvent` per sweep point.
    """

    def __init__(
        self,
        cache_dir: Optional[Union[str, Path]] = None,
        on_error: str = "raise",
        progress=None,
    ) -> None:
        if on_error not in ("raise", "skip"):
            raise ValueError(
                f"on_error must be 'raise' or 'skip', got {on_error!r}"
            )
        self.on_error = on_error
        self.progress = progress
        self.cache: Optional[CharacterizationCache] = None
        self.eval_cache: Optional[EvaluationCache] = None
        if cache_dir is not None:
            root = Path(cache_dir)
            self.cache = CharacterizationCache(root / ARRAY_CACHE_SUBDIR)
            self.eval_cache = EvaluationCache(root / EVALUATION_CACHE_SUBDIR)
        #: In-memory cache keyed by the stable point fingerprint (shared
        #: with the on-disk cache's addressing).
        self._array_cache: dict[str, ArrayCharacterization] = {}
        #: In-memory evaluation-block memo, keyed like the on-disk store.
        self._eval_memory: dict[str, list[dict]] = {}
        #: Telemetry of the most recent ``run``/``arrays`` call.
        self.last_telemetry: Optional[SweepTelemetry] = None

    @classmethod
    def from_options(cls, options: RuntimeOptions) -> "DSEEngine":
        """An engine configured from shared :class:`RuntimeOptions`."""
        return cls(
            cache_dir=options.cache_dir,
            on_error=options.on_error,
            progress=options.progress,
        )

    def fingerprint(
        self,
        cell: CellTechnology,
        capacity_bytes: int,
        node_nm: int,
        target: OptimizationTarget,
        access_bits: int,
        bits_per_cell: int,
    ) -> str:
        """The stable cache key of one design point."""
        return SweepPoint(
            cell, capacity_bytes, node_nm, target, access_bits, bits_per_cell
        ).fingerprint()

    def characterize(
        self,
        cell: CellTechnology,
        capacity_bytes: int,
        node_nm: int,
        target: OptimizationTarget,
        access_bits: int,
        bits_per_cell: int,
    ) -> ArrayCharacterization:
        point = SweepPoint(
            cell, capacity_bytes, node_nm, target, access_bits, bits_per_cell
        )
        result = characterize_points(
            [point],
            cache=self.cache,
            memory=self._array_cache,
            on_error="raise",
            telemetry=SweepTelemetry(self.progress),
        )[0]
        assert result is not None  # on_error="raise" never returns None
        return result

    def evaluate_blocks(
        self,
        arrays: Sequence[ArrayCharacterization],
        traffic: Sequence[TrafficPattern],
        rows_fn=None,
        extra=None,
        telemetry: Optional[SweepTelemetry] = None,
    ) -> list[list[dict]]:
        """Evaluate arrays under a traffic block through every cache layer.

        One list of flattened rows per array, in array order; blocks
        already present in the in-memory memo or the persistent
        evaluation cache are served without re-running the model.  See
        :func:`repro.runtime.executor.evaluate_blocks` for ``rows_fn`` /
        ``extra`` semantics.
        """
        return evaluate_blocks(
            arrays,
            traffic,
            rows_fn=rows_fn,
            extra=extra,
            cache=self.eval_cache,
            memory=self._eval_memory,
            telemetry=(
                telemetry if telemetry is not None else SweepTelemetry(self.progress)
            ),
        )

    def _characterized(
        self, spec: SweepSpec, telemetry: SweepTelemetry
    ) -> list[ArrayCharacterization]:
        results = characterize_points(
            sweep_points(spec),
            cache=self.cache,
            memory=self._array_cache,
            on_error=self.on_error,
            telemetry=telemetry,
        )
        return [array for array in results if array is not None]

    def arrays(self, spec: SweepSpec) -> list[ArrayCharacterization]:
        """Characterize every (cell, capacity, target) of the sweep.

        Points that fail under ``on_error="skip"`` are omitted (see
        ``last_telemetry`` for what was dropped).
        """
        telemetry = SweepTelemetry(self.progress)
        self.last_telemetry = telemetry
        return self._characterized(spec, telemetry)

    def run(self, spec: SweepSpec) -> ResultTable:
        """Run the full sweep.

        Without traffic the table holds array characterizations; with
        traffic it holds one row per (array, traffic) evaluation.  Row
        order is deterministic.
        """
        telemetry = SweepTelemetry(self.progress)
        self.last_telemetry = telemetry
        arrays = self._characterized(spec, telemetry)
        table = ResultTable()
        if not spec.traffic:
            for array in arrays:
                table.append(array_record(array))
            return table
        row_blocks = self.evaluate_blocks(
            arrays, tuple(spec.traffic), telemetry=telemetry
        )
        for rows in row_blocks:
            for row in rows:
                table.append(row)
        return table
