"""Serial, in-process execution of sweep work.

A sweep point costs well under a millisecond of model time, so sweeps run
in the calling process, in their deterministic order: no pool, no
pickling, no chunking.  What the executor adds over a plain loop is the
cache discipline every study shares — lookup in the in-process memo,
then the on-disk cache; duplicates computed once; fresh results written
back to both — plus the batch fast path (points sharing a cell, node,
access width and bits/cell characterize as one array program) and one
telemetry event per point.

Model failures are data, not crashes: a point whose characterization
raises a framework error is reported as ``failed``, and the caller
decides (via ``on_error``) whether to abort the sweep or skip the point
and keep going.  Errors outside :class:`~repro.errors.ReproError` are
bugs and propagate.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro.cells.base import CellTechnology
from repro.errors import CharacterizationError, EvaluationError, ReproError
from repro.nvsim import characterize
from repro.nvsim.characterize import warm_lanes
from repro.nvsim.result import ArrayCharacterization, OptimizationTarget
from repro.runtime.cache import CharacterizationCache, EvaluationCache
from repro.runtime.fingerprint import (
    SCHEMA_TAG,
    evaluation_context,
    evaluation_fingerprint,
    point_fingerprint,
)
from repro.runtime.shard import PointShard
from repro.runtime.telemetry import (
    CACHED,
    COMPLETED,
    CORRUPT,
    FAILED,
    SKIPPED,
    ProgressEvent,
    SweepTelemetry,
)


@dataclass(frozen=True)
class SweepPoint:
    """One characterization request: a cell plus its array provisioning."""

    cell: CellTechnology
    capacity_bytes: int
    node_nm: int
    target: OptimizationTarget
    access_bits: int = 64
    bits_per_cell: int = 1

    @property
    def label(self) -> str:
        mb = self.capacity_bytes / (1024 * 1024)
        return f"{self.cell.name}@{mb:g}MB/{self.target.value}"

    def fingerprint(self, schema_tag: str = SCHEMA_TAG) -> str:
        return point_fingerprint(
            self.cell,
            self.capacity_bytes,
            self.node_nm,
            self.target,
            self.access_bits,
            self.bits_per_cell,
            schema_tag=schema_tag,
        )

    def characterize(self) -> ArrayCharacterization:
        return characterize(
            self.cell,
            self.capacity_bytes,
            node_nm=self.node_nm,
            optimization_target=self.target,
            access_bits=self.access_bits,
            bits_per_cell=self.bits_per_cell,
        )


def sweep_points(spec) -> List[SweepPoint]:
    """Expand a :class:`~repro.core.engine.SweepSpec` into ordered points.

    The order matches the engine's historical serial iteration (cell,
    capacity, target), which fixes the row order of every result table.
    """
    points: List[SweepPoint] = []
    for cell in spec.cells:
        node = spec.node_nm
        if not cell.tech_class.is_nonvolatile:
            node = spec.sram_node_nm
        for capacity in spec.capacities_bytes:
            for target in spec.optimization_targets:
                points.append(
                    SweepPoint(
                        cell=cell,
                        capacity_bytes=capacity,
                        node_nm=node,
                        target=target,
                        access_bits=spec.access_bits,
                        bits_per_cell=spec.bits_per_cell,
                    )
                )
    return points


# --- characterization ------------------------------------------------------


def _warm_batch(points: Sequence[SweepPoint]) -> None:
    """Evaluate a batch group's candidate spaces as one array program.

    Each member then picks its winner from the shared lanes.  A broken
    member request (bad node, infeasible space...) is left for its own
    :meth:`SweepPoint.characterize` call to report, with per-point
    context, exactly as the unbatched path reports it.
    """
    requests = dict.fromkeys(
        (p.cell, p.capacity_bytes, p.node_nm, p.access_bits, p.bits_per_cell)
        for p in points
    )
    try:
        warm_lanes(requests)
    except ReproError:
        pass


def characterize_points(
    points: Sequence[SweepPoint],
    *,
    cache: Optional[CharacterizationCache] = None,
    memory: Optional[dict] = None,
    on_error: str = "raise",
    telemetry: Optional[SweepTelemetry] = None,
    point_shard: Optional[PointShard] = None,
) -> List[Optional[ArrayCharacterization]]:
    """Characterize every point, in order, using every cache available.

    Returns one entry per point: the characterization, or ``None`` for a
    point that failed under ``on_error="skip"``.  Lookup order is the
    in-process ``memory`` dict, then the on-disk ``cache``; fresh results
    are written back to both.  Duplicate points are characterized once.
    Under ``on_error="raise"`` the first failing point raises
    :class:`~repro.errors.CharacterizationError` naming it.

    Pending points sharing (cell, node, access width, bits/cell)
    characterize as one array program (``source="batch"`` events, each
    charged an equal share of the group's wall-clock); a point alone in
    its group runs the scalar path.

    An active ``point_shard`` restricts the work to this host's
    deterministic slice of the point space: a point whose content
    fingerprint lands on another shard is returned as ``None`` without
    touching any cache, and is reported through telemetry as a
    ``skipped`` event carrying the fingerprint — the accounting behind
    the run manifest's point-shard section and the merge step's
    exactly-once verification.
    """
    if on_error not in ("raise", "skip"):
        raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
    telemetry = telemetry if telemetry is not None else SweepTelemetry()
    memory = memory if memory is not None else {}
    total = len(points)
    results: List[Optional[ArrayCharacterization]] = [None] * total
    fingerprints: List[str] = [point.fingerprint() for point in points]
    selector = (
        point_shard
        if point_shard is not None and not point_shard.is_whole_space
        else None
    )

    def _event_fp(fp: str) -> str:
        # Fingerprints ride on events only under point sharding, where
        # downstream consumers need them for partition accounting.
        return fp if selector is not None else ""

    pending_by_fp: dict[str, List[int]] = {}
    for index, point in enumerate(points):
        fp = fingerprints[index]
        if selector is not None and not selector.selects(fp):
            telemetry.emit(ProgressEvent(
                SKIPPED, point.label, index, total, fingerprint=fp))
            continue
        if fp in memory:
            results[index] = memory[fp]
            telemetry.emit(ProgressEvent(
                CACHED, point.label, index, total, source="memory",
                fingerprint=_event_fp(fp)))
            continue
        if fp in pending_by_fp:
            pending_by_fp[fp].append(index)
            continue
        corrupt_before = cache.corrupt if cache is not None else 0
        array = cache.load(fp) if cache is not None else None
        if cache is not None and cache.corrupt > corrupt_before:
            # The loader quarantined a damaged entry; the point is
            # recomputed below, this event only makes the damage visible.
            telemetry.emit(ProgressEvent(
                CORRUPT, point.label, index, total, source="disk",
                fingerprint=_event_fp(fp)))
        if array is not None:
            memory[fp] = array
            results[index] = array
            telemetry.emit(ProgressEvent(
                CACHED, point.label, index, total, source="disk",
                fingerprint=_event_fp(fp)))
            continue
        pending_by_fp[fp] = [index]

    def _record_success(
        fp: str, array: ArrayCharacterization, duration_s: float, source: str
    ) -> None:
        memory[fp] = array
        if cache is not None:
            cache.store(fp, array)
        for nth, index in enumerate(pending_by_fp[fp]):
            results[index] = array
            telemetry.emit(ProgressEvent(
                COMPLETED if nth == 0 else CACHED, points[index].label, index,
                total, source=source if nth == 0 else "memory",
                fingerprint=_event_fp(fp),
                duration_s=duration_s if nth == 0 else 0.0))

    def _record_failure(fp: str, message: str, duration_s: float) -> None:
        indices = pending_by_fp[fp]
        for nth, index in enumerate(indices):
            telemetry.emit(ProgressEvent(
                FAILED, points[index].label, index, total, error=message,
                fingerprint=_event_fp(fp),
                duration_s=duration_s if nth == 0 else 0.0))
        if on_error == "raise":
            raise CharacterizationError(f"{points[indices[0]].label}: {message}")

    groups: dict[tuple, List[str]] = {}
    for fp, indices in pending_by_fp.items():
        point = points[indices[0]]
        groups.setdefault(
            (point.cell, point.node_nm, point.access_bits, point.bits_per_cell),
            [],
        ).append(fp)
    for member_fps in groups.values():
        members = [points[pending_by_fp[fp][0]] for fp in member_fps]
        batched = len(members) > 1
        start = time.perf_counter()
        if batched:
            _warm_batch(members)
        outcomes = []
        for point in members:
            try:
                outcomes.append((point.characterize(), ""))
            except ReproError as exc:
                outcomes.append((None, str(exc)))
        share = (time.perf_counter() - start) / len(members)
        for fp, (array, error) in zip(member_fps, outcomes):
            if array is None:
                _record_failure(fp, error, share)
            else:
                _record_success(fp, array, share, "batch" if batched else "")
    return results


# --- (array x traffic) evaluation ------------------------------------------


def rows_fn_id(rows_fn) -> str:
    """Stable identity of a block evaluator, for cache fingerprints."""
    return f"{rows_fn.__module__}:{rows_fn.__qualname__}"


#: Exact types of row values a shallow ``dict()`` copy cannot alias.
_ATOMIC_TYPES = frozenset({str, int, float, bool, type(None)})


def _copy_row(row: dict) -> dict:
    """A copy of ``row`` that shares no mutable value with it."""
    if _ATOMIC_TYPES.issuperset(map(type, row.values())):
        return dict(row)
    return copy.deepcopy(row)


def evaluate_blocks(
    arrays: Sequence[ArrayCharacterization],
    traffic: Sequence,
    *,
    rows_fn: Optional[Callable] = None,
    extra: Any = None,
    cache: Optional[EvaluationCache] = None,
    memory: Optional[dict] = None,
    telemetry: Optional[SweepTelemetry] = None,
    point_shard: Optional[PointShard] = None,
) -> List[Optional[List[dict]]]:
    """Evaluate every array under the whole traffic block, in order.

    Returns one list of flattened result rows per array.  ``rows_fn``
    (default :func:`repro.core.metrics.evaluation_rows`) is a
    module-level callable ``(array, traffic, extra) -> rows`` whose
    qualified name is part of the cache key; ``extra`` carries its
    JSON-able parameters and participates in the cache key too.  A
    :class:`~repro.errors.ReproError` from ``rows_fn`` is re-raised as
    :class:`~repro.errors.EvaluationError` naming the array.

    Lookup order mirrors :func:`characterize_points`: the in-process
    ``memory`` dict, then the on-disk ``cache``; fresh blocks are written
    back to both.  Returned rows are fresh copies, so callers
    may annotate them — including nested values — without corrupting the
    in-memory memo or the persisted cache entries: a flat row (every value
    a ``str``, ``int``, ``float``, ``bool`` or ``None``) is copied with
    ``dict()``, any other row with ``copy.deepcopy``.

    An active ``point_shard`` restricts the work to this host's slice of
    the (array x traffic-block) space by evaluation fingerprint: blocks
    owned by another shard come back as ``None`` (reported as
    ``skipped`` evaluate-phase telemetry).  Sweeps sharded at the
    characterization level should *not* shard evaluation again — the
    surviving arrays already are this shard's slice.
    """
    if rows_fn is None:
        # Imported lazily: repro.core builds on this module, so a
        # module-level import of the default evaluator would be circular.
        from repro.core.metrics import evaluation_rows

        rows_fn = evaluation_rows
    traffic = tuple(traffic)
    telemetry = telemetry if telemetry is not None else SweepTelemetry()
    memory = memory if memory is not None else {}
    selector = (
        point_shard
        if point_shard is not None and not point_shard.is_whole_space
        else None
    )
    fn_id = rows_fn_id(rows_fn)
    total = len(arrays)
    results: List[Optional[List[dict]]] = [None] * total

    def _emit(
        kind: str, index: int, source: str = "", fp: str = "",
        duration_s: float = 0.0,
    ) -> None:
        telemetry.emit(ProgressEvent(
            kind, arrays[index].label, index, total,
            phase="evaluate", source=source,
            fingerprint=fp if selector is not None else "",
            duration_s=duration_s,
        ))

    context = evaluation_context(traffic, rows_fn_id=fn_id, extra=extra)
    pending_by_fp: dict[str, List[int]] = {}
    for index, array in enumerate(arrays):
        fp = evaluation_fingerprint(array, context=context)
        if selector is not None and not selector.selects(fp):
            _emit(SKIPPED, index, fp=fp)
            continue
        if fp in memory:
            results[index] = memory[fp]
            _emit(CACHED, index, source="memory", fp=fp)
            continue
        if fp in pending_by_fp:
            pending_by_fp[fp].append(index)
            continue
        corrupt_before = cache.corrupt if cache is not None else 0
        rows = cache.load(fp) if cache is not None else None
        if cache is not None and cache.corrupt > corrupt_before:
            _emit(CORRUPT, index, source="disk", fp=fp)
        if rows is not None:
            memory[fp] = rows
            results[index] = rows
            _emit(CACHED, index, source="disk", fp=fp)
            continue
        pending_by_fp[fp] = [index]

    for fp, indices in pending_by_fp.items():
        array = arrays[indices[0]]
        start = time.perf_counter()
        try:
            rows = rows_fn(array, traffic, extra)
        except ReproError as exc:
            raise EvaluationError(f"{array.label}: {exc}") from exc
        duration_s = time.perf_counter() - start
        memory[fp] = rows
        if cache is not None:
            cache.store(fp, rows)
        for nth, index in enumerate(indices):
            results[index] = rows
            _emit(COMPLETED if nth == 0 else CACHED, index,
                  source="" if nth == 0 else "memory", fp=fp,
                  duration_s=duration_s if nth == 0 else 0.0)
    # Copy at the memo boundary, so annotating a returned row never
    # corrupts the in-memory memo or the block handed to the persistent
    # cache.  Flat rows (every row this repo produces) take a dict() copy;
    # rows holding any other value are deep-copied, since a shallow copy
    # would alias their nested lists/dicts with every later cache hit.
    return [
        None if rows is None else [_copy_row(row) for row in rows]
        for rows in results
    ]
