"""Chunked parallel execution of sweep work.

Characterizing one design point is independent of every other point, so a
sweep fans out naturally: points are split into chunks (amortizing
pickling and task dispatch over the pool), each chunk runs in a worker
process, and results are reassembled into the sweep's deterministic
order regardless of completion order.  ``workers=1`` bypasses the pool
entirely and runs the identical code path serially, so parallel and
serial sweeps produce identical results by construction.

Worker failures are data, not crashes: a point whose characterization
raises a framework error comes back as a failure record, and the caller
decides (via ``on_error``) whether to abort the sweep or skip the point
and keep going.  Infrastructure faults — a crashed worker process, a
stuck point, a transiently failing dependency — are absorbed by the
resilience layer (:mod:`repro.runtime.resilience`): pools are rebuilt,
transient failures retried with backoff, and points that exhaust their
retry budget are quarantined as ``POISONED`` while the sweep completes
around them.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.cells.base import CellTechnology
from repro.errors import (
    CharacterizationError,
    EvaluationError,
    PoisonedPointError,
    ReproError,
    TransientError,
)
from repro.nvsim import characterize
from repro.nvsim.characterize import warm_lanes
from repro.nvsim.result import ArrayCharacterization, OptimizationTarget
from repro.runtime.cache import CharacterizationCache, EvaluationCache
from repro.runtime.chaos import ChaosOptions
from repro.runtime.fingerprint import (
    SCHEMA_TAG,
    evaluation_context,
    evaluation_fingerprint,
    point_fingerprint,
)
from repro.runtime.resilience import RetryPolicy, run_resilient
from repro.runtime.shard import PointShard
from repro.runtime.telemetry import (
    CACHED,
    COMPLETED,
    CORRUPT,
    FAILED,
    POISONED,
    RETRIED,
    SKIPPED,
    ProgressEvent,
    SweepTelemetry,
)

#: Target number of chunks per worker; >1 so a slow chunk doesn't leave
#: the rest of the pool idle at the tail of the sweep.
_CHUNKS_PER_WORKER = 4


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


# --- characterization fan-out ---------------------------------------------


def _default_chunksize(n_items: int, workers: int) -> int:
    return max(1, math.ceil(n_items / (workers * _CHUNKS_PER_WORKER)))


@dataclass(frozen=True)
class _CharacterizationBatch:
    """Pending points sharing (cell, node, access width, bits/cell).

    Executed as ONE resilient task: the members' candidate-organization
    spaces are evaluated as a single array program on the batch engine
    (:func:`repro.nvsim.characterize.warm_lanes`), then each member picks
    its winner from the shared lanes.  Member outcomes are data — model
    errors and chaos poison are captured per member, so the distributed
    result (telemetry events, cache writes, poison quarantine) is
    indistinguishable from running the points individually.
    """

    points: Tuple[SweepPoint, ...]
    fingerprints: Tuple[str, ...]
    chaos: Optional[ChaosOptions]

    #: The resilience layer gates its group-key poison roll on this flag:
    #: batch members roll poison per point fingerprint inside the task
    #: body instead, keeping the poisoned set identical to unbatched runs.
    chaos_poison_inline = True


_POISON_MESSAGE = "chaos: injected persistent infrastructure fault"


def _characterize_batch(batch: _CharacterizationBatch) -> List[Tuple[str, Any]]:
    """Task body for one batch: per-member (status, payload) records.

    Transient faults (including chaos worker errors rolled on the group
    key) propagate and retry the whole group — the task is idempotent, so
    that only costs wall-clock.
    """
    requests = []
    seen = set()
    for point in batch.points:
        key = (
            point.cell, point.capacity_bytes, point.node_nm,
            point.access_bits, point.bits_per_cell,
        )
        if key not in seen:
            seen.add(key)
            requests.append(key)
    try:
        warm_lanes(requests)
    except ReproError:
        # A member's request is broken (bad node, infeasible space...).
        # Fall through: each member re-raises its own error below with
        # per-point context, exactly as the unbatched path reports it.
        pass
    outcomes: List[Tuple[str, Any]] = []
    for point, fingerprint in zip(batch.points, batch.fingerprints):
        if batch.chaos is not None and batch.chaos.rolls_poison(fingerprint):
            outcomes.append(("poisoned", _POISON_MESSAGE))
            continue
        try:
            value = point.characterize()
        except TransientError:
            raise
        except ReproError as exc:
            outcomes.append(("failed", str(exc)))
        else:
            outcomes.append(("ok", value))
    return outcomes


def _characterize_task(item) -> Any:
    """Picklable dispatcher: single point or batched group."""
    if isinstance(item, _CharacterizationBatch):
        return _characterize_batch(item)
    return item.characterize()


def characterize_points(
    points: Sequence[SweepPoint],
    *,
    workers: int = 1,
    cache: Optional[CharacterizationCache] = None,
    memory: Optional[dict] = None,
    on_error: str = "raise",
    telemetry: Optional[SweepTelemetry] = None,
    chunksize: Optional[int] = None,
    point_shard: Optional[PointShard] = None,
    retry: Optional[RetryPolicy] = None,
    chaos: Optional[ChaosOptions] = None,
) -> List[Optional[ArrayCharacterization]]:
    """Characterize every point, in order, using every cache available.

    Returns one entry per point: the characterization, or ``None`` for a
    point that failed under ``on_error="skip"``.  Lookup order is the
    in-process ``memory`` dict, then the on-disk ``cache``; fresh results
    are written back to both.  Duplicate points are characterized once.

    An active ``point_shard`` restricts the work to this host's
    deterministic slice of the point space: a point whose content
    fingerprint lands on another shard is returned as ``None`` without
    touching any cache, and is reported through telemetry as a
    ``skipped`` event carrying the fingerprint — the accounting behind
    the run manifest's point-shard section and the merge step's
    exactly-once verification.

    ``retry`` (default :class:`~repro.runtime.resilience.RetryPolicy`)
    governs transient-failure handling: worker crashes, deadline
    timeouts, and :class:`~repro.errors.TransientError` are retried with
    backoff, and a point that exhausts its budget is reported as a
    ``poisoned`` event (raising :class:`~repro.errors.PoisonedPointError`
    under ``on_error="raise"``).  ``chaos`` deterministically injects
    faults for resilience testing.
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
        first_index: int, array: ArrayCharacterization,
        duration_s: float = 0.0, source: str = "",
    ) -> None:
        fp = fingerprints[first_index]
        memory[fp] = array
        if cache is not None:
            cache.store(fp, array)
        for nth, index in enumerate(pending_by_fp[fp]):
            results[index] = array
            kind = COMPLETED if nth == 0 else CACHED
            telemetry.emit(ProgressEvent(
                kind, points[index].label, index, total,
                source=source if nth == 0 else "memory",
                fingerprint=_event_fp(fp),
                duration_s=duration_s if nth == 0 else 0.0))

    def _record_failure(
        first_index: int, message: str, duration_s: float = 0.0
    ) -> None:
        fp = fingerprints[first_index]
        for nth, index in enumerate(pending_by_fp[fp]):
            telemetry.emit(ProgressEvent(
                FAILED, points[index].label, index, total, error=message,
                fingerprint=_event_fp(fp),
                duration_s=duration_s if nth == 0 else 0.0))
        if on_error == "raise":
            raise CharacterizationError(
                f"{points[first_index].label}: {message}")

    def _record_poisoned(
        first_index: int, message: str, duration_s: float, attempts: int
    ) -> None:
        fp = fingerprints[first_index]
        for nth, index in enumerate(pending_by_fp[fp]):
            telemetry.emit(ProgressEvent(
                POISONED, points[index].label, index, total, error=message,
                fingerprint=_event_fp(fp),
                duration_s=duration_s if nth == 0 else 0.0))
        if on_error == "raise":
            raise PoisonedPointError(
                f"{points[first_index].label}: poisoned after "
                f"{attempts} attempts: {message}")

    # A point that exhausts retries reports the policy's full budget;
    # inline-poisoned batch members report the same number so poisoned
    # messages are identical whether the point ran batched or alone.
    max_attempts = (retry if retry is not None else RetryPolicy()).max_attempts

    def _on_outcome(outcome) -> None:
        members = batch_members.get(outcome.key)
        if members is not None:
            share = outcome.duration_s / len(members)
            if outcome.status == "ok":
                for fp, (status, payload) in zip(members, outcome.value):
                    first_index = pending_by_fp[fp][0]
                    if status == "ok":
                        _record_success(first_index, payload, share, source="batch")
                    elif status == "failed":
                        _record_failure(first_index, payload, share)
                    else:
                        # The poison fault is deterministic and
                        # attempt-independent: run singly, this point
                        # would have burned its whole retry budget on the
                        # same error.  Emit the equivalent RETRIED events
                        # so batched and unbatched telemetry agree.
                        for _ in range(max_attempts - 1):
                            _on_retry(fp, 0, payload)
                        _record_poisoned(first_index, payload, share, max_attempts)
            elif outcome.status == "failed":
                for fp in members:
                    _record_failure(
                        pending_by_fp[fp][0], outcome.error, share)
            else:
                for fp in members:
                    _record_poisoned(
                        pending_by_fp[fp][0], outcome.error, share,
                        outcome.attempts)
            return
        first_index = pending_by_fp[outcome.key][0]
        if outcome.status == "ok":
            _record_success(first_index, outcome.value, outcome.duration_s)
        elif outcome.status == "failed":
            _record_failure(first_index, outcome.error, outcome.duration_s)
        else:
            _record_poisoned(
                first_index, outcome.error, outcome.duration_s, outcome.attempts)

    def _on_retry(key: str, attempt: int, error: str) -> None:
        members = batch_members.get(key)
        fp = members[0] if members is not None else key
        first_index = pending_by_fp[fp][0]
        telemetry.emit(ProgressEvent(
            RETRIED, points[first_index].label, first_index, total,
            error=error, fingerprint=_event_fp(fp)))

    # Batch fast path: pending points sharing (cell, node, access width,
    # bits/cell) characterize as ONE array program instead of N scalar
    # sweeps.  Singleton groups keep the legacy per-point task shape.
    groups: dict[Tuple, List[str]] = {}
    for fp, indices in pending_by_fp.items():
        point = points[indices[0]]
        groups.setdefault(
            (point.cell, point.node_nm, point.access_bits, point.bits_per_cell),
            [],
        ).append(fp)
    tasks: List[Tuple[str, Any]] = []
    batch_members: dict[str, Tuple[str, ...]] = {}
    for member_fps in groups.values():
        if len(member_fps) < 2:
            fp = member_fps[0]
            tasks.append((fp, points[pending_by_fp[fp][0]]))
            continue
        key = "batch:" + hashlib.sha256(
            "\n".join(member_fps).encode("utf-8")
        ).hexdigest()
        batch_members[key] = tuple(member_fps)
        tasks.append((key, _CharacterizationBatch(
            points=tuple(points[pending_by_fp[fp][0]] for fp in member_fps),
            fingerprints=tuple(member_fps),
            chaos=chaos,
        )))
    if tasks:
        run_resilient(
            tasks,
            _characterize_task,
            workers=workers,
            policy=retry,
            chaos=chaos,
            chunksize=chunksize or _default_chunksize(len(tasks), workers),
            on_outcome=_on_outcome,
            on_retry=_on_retry,
        )
    return results


# --- (array x traffic) evaluation fan-out -----------------------------------


def rows_fn_id(rows_fn) -> str:
    """Stable identity of a block evaluator, for cache fingerprints."""
    return f"{rows_fn.__module__}:{rows_fn.__qualname__}"


def _apply_rows_fn(rows_fn, traffic, extra, array):
    """Picklable task body for the resilient evaluation fan-out."""
    return rows_fn(array, traffic, extra)


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
    workers: int = 1,
    cache: Optional[EvaluationCache] = None,
    memory: Optional[dict] = None,
    telemetry: Optional[SweepTelemetry] = None,
    chunksize: Optional[int] = None,
    point_shard: Optional[PointShard] = None,
    retry: Optional[RetryPolicy] = None,
    chaos: Optional[ChaosOptions] = None,
) -> List[Optional[List[dict]]]:
    """Evaluate every array under the whole traffic block, in order.

    Returns one list of flattened result rows per array.  ``rows_fn``
    (default :func:`repro.core.metrics.evaluation_rows`) must be a
    picklable module-level callable ``(array, traffic, extra) -> rows``;
    ``extra`` carries its JSON-able parameters and participates in the
    cache key.  Lookup order mirrors :func:`characterize_points`: the
    in-process ``memory`` dict, then the on-disk ``cache``; fresh blocks
    are written back to both.  Returned rows are fresh copies, so callers
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
    fingerprints: List[str] = []
    for index, array in enumerate(arrays):
        fp = evaluation_fingerprint(array, context=context)
        fingerprints.append(fp)
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

    def _record(first_index: int, rows: List[dict], duration_s: float = 0.0) -> None:
        fp = fingerprints[first_index]
        memory[fp] = rows
        if cache is not None:
            cache.store(fp, rows)
        for nth, index in enumerate(pending_by_fp[fp]):
            results[index] = rows
            _emit(COMPLETED if nth == 0 else CACHED, index,
                  source="" if nth == 0 else "memory", fp=fp,
                  duration_s=duration_s if nth == 0 else 0.0)

    def _on_outcome(outcome) -> None:
        first_index = pending_by_fp[outcome.key][0]
        if outcome.status == "ok":
            _record(first_index, outcome.value, outcome.duration_s)
        elif outcome.status == "failed":
            # Deterministic evaluation failures keep their historical
            # semantics: they propagate (there is no on_error knob here).
            raise EvaluationError(
                f"{arrays[first_index].label}: {outcome.error}")
        else:
            # Transient infrastructure faults exhausted the retry budget:
            # quarantine the block and complete the sweep around it.
            for nth, index in enumerate(pending_by_fp[outcome.key]):
                _emit(POISONED, index, fp=outcome.key,
                      duration_s=outcome.duration_s if nth == 0 else 0.0)

    def _on_retry(key: str, attempt: int, error: str) -> None:
        first_index = pending_by_fp[key][0]
        telemetry.emit(ProgressEvent(
            RETRIED, arrays[first_index].label, first_index, total,
            phase="evaluate", error=error,
            fingerprint=key if selector is not None else ""))

    tasks = [(fp, arrays[indices[0]]) for fp, indices in pending_by_fp.items()]
    if tasks:
        run_resilient(
            tasks,
            functools.partial(_apply_rows_fn, rows_fn, traffic, extra),
            workers=workers,
            policy=retry,
            chaos=chaos,
            chunksize=chunksize or _default_chunksize(len(tasks), workers),
            on_outcome=_on_outcome,
            on_retry=_on_retry,
        )
    # Copy at the memo boundary, so annotating a returned row never
    # corrupts the in-memory memo or the block handed to the persistent
    # cache.  Flat rows (every row this repo produces) take a dict() copy;
    # rows holding any other value are deep-copied, since a shallow copy
    # would alias their nested lists/dicts with every later cache hit.
    return [
        None if rows is None else [_copy_row(row) for row in rows]
        for rows in results
    ]
