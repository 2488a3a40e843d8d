"""Serial, in-process execution of sweep work.

A sweep point costs well under a millisecond of model time, so sweeps run
in the calling process, in their deterministic order: no pool, no
pickling, no chunking.  What the executor adds over a plain loop is the
cache discipline, written once in :func:`_cached_work` and shared by its
three phases — array characterization (:func:`characterize_points`),
(array x traffic) evaluation (:func:`evaluate_blocks`) and LLC trace
regeneration (:func:`simulate_traces`): lookup in the on-disk store
(fingerprints are computed only when there is one); damaged packs
deleted and counted; equal items within a call computed once; fresh
results written back, as one pack file per call; one progress event
per item, logged on the ``repro.runtime`` logger and passed to the
caller's callback.  Nothing is memoized across calls: a repeat is
served by the disk store, or recomputed, which for an array whose
candidate lanes are warm costs tens of microseconds.

Model failures are data, not crashes: a point whose characterization
raises a framework error is reported as ``failed``, and the caller
decides (via ``on_error``) whether to abort the sweep or skip the point
and keep going.  Errors outside :class:`~repro.errors.ReproError` are
bugs and propagate.
"""

from __future__ import annotations

import contextlib
import copy
import logging
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.cachesim.llc import LLCTrace, simulate_llc_traffic
from repro.cachesim.streams import WorkloadModel
from repro.cells.base import CellTechnology
from repro.errors import CharacterizationError, EvaluationError, ReproError
from repro.nvsim import characterize
from repro.nvsim.characterize import warm_lanes
from repro.nvsim.result import ArrayCharacterization, OptimizationTarget
from repro.runtime.cache import (
    CharacterizationCache,
    EvaluationCache,
    JsonObjectCache,
    LLCTraceCache,
)
from repro.runtime.fingerprint import (
    evaluation_context,
    evaluation_fingerprint,
    point_fingerprint,
    trace_fingerprint,
)
from repro.runtime.telemetry import (
    CACHED,
    COMPLETED,
    CORRUPT,
    FAILED,
    ProgressCallback,
    ProgressEvent,
)

logger = logging.getLogger("repro.runtime")


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

    def fingerprint(self) -> str:
        return point_fingerprint(
            self.cell,
            self.capacity_bytes,
            self.node_nm,
            self.target,
            self.access_bits,
            self.bits_per_cell,
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


# --- the cached-work rule ----------------------------------------------------

#: One fresh outcome yielded by a phase's ``compute``: the index of the
#: item, its result (or the :class:`~repro.errors.ReproError` it failed
#: with) and the wall-clock seconds charged to it.
Outcome = Tuple[int, Any, float]


def _cached_work(
    phase: str,
    items: Sequence,
    labels: Sequence[str],
    fingerprint: Callable[[Any], str],
    compute: Callable[[List[int]], Iterable[Outcome]],
    *,
    cache: Optional[JsonObjectCache],
    progress: Optional[ProgressCallback],
    on_error: str = "raise",
) -> list:
    """Run one phase's items through the disk store.

    An item (a frozen, hashable value) is its own key; with a ``cache``
    its key is ``fingerprint(item)``, computed once per item, and each
    distinct key is looked up once in the store.  Every damaged pack a
    load deletes (a refresh of the store's index can find several) emits
    one ``corrupt`` event.  The items still missing are computed once
    per key by ``compute(first indices)``, written back to the store
    (one pack per call) and reported with one event per item, which is
    logged and passed to ``progress``.  A repeated key gets the same
    object as its first occurrence, reported as ``cached`` from
    ``memory``.

    Only characterization yields failures as data: a ``ReproError``
    outcome emits ``failed`` events and, under ``on_error="raise"``,
    raises :class:`~repro.errors.CharacterizationError` naming the item.
    The other phases raise from ``compute``.
    """
    total = len(labels)
    results: list = [None] * total

    def emit(kind: str, index: int, source: str = "", **details) -> None:
        event = ProgressEvent(
            kind, labels[index], index, total, phase=phase, source=source,
            **details)
        level = logging.WARNING if kind == FAILED else logging.DEBUG
        if logger.isEnabledFor(level):
            logger.log(level, "%s", event.describe())
        if progress is not None:
            progress(event)

    firsts: dict = {}  # key -> index of its first item
    pending: dict[int, List[int]] = {}  # first index -> indices to compute
    pending_keys: dict[int, Any] = {}  # first index -> its key
    for index, item in enumerate(items):
        key = item if cache is None else fingerprint(item)
        first = firsts.setdefault(key, index)
        if first != index:  # a repeat of an earlier item
            if first in pending:
                pending[first].append(index)
            else:
                results[index] = results[first]
                emit(CACHED, index, "memory")
            continue
        value = None
        if cache is not None:
            corrupt_before = cache.corrupt
            value = cache.load(key)
            for _ in range(cache.corrupt - corrupt_before):
                emit(CORRUPT, index, "disk")
        if value is None:
            pending[index] = [index]
            pending_keys[index] = key
            continue
        results[index] = value
        emit(CACHED, index, "disk")

    # One pack per call; it is committed even when a failure or an
    # interrupt cuts the loop short, so finished items are kept.
    with cache.batch() if cache is not None else contextlib.nullcontext():
        for first, value, duration_s in compute(list(pending)):
            if isinstance(value, ReproError):
                for nth, index in enumerate(pending[first]):
                    emit(FAILED, index, error=str(value),
                         duration_s=duration_s if nth == 0 else 0.0)
                if on_error == "raise":
                    raise CharacterizationError(f"{labels[first]}: {value}")
                continue
            if cache is not None:
                cache.store(pending_keys[first], value)
            for nth, index in enumerate(pending[first]):
                results[index] = value
                if nth == 0:
                    emit(COMPLETED, index, duration_s=duration_s)
                else:
                    emit(CACHED, index, "memory")
    return results


# --- characterization ------------------------------------------------------


def characterize_points(
    points: Sequence[SweepPoint],
    *,
    cache: Optional[CharacterizationCache] = None,
    on_error: str = "raise",
    progress: Optional[ProgressCallback] = None,
) -> List[Optional[ArrayCharacterization]]:
    """Characterize every point, in order, through the on-disk ``cache``.

    Returns one entry per point: the characterization, or ``None`` for a
    point that failed under ``on_error="skip"``.  Points are looked up in
    ``cache`` and fresh results are written back to it.  Duplicate points
    are characterized once.
    Under ``on_error="raise"`` the first failing point raises
    :class:`~repro.errors.CharacterizationError` naming it.

    Pending points sharing (cell, node, access width, bits/cell) warm
    their candidate spaces as one array program
    (:func:`~repro.nvsim.characterize.warm_lanes`), then each picks its
    winner from the shared lanes; each is charged an equal share of the
    group's wall-clock.
    """
    if on_error not in ("raise", "skip"):
        raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")

    def compute(firsts: List[int]) -> Iterator[Outcome]:
        groups: dict[tuple, List[int]] = {}
        for index in firsts:
            p = points[index]
            groups.setdefault(
                (p.cell, p.node_nm, p.access_bits, p.bits_per_cell), []
            ).append(index)
        for members in groups.values():
            start = time.perf_counter()
            try:
                warm_lanes(dict.fromkeys(
                    (p.cell, p.capacity_bytes, p.node_nm, p.access_bits,
                     p.bits_per_cell)
                    for p in (points[index] for index in members)))
            except ReproError:
                pass  # each member's characterize() reports it, in context
            outcomes = []
            for index in members:
                try:
                    outcomes.append((index, points[index].characterize()))
                except ReproError as exc:
                    outcomes.append((index, exc))
            share = (time.perf_counter() - start) / len(members)
            for index, value in outcomes:
                yield index, value, share

    return _cached_work(
        "characterize", points, [p.label for p in points],
        SweepPoint.fingerprint, compute,
        cache=cache, progress=progress, on_error=on_error,
    )


# --- (array x traffic) evaluation ------------------------------------------


def rows_fn_id(rows_fn) -> str:
    """Stable identity of a block evaluator, for cache fingerprints."""
    return f"{rows_fn.__module__}:{rows_fn.__qualname__}"


def evaluate_blocks(
    arrays: Sequence[ArrayCharacterization],
    traffic: Sequence,
    *,
    rows_fn: Optional[Callable] = None,
    extra: Any = None,
    cache: Optional[EvaluationCache] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[List[dict]]:
    """Evaluate every array under the whole traffic block, in order.

    Returns one list of flattened result rows per array.  ``rows_fn``
    (default :func:`repro.core.metrics.evaluation_rows`) is a
    module-level callable ``(arrays, traffic, extra)`` that returns an
    iterator of one block of rows per array, in order.  It is called
    once, with every array the store does not serve, so it can evaluate
    them as one array program.  Its qualified name and ``extra`` (its
    JSON-able parameters) are part of the cache key.  A
    :class:`~repro.errors.ReproError` from ``rows_fn`` is re-raised as
    :class:`~repro.errors.EvaluationError` naming the array whose block
    it was building.

    Blocks are looked up in the on-disk ``cache``, and each fresh block
    is stored as it is yielded, so an interrupt keeps the finished ones;
    with no ``cache``, no fingerprint is computed.  Every returned block
    is the caller's own: callers may annotate its rows, including nested
    values, without changing another block or a persisted entry.
    """
    if rows_fn is None:
        # Imported lazily: repro.core builds on this module, so a
        # module-level import of the default evaluator would be circular.
        from repro.core.metrics import evaluation_rows

        rows_fn = evaluation_rows
    traffic = tuple(traffic)
    context = None
    if cache is not None:
        context = evaluation_context(
            traffic, rows_fn_id=rows_fn_id(rows_fn), extra=extra)

    def compute(firsts: List[int]) -> Iterator[Outcome]:
        if not firsts:
            return
        index = firsts[0]
        start = time.perf_counter()
        try:
            blocks = iter(rows_fn([arrays[i] for i in firsts], traffic, extra))
            for index in firsts:
                rows = next(blocks)
                yield index, rows, time.perf_counter() - start
                start = time.perf_counter()
        except ReproError as exc:
            raise EvaluationError(f"{arrays[index].label}: {exc}") from exc

    results = _cached_work(
        "evaluate", arrays, [array.label for array in arrays],
        lambda array: evaluation_fingerprint(array, context),
        compute, cache=cache, progress=progress,
    )
    # Fresh blocks are built by rows_fn and disk hits are decoded anew,
    # so neither aliases anything.  Only an array repeated in this call
    # shares its block with the first occurrence: it gets a deep copy.
    seen: set = set()
    for index, rows in enumerate(results):
        if id(rows) in seen:
            results[index] = copy.deepcopy(rows)
        seen.add(id(rows))
    return results


# --- LLC traces --------------------------------------------------------------

#: The L2 + LLC hierarchy and core every regenerated trace models; with
#: ``n_accesses`` and ``seed`` they are the trace's fingerprinted inputs.
_TRACE_HIERARCHY = dict(
    l2_kb=512, llc_mb=16, instructions_per_access=25.0, clock_hz=4.0e9, ipc=2.0,
)


def simulate_traces(
    workloads: Sequence[WorkloadModel],
    *,
    n_accesses: int,
    seed: int,
    cache: Optional[LLCTraceCache] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[LLCTrace]:
    """Regenerate each workload's LLC trace through the cache simulator.

    One trace per workload, in order, through the same disk store
    discipline as :func:`characterize_points`, keyed by
    :func:`~repro.runtime.fingerprint.trace_fingerprint`; errors from
    :func:`~repro.cachesim.llc.simulate_llc_traffic` propagate.
    """
    params = dict(_TRACE_HIERARCHY, n_accesses=n_accesses, seed=seed)

    def compute(firsts: List[int]) -> Iterator[Outcome]:
        for index in firsts:
            start = time.perf_counter()
            trace = simulate_llc_traffic(workloads[index], **params)
            yield index, trace, time.perf_counter() - start

    return _cached_work(
        "trace", workloads, [workload.name for workload in workloads],
        lambda workload: trace_fingerprint(workload, **params),
        compute, cache=cache, progress=progress,
    )
