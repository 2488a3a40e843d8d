"""Sweep progress telemetry.

Long sweeps should report what happened to every point — characterized,
served from cache, or failed — instead of dying on the first
:class:`~repro.errors.CharacterizationError`.  The executor emits one
:class:`ProgressEvent` per point, logs it once on the ``repro.runtime``
logger (failures as warnings, the rest at debug level) and passes it to
the run's progress callback.  A study's :class:`SweepTelemetry` is that
callback: it is the one counter of a study's events, and forwards each
to an optional user callback (a progress bar, a dashboard, a CI
annotator, or the service's :class:`~repro.runtime.aio.TelemetryBridge`,
which carries each event onto the event loop for
``JobManager._on_event``).

Counter mutation is guarded by a single lock, so one telemetry value may
be emitted into, absorbed into and read from different threads.  The
service shares none across threads: a job's own ``Job.telemetry`` is
touched only on the event loop, after ``absorb`` of the finished run.
The callback is invoked *outside* the lock — it may take its time (or
re-enter the telemetry) without stalling emitters.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, List, Optional

#: Event kinds, in the order a point can experience them.
COMPLETED = "completed"
CACHED = "cached"
FAILED = "failed"
#: One damaged pack (bad key or entry line, checksum, undecodable body)
#: deleted while loading a point; a load that re-reads the store's index
#: may find several, one event each.  The point itself is then
#: recomputed; this event only tracks the damage.
CORRUPT = "corrupt"


@dataclass(frozen=True)
class ProgressEvent:
    """One sweep point's outcome."""

    kind: str  # COMPLETED | CACHED | FAILED | CORRUPT
    label: str  # human-readable point label
    index: int  # position in the sweep's deterministic order
    total: int  # points in this phase
    phase: str = "characterize"  # "characterize" | "evaluate" | "trace"
    source: str = ""  # for CACHED: "memory" | "disk"
    error: str = ""  # for FAILED: the error message
    duration_s: float = 0.0  # wall-clock spent computing this point fresh

    def describe(self) -> str:
        extra = ""
        if self.kind == CACHED and self.source:
            extra = f" [{self.source}]"
        elif self.kind == FAILED:
            extra = f": {self.error}"
        elif self.kind == CORRUPT:
            extra = " [damaged cache pack deleted]"
        if self.duration_s > 0:
            extra += f" ({self.duration_s:.3f}s)"
        return (
            f"{self.phase} {self.index + 1}/{self.total} "
            f"{self.kind} {self.label}{extra}"
        )

    def to_dict(self) -> dict:
        """JSON-able rendering (the service's SSE payload)."""
        return {
            "kind": self.kind,
            "label": self.label,
            "index": self.index,
            "total": self.total,
            "phase": self.phase,
            "source": self.source,
            "error": self.error,
            "duration_s": self.duration_s,
        }


ProgressCallback = Callable[[ProgressEvent], None]

#: Wall-clock accumulator field per event phase (manifest counter names).
_WALL_FIELDS = {
    "characterize": "characterize_wall_s",
    "evaluate": "evaluate_wall_s",
    "trace": "trace_wall_s",
}

#: The counter each (phase, kind) event bumps; FAILED counts in any phase.
_EVENT_COUNTERS = {
    ("characterize", COMPLETED): "completed",
    ("characterize", CACHED): "cached",
    ("characterize", CORRUPT): "corrupt",
    ("evaluate", COMPLETED): "evaluated",
    ("evaluate", CACHED): "eval_cached",
    ("evaluate", CORRUPT): "eval_corrupt",
    ("trace", COMPLETED): "trace_simulated",
    ("trace", CACHED): "trace_cached",
    ("trace", CORRUPT): "trace_corrupt",
}

#: Integer counter fields, in counters() order.
_COUNTER_FIELDS = (
    "completed", "cached", "failed", "evaluated", "eval_cached",
    "trace_simulated", "trace_cached", "corrupt", "eval_corrupt",
    "trace_corrupt",
)


@dataclass
class SweepTelemetry:
    """Aggregates progress events for one sweep run."""

    callback: Optional[ProgressCallback] = None
    completed: int = 0  # characterize-phase points computed fresh
    cached: int = 0  # characterize-phase points served from a cache
    failed: int = 0
    evaluated: int = 0  # evaluate-phase (array x traffic) blocks computed fresh
    eval_cached: int = 0  # evaluate-phase blocks served from a cache
    trace_simulated: int = 0  # trace-phase LLC regenerations run fresh
    trace_cached: int = 0  # trace-phase regenerations served from a cache
    corrupt: int = 0  # damaged packs deleted from the arrays/ store
    eval_corrupt: int = 0  # damaged packs deleted from the evaluations/ store
    trace_corrupt: int = 0  # damaged packs deleted from the traces/ store
    #: Wall-clock spent computing fresh (or failing) points, per phase —
    #: the raw data behind the manifest's per-study timings and the
    #: service's per-request latency accounting.
    characterize_wall_s: float = 0.0
    evaluate_wall_s: float = 0.0
    trace_wall_s: float = 0.0
    failures: List[ProgressEvent] = field(default_factory=list)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def emit(self, event: ProgressEvent) -> None:
        with self._lock:
            self._count(event)
        if self.callback is not None:
            self.callback(event)

    def _count(self, event: ProgressEvent) -> None:
        """Update counters for one event.  Caller holds the lock."""
        if event.kind == FAILED:
            self.failed += 1
            self.failures.append(event)
        counter = _EVENT_COUNTERS.get((event.phase, event.kind))
        if counter is not None:
            setattr(self, counter, getattr(self, counter) + 1)
        if event.duration_s:
            wall_field = _WALL_FIELDS.get(event.phase)
            if wall_field is not None:
                setattr(
                    self, wall_field,
                    getattr(self, wall_field) + float(event.duration_s),
                )

    @property
    def total(self) -> int:
        return self.completed + self.cached + self.failed

    @property
    def fresh_work(self) -> int:
        """Characterizations, evaluation blocks, and trace simulations
        actually computed (as opposed to served from a cache)."""
        return self.completed + self.evaluated + self.trace_simulated

    @property
    def wall_s(self) -> float:
        """Total wall-clock spent on fresh model work, across phases."""
        return self.characterize_wall_s + self.evaluate_wall_s + self.trace_wall_s

    def counters(self) -> dict:
        """The counter fields as a JSON-able dict (manifest payload).

        Integer event counts plus the per-phase wall-clock accumulators
        (floats, ``*_wall_s``).
        """
        with self._lock:
            out: dict = {name: getattr(self, name) for name in _COUNTER_FIELDS}
            for wall_field in _WALL_FIELDS.values():
                out[wall_field] = round(getattr(self, wall_field), 6)
            return out

    @classmethod
    def from_counters(cls, counters) -> "SweepTelemetry":
        """Rebuild aggregate counts from a manifest's counter dict.

        Unknown keys are ignored and missing keys default to zero, so
        manifests from slightly older/newer versions still aggregate.
        """
        telemetry = cls()
        for name in _COUNTER_FIELDS:
            setattr(telemetry, name, int(counters.get(name, 0)))
        for wall_field in _WALL_FIELDS.values():
            setattr(telemetry, wall_field, float(counters.get(wall_field, 0.0)))
        return telemetry

    def absorb(self, other: "SweepTelemetry") -> None:
        """Fold another run's counters into this aggregate.

        ``other`` should be quiescent (its run finished); this aggregate
        may be shared — its own mutation is locked.
        """
        with self._lock:
            for name in _COUNTER_FIELDS:
                setattr(self, name, getattr(self, name) + getattr(other, name))
            for wall_field in _WALL_FIELDS.values():
                setattr(
                    self, wall_field,
                    getattr(self, wall_field) + getattr(other, wall_field),
                )
            self.failures.extend(other.failures)

    def summary(self) -> str:
        text = (
            f"{self.total} points: {self.completed} characterized, "
            f"{self.cached} cached, {self.failed} failed"
        )
        if self.evaluated or self.eval_cached:
            text += (
                f"; {self.evaluated} blocks evaluated, "
                f"{self.eval_cached} served from cache"
            )
        if self.trace_simulated or self.trace_cached:
            text += (
                f"; {self.trace_simulated} traces simulated, "
                f"{self.trace_cached} served from cache"
            )
        if self.corrupt or self.eval_corrupt or self.trace_corrupt:
            text += (
                f"; {self.corrupt + self.eval_corrupt + self.trace_corrupt} "
                f"corrupt cache packs deleted"
            )
        if self.wall_s > 0:
            text += f"; {self.wall_s:.2f}s model wall-clock"
        return text
