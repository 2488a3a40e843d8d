"""Shared execution options for sweeps and studies.

Every study and config-driven sweep accepts one :class:`RuntimeOptions`
value instead of ad-hoc ``cache_dir=``/``on_error=`` keyword sprinkling:
the persistent cache root, error policy, progress callback, RNG seed,
point-shard slice and cache-corruption chaos travel together through the
study registry, the CLI, and :class:`~repro.core.engine.DSEEngine`.
Sweeps always run serially in the calling process
(:mod:`repro.runtime.executor`).

``cache_dir`` is the root of a unified on-disk layout::

    <cache_dir>/arrays/       array characterizations
    <cache_dir>/evaluations/  (array x traffic) evaluation row blocks
    <cache_dir>/traces/       regenerated LLC traffic traces

``trace_cache_dir`` overrides only the trace store (traces are produced
by the cache simulator, not the characterizer, so some deployments keep
them elsewhere); when unset it defaults to ``<cache_dir>/traces``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Union

from repro.runtime.chaos import ChaosOptions
from repro.runtime.shard import PointShard
from repro.runtime.telemetry import ProgressCallback

#: Subdirectories of ``cache_dir`` used by each persistent store.
ARRAY_CACHE_SUBDIR = "arrays"
EVALUATION_CACHE_SUBDIR = "evaluations"
TRACE_CACHE_SUBDIR = "traces"


@dataclass(frozen=True)
class RuntimeOptions:
    """Uniform execution options every study honors.

    Attributes
    ----------
    cache_dir:
        Root of the persistent cache layout (see module docstring);
        ``None`` keeps results in memory only.
    trace_cache_dir:
        Override for the LLC-trace store; defaults to
        ``<cache_dir>/traces`` when a cache root is set.
    on_error:
        ``"raise"`` aborts on the first framework error; ``"skip"``
        records it in telemetry and keeps going.
    progress:
        Optional callback receiving one
        :class:`~repro.runtime.telemetry.ProgressEvent` per sweep point
        or evaluation block.
    seed:
        Override for every stochastic component a study touches (fault
        injection, synthetic streams); ``None`` keeps each study's
        documented default seed, preserving paper-figure reproducibility.
    point_shard_index / point_shard_count:
        Intra-study point sharding: run only the deterministic
        1/``point_shard_count`` slice of every sweep's fingerprinted
        point space (:class:`~repro.runtime.shard.PointShard`).  The
        default (``0`` of ``1``) runs the whole space.
    chaos:
        Optional deterministic cache-corruption injection
        (:class:`~repro.runtime.chaos.ChaosOptions`) for failure-handling
        tests; ``None`` (the default) injects nothing.
    """

    cache_dir: Optional[Union[str, Path]] = None
    trace_cache_dir: Optional[Union[str, Path]] = None
    on_error: str = "raise"
    progress: Optional[ProgressCallback] = None
    seed: Optional[int] = None
    point_shard_index: int = 0
    point_shard_count: int = 1
    chaos: Optional[ChaosOptions] = None

    def __post_init__(self) -> None:
        if self.on_error not in ("raise", "skip"):
            raise ValueError(
                f"on_error must be 'raise' or 'skip', got {self.on_error!r}"
            )
        if int(self.point_shard_count) < 1:
            raise ValueError(
                f"point_shard_count must be >= 1, got {self.point_shard_count!r}"
            )
        if not 0 <= int(self.point_shard_index) < int(self.point_shard_count):
            raise ValueError(
                f"point_shard_index must be in [0, {self.point_shard_count}), "
                f"got {self.point_shard_index!r}"
            )

    @property
    def point_shard(self) -> Optional[PointShard]:
        """The active point-shard selector, or ``None`` for the whole space."""
        if int(self.point_shard_count) <= 1:
            return None
        return PointShard(int(self.point_shard_index), int(self.point_shard_count))

    @property
    def effective_trace_cache_dir(self) -> Optional[Path]:
        """Where LLC traces persist, or ``None`` when nothing is cached."""
        if self.trace_cache_dir is not None:
            return Path(self.trace_cache_dir)
        if self.cache_dir is not None:
            return Path(self.cache_dir) / TRACE_CACHE_SUBDIR
        return None

    def seed_or(self, default: int) -> int:
        """This run's seed, or the study's documented default."""
        return default if self.seed is None else int(self.seed)

    def with_progress(self, progress: Optional[ProgressCallback]) -> "RuntimeOptions":
        """A copy routing progress events to ``progress``."""
        return replace(self, progress=progress)

    def engine(self):
        """A :class:`~repro.core.engine.DSEEngine` configured from these options."""
        # Imported lazily: the engine builds on the runtime package, so a
        # module-level import here would be circular.  The field mapping
        # lives in DSEEngine.from_options — one source of truth.
        from repro.core.engine import DSEEngine

        return DSEEngine.from_options(self)


def ensure_runtime(runtime: Optional[RuntimeOptions]) -> RuntimeOptions:
    """The given options, or serial in-memory defaults."""
    return runtime if runtime is not None else RuntimeOptions()


def engine_for(runtime: Optional[RuntimeOptions]):
    """Shorthand: an engine for possibly-absent options."""
    return ensure_runtime(runtime).engine()
