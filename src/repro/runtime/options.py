"""Shared execution options for sweeps and studies.

Every study and config-driven sweep accepts one :class:`RuntimeOptions`
value instead of ad-hoc ``cache_dir=``/``on_error=`` keyword sprinkling:
the persistent cache root, error policy, progress callback and RNG seed
travel together through the study registry and the CLI, and
``DSEEngine(runtime)`` (:class:`~repro.core.engine.DSEEngine`) is the one
way to build an engine from them.
Sweeps always run serially in the calling process
(:mod:`repro.runtime.executor`).

``cache_dir`` is the root of a unified on-disk layout, one directory
per store, named by its class's ``store_name``
(:mod:`repro.runtime.cache`)::

    <cache_dir>/arrays/       array characterizations
    <cache_dir>/evaluations/  (array x traffic) evaluation row blocks
    <cache_dir>/traces/       regenerated LLC traffic traces

Each store holds flat ``<pack-id>.v4`` pack files, one per executor call
that computed anything; a damaged pack is deleted when found.
:mod:`repro.runtime.cache` describes the pack format.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Union

from repro.runtime.telemetry import ProgressCallback

@dataclass(frozen=True)
class RuntimeOptions:
    """Uniform execution options every study honors.

    Attributes
    ----------
    cache_dir:
        Root of the persistent cache layout (see module docstring);
        ``None`` persists nothing.
    on_error:
        ``"raise"`` aborts on the first framework error; ``"skip"``
        records it in telemetry and keeps going.
    progress:
        Optional callback receiving one
        :class:`~repro.runtime.telemetry.ProgressEvent` per sweep point,
        evaluation block, trace or damaged cache pack; a study passes its
        :class:`~repro.runtime.telemetry.SweepTelemetry` here.
    seed:
        Override for every stochastic component a study touches (fault
        injection, synthetic streams); ``None`` keeps each study's
        documented default seed, preserving paper-figure reproducibility.
    """

    cache_dir: Optional[Union[str, Path]] = None
    on_error: str = "raise"
    progress: Optional[ProgressCallback] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.on_error not in ("raise", "skip"):
            raise ValueError(
                f"on_error must be 'raise' or 'skip', got {self.on_error!r}"
            )

    def seed_or(self, default: int) -> int:
        """This run's seed, or the study's documented default."""
        return default if self.seed is None else int(self.seed)

    def with_progress(self, progress: Optional[ProgressCallback]) -> "RuntimeOptions":
        """A copy routing progress events to ``progress``."""
        return replace(self, progress=progress)


def ensure_runtime(runtime: Optional[RuntimeOptions]) -> RuntimeOptions:
    """The given options, or serial in-memory defaults."""
    return runtime if runtime is not None else RuntimeOptions()
