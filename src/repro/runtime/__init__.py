"""Sweep execution runtime: serial execution, persistent caching, telemetry.

The paper's value proposition is *fast* cross-stack design-space
exploration; this package is the execution layer that delivers it:

* :mod:`repro.runtime.fingerprint` — stable, content-addressed identities
  for sweep points (cell parameters + array provisioning), which address
  the on-disk caches, and each store's key: a digest of the modules that
  produce its payloads.
* :mod:`repro.runtime.cache` — persistent content-addressed caches, one
  subdirectory of ``cache_dir`` per store: ``arrays/`` (array
  characterizations), ``evaluations/`` ((array x traffic) evaluation row
  blocks) and ``traces/`` (regenerated LLC traffic traces), each holding
  immutable ``<pack-id>.v4`` pack files, one per sweep call, so repeated
  and incremental sweeps are near-instant and interrupted sweeps are
  resumable.  One reader serves loads and fsck alike.
* :mod:`repro.runtime.rowcodec` — the factored body format of an
  evaluation row block: each key order and each block-constant value
  stored once.
* :mod:`repro.runtime.executor` — serial, in-process characterization,
  (array, traffic) evaluation and LLC trace regeneration in
  deterministic order, all three through one cached-work routine over
  the disk caches, with same-cell points warmed as one array program.
* :mod:`repro.runtime.shard` — run manifests and the study content
  fingerprints behind the incremental summary.
* :mod:`repro.runtime.options` — :class:`RuntimeOptions`, the shared
  execution options (cache_dir, on_error, progress, seed) every study
  and config-driven sweep accepts.
* :mod:`repro.runtime.telemetry` — progress events (completed / cached /
  failed points) via callback and logging instead of dying on the first
  :class:`~repro.errors.CharacterizationError`, counted once per study.
* :mod:`repro.runtime.aio` — async-safe adapters (a thread-safe telemetry
  bridge onto an event loop, a bounded thread pool for blocking studies)
  that let asyncio services drive the engine without stalling the loop.
  Not re-exported here, so importing the package never loads asyncio.
* :mod:`repro.runtime.interrupt` — SIGTERM delivered as
  ``KeyboardInterrupt`` so drivers and services share one drain path.
* :mod:`repro.runtime.fsck` — cache/manifest integrity audit: verify
  every pack, delete the damaged ones and those under an old store key
  (the ``nvmexplorer fsck`` command).
"""

from repro.runtime.cache import (
    CharacterizationCache,
    EvaluationCache,
    JsonObjectCache,
    LLCTraceCache,
)
from repro.runtime.executor import (
    SweepPoint,
    characterize_points,
    evaluate_blocks,
    simulate_traces,
    sweep_points,
)
from repro.runtime.fingerprint import (
    canonical_json,
    evaluation_context,
    evaluation_fingerprint,
    fingerprint_payload,
    point_fingerprint,
    point_payload,
    trace_fingerprint,
    trace_payload,
)
from repro.runtime.fsck import FsckReport, fsck_cache_dir, fsck_manifest, fsck_store
from repro.runtime.interrupt import sigterm_as_keyboard_interrupt
from repro.runtime.options import RuntimeOptions, ensure_runtime
from repro.runtime.shard import (
    ManifestEntry,
    ManifestError,
    RunManifest,
    study_fingerprint,
)
from repro.runtime.telemetry import ProgressEvent, SweepTelemetry

__all__ = [
    "CharacterizationCache",
    "EvaluationCache",
    "FsckReport",
    "JsonObjectCache",
    "LLCTraceCache",
    "ManifestEntry",
    "ManifestError",
    "ProgressEvent",
    "RunManifest",
    "RuntimeOptions",
    "SweepPoint",
    "SweepTelemetry",
    "canonical_json",
    "characterize_points",
    "ensure_runtime",
    "evaluate_blocks",
    "fsck_cache_dir",
    "fsck_manifest",
    "fsck_store",
    "evaluation_context",
    "evaluation_fingerprint",
    "fingerprint_payload",
    "point_fingerprint",
    "point_payload",
    "sigterm_as_keyboard_interrupt",
    "simulate_traces",
    "study_fingerprint",
    "sweep_points",
    "trace_fingerprint",
    "trace_payload",
]
