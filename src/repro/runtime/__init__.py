"""Sweep execution runtime: serial execution, persistent caching, telemetry.

The paper's value proposition is *fast* cross-stack design-space
exploration; this package is the execution layer that delivers it:

* :mod:`repro.runtime.fingerprint` — stable, content-addressed identities
  for sweep points (cell parameters + array provisioning), shared by the
  in-memory and on-disk caches.
* :mod:`repro.runtime.cache` — persistent content-addressed caches, one
  subdirectory of ``cache_dir`` per store: ``arrays/`` (array
  characterizations), ``evaluations/`` ((array x traffic) evaluation row
  blocks) and ``traces/`` (regenerated LLC traffic traces), so repeated
  and incremental sweeps are near-instant and interrupted sweeps are
  resumable.
* :mod:`repro.runtime.executor` — serial, in-process characterization
  and (array, traffic) evaluation in deterministic order, through the
  memory and disk caches, with same-cell points batched into one array
  program.
* :mod:`repro.runtime.shard` — deterministic shard planning (split the
  study suite, or one study's fingerprinted point space, across hosts
  with no coordinator), per-shard run manifests, manifest merging with
  dropped/duplicate detection, and the content fingerprints behind the
  incremental summary.
* :mod:`repro.runtime.options` — :class:`RuntimeOptions`, the shared
  execution options (cache_dir, trace_cache_dir, on_error, progress,
  seed, point shard, chaos) every study and config-driven sweep accepts.
* :mod:`repro.runtime.telemetry` — progress events (completed / cached /
  failed points) via callback and logging instead of dying on the first
  :class:`~repro.errors.CharacterizationError`.
* :mod:`repro.runtime.aio` — async-safe adapters (a thread-safe telemetry
  bridge onto an event loop, a bounded thread pool for blocking studies)
  that let asyncio services drive the engine without stalling the loop.
* :mod:`repro.runtime.interrupt` — SIGTERM delivered as
  ``KeyboardInterrupt`` so drivers and services share one drain path.
* :mod:`repro.runtime.chaos` — deterministic cache-corruption injection
  keyed by fingerprint + seed, so the quarantine-and-recompute path is
  testable end to end.
* :mod:`repro.runtime.fsck` — cache/manifest integrity audit and repair
  (the ``nvmexplorer fsck`` command).
"""

from repro.runtime.aio import AsyncStudyRunner, TelemetryBridge
from repro.runtime.cache import (
    QUARANTINE_SUBDIR,
    CharacterizationCache,
    EvaluationCache,
    JsonObjectCache,
    LLCTraceCache,
)
from repro.runtime.chaos import ChaosOptions, parse_chaos_spec
from repro.runtime.executor import (
    SweepPoint,
    characterize_points,
    evaluate_blocks,
    sweep_points,
)
from repro.runtime.fingerprint import (
    EVAL_SCHEMA_TAG,
    SCHEMA_TAG,
    TRACE_SCHEMA_TAG,
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
from repro.runtime.options import RuntimeOptions, engine_for, ensure_runtime
from repro.runtime.shard import (
    ManifestEntry,
    PointShard,
    RunManifest,
    ShardError,
    ShardPlan,
    assign_fingerprint,
    merge_manifests,
    partition_fingerprints,
    plan_shard,
    point_set_digest,
    point_shard_section,
    schema_tags,
    shard_assignments,
    study_fingerprint,
)
from repro.runtime.telemetry import ProgressEvent, SweepTelemetry

__all__ = [
    "EVAL_SCHEMA_TAG",
    "QUARANTINE_SUBDIR",
    "SCHEMA_TAG",
    "TRACE_SCHEMA_TAG",
    "AsyncStudyRunner",
    "ChaosOptions",
    "CharacterizationCache",
    "EvaluationCache",
    "FsckReport",
    "JsonObjectCache",
    "LLCTraceCache",
    "ManifestEntry",
    "PointShard",
    "ProgressEvent",
    "RunManifest",
    "RuntimeOptions",
    "ShardError",
    "ShardPlan",
    "SweepPoint",
    "SweepTelemetry",
    "TelemetryBridge",
    "assign_fingerprint",
    "canonical_json",
    "characterize_points",
    "engine_for",
    "ensure_runtime",
    "evaluate_blocks",
    "fsck_cache_dir",
    "fsck_manifest",
    "fsck_store",
    "evaluation_context",
    "evaluation_fingerprint",
    "fingerprint_payload",
    "merge_manifests",
    "parse_chaos_spec",
    "partition_fingerprints",
    "plan_shard",
    "point_fingerprint",
    "point_payload",
    "point_set_digest",
    "point_shard_section",
    "schema_tags",
    "shard_assignments",
    "sigterm_as_keyboard_interrupt",
    "study_fingerprint",
    "sweep_points",
    "trace_fingerprint",
    "trace_payload",
]
