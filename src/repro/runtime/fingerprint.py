"""Stable fingerprints for characterization work.

A sweep point is fully determined by the cell definition plus the array
provisioning knobs (capacity, node, optimization target, access width,
bits per cell).  :func:`point_fingerprint` hashes a canonical JSON
rendering of exactly those inputs, so the same design point gets the same
key across processes, runs, and machines — unlike the identity-based
tuple key the engine used before, which changed whenever the same cell
was reconstructed.

The fingerprint embeds :data:`SCHEMA_TAG`.  Bumping the tag (whenever the
characterization model or the serialized result format changes
incompatibly) reidentifies every point, so stale on-disk entries are
silently invalidated rather than deserialized into wrong results.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

from repro.cells.base import CellTechnology
from repro.cells.export import cell_to_dict
from repro.nvsim.result import OptimizationTarget

#: Version tag of the characterization model + cache payload format.
#: Bump whenever either changes in a way that invalidates stored results.
SCHEMA_TAG = "array-cache-v1"

#: Version tag of the cache-simulation model + LLC trace payload format.
#: Bump whenever stream generation or the batch engine changes results.
TRACE_SCHEMA_TAG = "llc-trace-v1"

#: Version tag of the analytical evaluation model + row payload format.
#: Bump whenever :func:`repro.core.metrics.evaluate` or the flattened
#: evaluation-row schema changes in a way that invalidates stored rows.
#: (v2: rows persist with their original key order — cached rows now
#: reproduce fresh runs' CSV column order byte-for-byte; v1 entries
#: stored alphabetized keys and must not be served.  v3: each block is
#: one factored payload, :mod:`repro.runtime.rowcodec` — key orders and
#: block-constant values stored once — instead of a list of row objects.)
EVAL_SCHEMA_TAG = "eval-rows-v3"

#: Which source feeds each schema tag — the drift ratchet's ground truth.
#:
#: Maps the tag's constant name to ``(defining_module, source_modules)``.
#: ``source_modules`` are the modules whose code produces the payloads
#: the tag versions: changing any of them without bumping the tag is
#: exactly the silent-cache-corruption bug the tag exists to prevent, so
#: ``repro.analysis.drift`` pins a content digest of each set (committed
#: in ``repro/analysis/drift_pins.json``) and ``nvmexplorer lint`` /
#: ``tests/test_analysis_drift.py`` fail when a set's digest moves while
#: its tag stands still.  A package entry covers every module under it.
#:
#: This module appears in its dependents' sets because the canonical
#: payload builders (:func:`point_payload`, :func:`traffic_entry`, ...)
#: live here: editing them re-pins (or re-tags) everything downstream.
SCHEMA_TAG_SOURCES: Mapping[str, tuple[str, tuple[str, ...]]] = {
    # arrays/ store: the characterization model.
    "SCHEMA_TAG": (
        "repro.runtime.fingerprint",
        (
            "repro.nvsim",
            "repro.cells.base",
            "repro.cells.export",
            "repro.tech",
            "repro.runtime.fingerprint",
        ),
    ),
    # traces/ store: stream generation + the batch cache simulator.
    "TRACE_SCHEMA_TAG": (
        "repro.runtime.fingerprint",
        ("repro.cachesim", "repro.runtime.fingerprint"),
    ),
    # evaluations/ store: the analytical evaluation, row flattening and
    # the factored block format.
    "EVAL_SCHEMA_TAG": (
        "repro.runtime.fingerprint",
        ("repro.core.metrics", "repro.runtime.fingerprint", "repro.runtime.rowcodec"),
    ),
    # Run manifests (incremental runs and fsck parse them).
    "MANIFEST_SCHEMA": (
        "repro.runtime.shard",
        ("repro.runtime.shard",),
    ),
}


def canonical_json(payload: Any) -> str:
    """Render a JSON-able payload deterministically (sorted keys, no spaces).

    Floats serialize via ``repr``, which is exact and stable across
    platforms for IEEE-754 doubles, so equal inputs always produce equal
    text.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def fingerprint_payload(payload: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of a canonical payload."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def point_payload(
    cell: CellTechnology,
    capacity_bytes: int,
    node_nm: int,
    target: OptimizationTarget,
    access_bits: int,
    bits_per_cell: int,
    schema_tag: str = SCHEMA_TAG,
) -> dict[str, Any]:
    """The canonical description of one characterization request."""
    return {
        "schema": schema_tag,
        "cell": cell_to_dict(cell),
        "capacity_bytes": int(capacity_bytes),
        "node_nm": int(node_nm),
        "target": target.value,
        "access_bits": int(access_bits),
        "bits_per_cell": int(bits_per_cell),
    }


def point_fingerprint(
    cell: CellTechnology,
    capacity_bytes: int,
    node_nm: int,
    target: OptimizationTarget,
    access_bits: int,
    bits_per_cell: int,
    schema_tag: str = SCHEMA_TAG,
) -> str:
    """Stable content key for one (cell, provisioning) design point."""
    return fingerprint_payload(
        point_payload(
            cell, capacity_bytes, node_nm, target, access_bits, bits_per_cell,
            schema_tag=schema_tag,
        )
    )


def trace_payload(
    workload,
    *,
    n_accesses: int,
    l2_kb: int,
    llc_mb: int,
    instructions_per_access: float,
    clock_hz: float,
    ipc: float,
    seed: int,
    schema_tag: str = TRACE_SCHEMA_TAG,
) -> dict[str, Any]:
    """Canonical description of one LLC-trace regeneration request.

    ``workload`` is a :class:`repro.cachesim.streams.WorkloadModel`; all
    of its parameters plus every simulation knob participate, so any
    change to either reidentifies the trace.
    """
    return {
        "schema": schema_tag,
        "workload": {
            "name": workload.name,
            "working_set_bytes": int(workload.working_set_bytes),
            "write_fraction": float(workload.write_fraction),
            "locality_skew": float(workload.locality_skew),
            "streaming_fraction": float(workload.streaming_fraction),
        },
        "n_accesses": int(n_accesses),
        "l2_kb": int(l2_kb),
        "llc_mb": int(llc_mb),
        "instructions_per_access": float(instructions_per_access),
        "clock_hz": float(clock_hz),
        "ipc": float(ipc),
        "seed": int(seed),
    }


def trace_fingerprint(workload, **kwargs: Any) -> str:
    """Stable content key for one LLC-trace regeneration request."""
    return fingerprint_payload(trace_payload(workload, **kwargs))


def traffic_entry(traffic) -> dict[str, Any]:
    """Canonical description of one :class:`~repro.traffic.TrafficPattern`.

    Every field that influences :func:`repro.core.metrics.evaluate`
    participates (rates, access width, per-task totals), plus the name and
    metadata because they flow into the flattened evaluation rows.
    """
    return {
        "name": traffic.name,
        "reads_per_second": float(traffic.reads_per_second),
        "writes_per_second": float(traffic.writes_per_second),
        "access_bytes": int(traffic.access_bytes),
        "reads_per_task": (
            None if traffic.reads_per_task is None else float(traffic.reads_per_task)
        ),
        "writes_per_task": (
            None if traffic.writes_per_task is None else float(traffic.writes_per_task)
        ),
        "metadata": dict(traffic.metadata),
    }


def evaluation_context(
    traffic,
    *,
    rows_fn_id: str,
    extra: Any = None,
    schema_tag: str = EVAL_SCHEMA_TAG,
) -> str:
    """Digest of the array-independent half of an evaluation key.

    The traffic block, the row builder's identity, its JSON-able
    parameters (``extra``, e.g. write-buffer scenarios), and the metrics
    schema tag are shared by every array of one ``evaluate_blocks`` call
    — hash them once and combine with each array's digest.
    """
    return fingerprint_payload({
        "schema": schema_tag,
        "traffic": [traffic_entry(t) for t in traffic],
        "rows_fn": rows_fn_id,
        "extra": extra,
    })


def evaluation_fingerprint(
    array,
    traffic=None,
    *,
    context: str = None,
    **kwargs: Any,
) -> str:
    """Stable content key for one (array x traffic-block) evaluation.

    ``array`` is keyed by its full characterized content
    (:meth:`~repro.nvsim.result.ArrayCharacterization.to_dict`), not by the
    sweep point that produced it, so any change to the characterization
    model automatically reidentifies every dependent evaluation.  Pass
    either ``traffic`` plus :func:`evaluation_context` keywords, or a
    precomputed ``context`` digest when fingerprinting many arrays
    against the same block.
    """
    if context is None:
        context = evaluation_context(traffic, **kwargs)
    return fingerprint_payload({"context": context, "array": array.to_dict()})
