"""Stable fingerprints for cached work, and the keys of the stores that hold it.

A sweep point is fully determined by the cell definition plus the array
provisioning knobs (capacity, node, optimization target, access width,
bits per cell).  :func:`point_fingerprint` hashes a canonical JSON
rendering of exactly those inputs, so the same design point gets the same
key across processes, runs, and machines — unlike the identity-based
tuple key the engine used before, which changed whenever the same cell
was reconstructed.

Each persistent store is keyed on the raw bytes of the modules that
produce its payloads (:data:`STORE_SOURCES`, :func:`store_key`).  The
key is hashed into every fingerprint of its store and recorded in each
pack's index, so after any edit to those modules the next load is an
ordinary miss: a stale entry is never served, and nothing has to be
bumped by hand.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from repro.cells.base import CellTechnology
from repro.cells.export import cell_to_dict
from repro.nvsim.result import OptimizationTarget

#: The installed ``repro`` package directory.
PACKAGE_ROOT = Path(__file__).resolve().parent.parent

#: The modules whose code produces each persistent store's payloads; the
#: store's key digests their bytes.  A package entry covers every module
#: under it; ``None`` covers the whole package.  ``tests/test_store_keys.py``
#: checks that each set covers its model package's in-package imports.
STORE_SOURCES: Mapping[str, Optional[tuple[str, ...]]] = {
    # The characterization model, and the point payload builders here.
    "arrays": (
        "repro.nvsim",
        "repro.cells.base",
        "repro.cells.export",
        "repro.tech",
        "repro.units",
        "repro.runtime.fingerprint",
    ),
    # Row builders live in study modules that no fixed set covers.
    "evaluations": None,
    # Stream generation and the batch cache simulator, which imports
    # TrafficPattern from repro.traffic.base.
    "traces": (
        "repro.cachesim",
        "repro.traffic.base",
        "repro.units",
        "repro.runtime.fingerprint",
    ),
}


def source_files(
    modules: Optional[Sequence[str]] = None, root: Union[str, Path] = PACKAGE_ROOT
) -> list[Path]:
    """The files a module set covers in the package directory ``root``, sorted.

    ``None`` covers the whole package: every ``*.py`` file plus the
    package data the sources load (the proxies' ``.npz`` weights), which
    can change results as much as the code can.  A dotted name resolving
    to a package directory covers every ``*.py`` under it; a plain module
    covers its one file.  ``root`` may be a copy of the package under any
    directory name: ``repro.x.y`` resolves to ``root/x/y``.
    """
    root = Path(root)
    if modules is None:
        return sorted(path for pattern in ("*.py", "*.npz") for path in root.rglob(pattern))
    files: list[Path] = []
    for dotted in modules:
        path = root.joinpath(*dotted.split(".")[1:])
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.with_suffix(".py").is_file():
            files.append(path.with_suffix(".py"))
        else:
            raise FileNotFoundError(f"source module {dotted!r} not found under {root}")
    return sorted(set(files))


def _file_digest(path: Path) -> bytes:
    return hashlib.sha256(path.read_bytes()).digest()


def source_digest(
    modules: Optional[Sequence[str]] = None,
    root: Union[str, Path] = PACKAGE_ROOT,
    file_digest: Callable[[Path], bytes] = _file_digest,
) -> str:
    """Content digest of a module set's files (see :func:`source_files`).

    Only relative paths and file contents participate, never mtimes, so a
    fresh checkout of a revision, or a copy of the package, digests
    identically on every host.  Even a comment-only edit moves it:
    conservative, but never wrong.
    """
    root = Path(root)
    digest = hashlib.sha256()
    for path in source_files(modules, root):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\x00")
        digest.update(file_digest(path))
    return digest.hexdigest()


def store_keys(root: Union[str, Path] = PACKAGE_ROOT) -> dict[str, str]:
    """Every store's key for the package at ``root``, each file read once."""
    digests = {path: _file_digest(path) for path in source_files(None, root)}
    return {
        store: source_digest(modules, root, digests.__getitem__)
        for store, modules in STORE_SOURCES.items()
    }


@lru_cache(maxsize=1)
def _installed_store_keys() -> dict[str, str]:
    return store_keys()


def store_key(store: str) -> str:
    """The installed package's key for one store, computed once per process."""
    return _installed_store_keys()[store]


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
) -> dict[str, Any]:
    """The canonical description of one characterization request.

    Its ``schema`` is the installed package's ``arrays`` key.
    """
    return {
        "schema": store_key("arrays"),
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
) -> str:
    """Stable content key for one (cell, provisioning) design point."""
    return fingerprint_payload(
        point_payload(cell, capacity_bytes, node_nm, target, access_bits, bits_per_cell)
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
) -> dict[str, Any]:
    """Canonical description of one LLC-trace regeneration request.

    ``workload`` is a :class:`repro.cachesim.streams.WorkloadModel`; all
    of its parameters plus every simulation knob participate, so any
    change to either reidentifies the trace.  Its ``schema`` is the
    installed package's ``traces`` key.
    """
    return {
        "schema": store_key("traces"),
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


def evaluation_context(traffic, *, rows_fn_id: str, extra: Any = None) -> str:
    """Digest of the array-independent half of an evaluation key.

    The traffic block, the row builder's identity, its JSON-able
    parameters (``extra``, e.g. write-buffer scenarios), and the
    installed package's ``evaluations`` key are shared by every array
    of one ``evaluate_blocks`` call — hash them once and combine with
    each array's digest.
    """
    return fingerprint_payload({
        "schema": store_key("evaluations"),
        "traffic": [traffic_entry(t) for t in traffic],
        "rows_fn": rows_fn_id,
        "extra": extra,
    })


def evaluation_fingerprint(array, context: str) -> str:
    """Stable content key for one (array x traffic-block) evaluation.

    ``array`` is keyed by its full characterized content
    (:meth:`~repro.nvsim.result.ArrayCharacterization.to_dict`), not by the
    sweep point that produced it, so any change to the characterization
    model automatically reidentifies every dependent evaluation;
    ``context`` is the block's :func:`evaluation_context` digest.
    """
    return fingerprint_payload({"context": context, "array": array.to_dict()})
