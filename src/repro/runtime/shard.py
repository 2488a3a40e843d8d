"""Deterministic work sharding and per-shard run manifests.

The study suite is embarrassingly parallel across *studies* (and, inside
one study, across sweep points), so the cheapest way to scale it beyond
one host is a deterministic partitioning plan: every host computes the
same plan from the same inputs and picks its ``--shard-index`` slice —
no coordinator, no queue.  Two primitives implement that:

* :func:`plan_shard` splits an ordered suite of study names into
  ``shard_count`` near-equal slices.  Assignment is computed on the
  *sorted* names, so it is stable under registry reordering; the
  returned selection preserves the caller's (registry) order so
  per-shard output matches the single-host run's ordering.
* :func:`assign_fingerprint` / :func:`partition_fingerprints` map any
  content fingerprint (:mod:`repro.runtime.fingerprint`) onto a shard,
  for splitting one study's sweep-point space across hosts.

Each shard records what it did in a :class:`RunManifest` written next to
its outputs (``manifest.json``): one :class:`ManifestEntry` per study
with status, row count, telemetry counters, artifact paths, and the
study's content fingerprint (:func:`study_fingerprint` — parameters ×
cache schema tags × an mtime-independent source digest).  Manifests
serve two consumers:

* :func:`merge_manifests` combines per-shard manifests into the
  single-suite view, verifying that no study was dropped, duplicated,
  or planned against a different suite/schema — the CI merge job.
* The incremental summary compares a previous manifest entry's
  fingerprint against the current one and skips studies whose artifacts
  are already up to date.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

from repro.errors import ReproError
from repro.runtime.cache import atomic_write_bytes
from repro.runtime.fingerprint import (
    EVAL_SCHEMA_TAG,
    SCHEMA_TAG,
    TRACE_SCHEMA_TAG,
    canonical_json,
    fingerprint_payload,
)

#: Version tag of the manifest payload format.  Bump on incompatible
#: changes so stale manifests are ignored instead of misread.
MANIFEST_SCHEMA = "shard-manifest-v2"

#: File name a shard's manifest is written under, next to its outputs.
MANIFEST_FILENAME = "manifest.json"

#: Statuses a manifest entry can record.
STATUS_OK = "ok"
STATUS_CACHED = "cached"
STATUS_FAILED = "failed"


class ShardError(ReproError):
    """A shard plan or manifest merge is inconsistent."""


def schema_tags() -> dict[str, str]:
    """The active schema tag of every persistent cache layer.

    Recorded in manifests (and usable as a CI cache key): any bump
    invalidates both the on-disk caches and incremental skips.
    """
    return {
        "arrays": SCHEMA_TAG,
        "evaluations": EVAL_SCHEMA_TAG,
        "traces": TRACE_SCHEMA_TAG,
    }


# --- shard planning -------------------------------------------------------


@dataclass(frozen=True)
class ShardPlan:
    """One host's slice of a deterministic suite partition."""

    shard_index: int
    shard_count: int
    suite: tuple[str, ...]  # the full suite, in caller (registry) order
    selected: tuple[str, ...]  # this shard's slice, in suite order

    @property
    def is_whole_suite(self) -> bool:
        return self.shard_count == 1


def _validate_shard(shard_index: int, shard_count: int) -> None:
    if shard_count < 1:
        raise ShardError(f"shard_count must be >= 1, got {shard_count}")
    if not 0 <= shard_index < shard_count:
        raise ShardError(
            f"shard_index must be in [0, {shard_count}), got {shard_index}"
        )


def shard_assignments(names: Iterable[str], shard_count: int) -> dict[str, int]:
    """Deterministic study -> shard assignment.

    Names are assigned round-robin over their *sorted* order, so the
    assignment depends only on the set of names and ``shard_count`` —
    never on registry iteration order — and shard sizes differ by at
    most one.
    """
    _validate_shard(0, shard_count)
    ordered = sorted(set(names))
    return {name: i % shard_count for i, name in enumerate(ordered)}


def plan_shard(
    suite: Sequence[str], shard_index: int = 0, shard_count: int = 1
) -> ShardPlan:
    """This shard's slice of ``suite`` (study names, registry order)."""
    _validate_shard(shard_index, shard_count)
    names = list(suite)
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ShardError(f"suite contains duplicate studies: {', '.join(dupes)}")
    assignment = shard_assignments(names, shard_count)
    selected = tuple(n for n in names if assignment[n] == shard_index)
    return ShardPlan(
        shard_index=shard_index,
        shard_count=shard_count,
        suite=tuple(names),
        selected=selected,
    )


def assign_fingerprint(fingerprint: str, shard_count: int) -> int:
    """The shard a content fingerprint belongs to.

    Uses the fingerprint's leading 64 bits, so the assignment is stable
    across runs, hosts, and orderings — the point-space analogue of
    :func:`shard_assignments` for splitting one study's sweep across
    hosts via the existing point/trace/evaluation fingerprints.
    """
    _validate_shard(0, shard_count)
    return int(fingerprint[:16], 16) % shard_count


def partition_fingerprints(
    items: Iterable[Any],
    shard_index: int,
    shard_count: int,
    key=lambda item: item,
) -> list[Any]:
    """The items whose fingerprint (via ``key``) lands on this shard."""
    _validate_shard(shard_index, shard_count)
    return [
        item
        for item in items
        if assign_fingerprint(key(item), shard_count) == shard_index
    ]


@dataclass(frozen=True)
class PointShard:
    """One host's slice of a study's fingerprinted sweep-point space.

    The intra-study analogue of :class:`ShardPlan`: points are assigned
    by :func:`assign_fingerprint` on their content fingerprint, so the
    partition is deterministic, coordinator-free, and stable under point
    reordering.  ``count == 1`` selects everything (the single-host run).
    """

    index: int = 0
    count: int = 1

    def __post_init__(self) -> None:
        _validate_shard(self.index, self.count)

    @property
    def is_whole_space(self) -> bool:
        return self.count == 1

    def selects(self, fingerprint: str) -> bool:
        """Does this shard own the point with this content fingerprint?"""
        return assign_fingerprint(fingerprint, self.count) == self.index

    def partition(self, items: Iterable[Any], key=lambda item: item) -> list[Any]:
        """The items (via ``key`` -> fingerprint) this shard owns."""
        return partition_fingerprints(items, self.index, self.count, key=key)

    def to_dict(self) -> dict[str, int]:
        return {"index": self.index, "count": self.count}


def point_set_digest(fingerprints: Iterable[str]) -> str:
    """Order-independent digest of a set of point fingerprints.

    Manifests record the digest of a study's *planned* point space next
    to this shard's *selected* slice, so :func:`merge_manifests` can
    verify the shards' slices reassemble exactly the planned space
    without every manifest carrying the full planned list.
    """
    digest = hashlib.sha256()
    for fingerprint in sorted(set(fingerprints)):
        digest.update(fingerprint.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def point_shard_section(
    shard: PointShard,
    planned: Iterable[str],
    selected: Iterable[str],
    completed: Iterable[str],
    poisoned: Iterable[str] = (),
) -> dict[str, Any]:
    """The manifest payload describing one study's point-shard slice.

    ``planned`` is the study's full sweep-point space (identical on
    every shard), ``selected`` this shard's deterministic slice of it,
    and ``completed`` the selected points that actually characterized
    (a selected point can fail under ``on_error="skip"``).  ``poisoned``
    points stay *selected* — this shard owns them, preserving the merge
    step's exactly-once partition — but are quarantined: they exhausted
    their transient-failure retry budget without completing, and a
    re-run should re-attempt them.
    """
    planned = set(planned)
    selected = set(selected)
    return {
        "index": shard.index,
        "count": shard.count,
        "planned": len(planned),
        "planned_digest": point_set_digest(planned),
        "selected": sorted(selected),
        "completed": len(set(completed)),
        "poisoned": sorted(set(poisoned)),
    }


# --- study fingerprints (incremental skip keys) ---------------------------


@lru_cache(maxsize=1)
def source_digest() -> str:
    """Content hash of every ``repro`` source file.

    mtime-independent: only file *contents* (and relative paths)
    participate, so a fresh checkout of the same revision digests
    identically on every host.  Any source change invalidates every
    incremental skip — conservative, but never wrong.
    """
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(path.relative_to(package_root).as_posix().encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


def study_fingerprint(
    spec,
    overrides: Optional[Mapping[str, Any]] = None,
    seed: Optional[int] = None,
    point_shard: Optional[PointShard] = None,
) -> str:
    """Stable content key for one configured study run.

    Everything that can change the study's artifacts participates: the
    spec's identity and effective parameters, the report options, the
    runtime seed override, every cache schema tag, and the source
    digest.  Matching fingerprints mean a re-run would reproduce the
    existing artifacts, so the incremental summary may skip it.

    A point-sharded run produces only its slice of the artifacts, so an
    active ``point_shard`` (``count > 1``) participates too; the
    whole-space selector (or ``None``) leaves the key identical to a
    plain single-host run.
    """
    params = {**dict(spec.params), **dict(overrides or {})}
    try:
        payload = {
            "study": spec.name,
            "figure": spec.figure,
            "description": spec.description,
            "params": json.loads(canonical_json(params)),
            "report": dict(spec.report),
            "seed": seed,
            "schema_tags": schema_tags(),
            "source": source_digest(),
        }
        if point_shard is not None and not point_shard.is_whole_space:
            payload["point_shard"] = point_shard.to_dict()
    except TypeError as exc:
        raise ShardError(
            f"study {spec.name!r} has non-JSON-able parameters: {exc}"
        ) from exc
    return fingerprint_payload(payload)


# --- run manifests --------------------------------------------------------


@dataclass(frozen=True)
class ManifestEntry:
    """One study's outcome as recorded in a shard manifest."""

    name: str
    status: str  # STATUS_OK | STATUS_CACHED | STATUS_FAILED
    fingerprint: str = ""
    rows: int = 0
    elapsed_s: float = 0.0
    error: str = ""
    artifacts: Mapping[str, str] = field(default_factory=dict)  # kind -> relpath
    telemetry: Mapping[str, int] = field(default_factory=dict)  # counter -> value
    #: Point-shard accounting (see :func:`point_shard_section`); empty
    #: when the study ran its whole point space.
    point_shard: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.status not in (STATUS_OK, STATUS_CACHED, STATUS_FAILED):
            raise ShardError(
                f"entry {self.name!r}: unknown status {self.status!r}"
            )

    @property
    def ok(self) -> bool:
        return self.status in (STATUS_OK, STATUS_CACHED)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "status": self.status,
            "fingerprint": self.fingerprint,
            "rows": int(self.rows),
            "elapsed_s": float(self.elapsed_s),
            "error": self.error,
            "artifacts": dict(self.artifacts),
            # Counts stay integers; the *_wall_s accumulators are
            # fractional seconds and must survive the round trip.
            "telemetry": {
                k: (float(v) if str(k).endswith("_wall_s") else int(v))
                for k, v in self.telemetry.items()
            },
            "point_shard": dict(self.point_shard),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ManifestEntry":
        try:
            return cls(
                name=str(payload["name"]),
                status=str(payload["status"]),
                fingerprint=str(payload.get("fingerprint", "")),
                rows=int(payload.get("rows", 0)),
                elapsed_s=float(payload.get("elapsed_s", 0.0)),
                error=str(payload.get("error", "")),
                artifacts=dict(payload.get("artifacts", {})),
                telemetry=dict(payload.get("telemetry", {})),
                point_shard=dict(payload.get("point_shard", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ShardError(f"malformed manifest entry: {exc}") from exc


@dataclass(frozen=True)
class RunManifest:
    """What one shard (or a merged suite) ran, and where the outputs are.

    ``entries`` describe exactly the studies this run targeted — the
    merge step's unit of accounting.  ``retained`` carries forward
    entries from earlier runs into the same output directory whose
    studies this run did *not* target (e.g. a later ``--only`` subset),
    so their incremental state survives; merging ignores them.
    """

    shard_index: int
    shard_count: int
    suite: tuple[str, ...]  # every study the partitioned run targeted
    entries: tuple[ManifestEntry, ...]  # this shard's studies, suite order
    tags: Mapping[str, str] = field(default_factory=schema_tags)
    merged_from: tuple[int, ...] = ()  # shard indices a merge combined
    retained: tuple[ManifestEntry, ...] = ()  # prior runs' other studies
    point_merged_from: tuple[int, ...] = ()  # point-shard indices combined
    #: Intra-study point sharding this run applied (1 = whole space).
    point_shard_index: int = 0
    point_shard_count: int = 1

    def __post_init__(self) -> None:
        _validate_shard(self.shard_index, self.shard_count)
        _validate_shard(self.point_shard_index, self.point_shard_count)

    @property
    def point_shard(self) -> PointShard:
        return PointShard(self.point_shard_index, self.point_shard_count)

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.entries)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(entry.name for entry in self.entries)

    def entry_for(self, name: str) -> Optional[ManifestEntry]:
        for entry in self.entries:
            if entry.name == name:
                return entry
        return None

    def lookup(self, name: str) -> Optional[ManifestEntry]:
        """This run's entry for ``name``, or a retained prior one."""
        entry = self.entry_for(name)
        if entry is not None:
            return entry
        for entry in self.retained:
            if entry.name == name:
                return entry
        return None

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": MANIFEST_SCHEMA,
            "shard_index": self.shard_index,
            "shard_count": self.shard_count,
            "point_shard_index": self.point_shard_index,
            "point_shard_count": self.point_shard_count,
            "suite": list(self.suite),
            "schema_tags": dict(self.tags),
            "merged_from": list(self.merged_from),
            "point_merged_from": list(self.point_merged_from),
            "entries": [entry.to_dict() for entry in self.entries],
            "retained": [entry.to_dict() for entry in self.retained],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunManifest":
        if not isinstance(payload, Mapping):
            raise ShardError("manifest root must be an object")
        if payload.get("schema") != MANIFEST_SCHEMA:
            raise ShardError(
                f"manifest schema {payload.get('schema')!r} is not "
                f"{MANIFEST_SCHEMA!r} (regenerate the shard outputs)"
            )
        try:
            return cls(
                shard_index=int(payload["shard_index"]),
                shard_count=int(payload["shard_count"]),
                suite=tuple(str(n) for n in payload["suite"]),
                entries=tuple(
                    ManifestEntry.from_dict(e) for e in payload["entries"]
                ),
                tags=dict(payload.get("schema_tags", {})),
                merged_from=tuple(int(i) for i in payload.get("merged_from", ())),
                retained=tuple(
                    ManifestEntry.from_dict(e) for e in payload.get("retained", ())
                ),
                point_shard_index=int(payload.get("point_shard_index", 0)),
                point_shard_count=int(payload.get("point_shard_count", 1)),
                point_merged_from=tuple(
                    int(i) for i in payload.get("point_merged_from", ())
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ShardError(f"malformed manifest: {exc}") from exc

    # --- persistence ------------------------------------------------------

    @staticmethod
    def path_in(directory: Union[str, Path]) -> Path:
        return Path(directory) / MANIFEST_FILENAME

    def write(self, directory: Union[str, Path]) -> Path:
        """Persist atomically (temp + rename): an interrupted run never
        leaves a truncated manifest that would discard incremental state."""
        path = self.path_in(directory)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, source: Union[str, Path]) -> "RunManifest":
        """Read a manifest from a file, or from a shard output directory."""
        path = Path(source)
        if path.is_dir():
            path = cls.path_in(path)
        try:
            payload = json.loads(path.read_text())
        except OSError as exc:
            raise ShardError(f"cannot read manifest {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ShardError(f"{path}: invalid manifest JSON ({exc})") from exc
        return cls.from_dict(payload)

    @classmethod
    def try_load(cls, directory: Union[str, Path]) -> Optional["RunManifest"]:
        """The directory's manifest, or ``None`` when absent or unusable.

        The incremental summary uses this: a missing or stale manifest
        simply means nothing can be skipped.
        """
        if not cls.path_in(directory).exists():
            return None
        try:
            return cls.load(directory)
        except ShardError:
            return None


def _verify_point_partition(
    name: str, items: Sequence[tuple[RunManifest, ManifestEntry]]
) -> dict[str, Any]:
    """Check one study's point-shard slices reassemble the planned space.

    Every entry's ``point_shard`` section must describe the same planned
    point set, the selected slices must be pairwise disjoint (no point
    run twice), and their union must be exactly the planned set (no
    point dropped).  Poisoned points (transient-failure retry budget
    exhausted) count as covered — *exactly-once-or-poisoned* — but must
    be a subset of their shard's selected slice, and the per-shard
    counts must reconcile.  Returns aggregate accounting for the merged
    entry.
    """
    sections = []
    for manifest, entry in items:
        section = dict(entry.point_shard)
        if not section:
            section = {
                "index": manifest.point_shard_index,
                "count": manifest.point_shard_count,
                "planned": 0,
                "planned_digest": point_set_digest(()),
                "selected": [],
                "completed": 0,
                "poisoned": [],
            }
        recorded = (int(section.get("index", -1)), int(section.get("count", 0)))
        if recorded != (manifest.point_shard_index, manifest.point_shard_count):
            raise ShardError(
                f"study {name!r}: point-shard section {recorded[0]}/{recorded[1]} "
                f"does not match its manifest's point shard "
                f"{manifest.point_shard_index}/{manifest.point_shard_count}"
            )
        sections.append(section)

    planned = {int(s.get("planned", 0)) for s in sections}
    digests = {str(s.get("planned_digest", "")) for s in sections}
    if len(planned) != 1 or len(digests) != 1:
        raise ShardError(
            f"study {name!r}: point shards disagree on the planned point "
            "space (were the shards run against different parameters or "
            "source revisions?)"
        )
    union: set[str] = set()
    total_selected = 0
    all_poisoned: set[str] = set()
    for section in sections:
        selected = [str(fp) for fp in section.get("selected", ())]
        duplicated = union.intersection(selected)
        if duplicated:
            raise ShardError(
                f"study {name!r}: {len(duplicated)} point(s) were run by "
                f"more than one point shard (e.g. {sorted(duplicated)[0][:16]}…)"
            )
        union.update(selected)
        total_selected += len(selected)
        poisoned = {str(fp) for fp in section.get("poisoned", ())}
        stray = poisoned - set(selected)
        if stray:
            raise ShardError(
                f"study {name!r}: {len(stray)} poisoned point(s) are not in "
                f"their shard's selected slice (e.g. {sorted(stray)[0][:16]}…)"
            )
        all_poisoned.update(poisoned)
    planned_count = planned.pop()
    if len(union) != planned_count or point_set_digest(union) != digests.pop():
        raise ShardError(
            f"study {name!r}: point shards cover {len(union)} of "
            f"{planned_count} planned points — at least one sweep point "
            "was dropped by every shard"
        )
    # Coverage holds; now the per-shard books must reconcile (a shard
    # cannot claim more outcomes than the slice it was handed).
    for section in sections:
        completed = int(section.get("completed", 0))
        poisoned_count = len(set(section.get("poisoned", ())))
        if completed + poisoned_count > len(section.get("selected", ())):
            raise ShardError(
                f"study {name!r}: a point shard reports more completed + "
                "poisoned points than it selected"
            )
    return {
        "planned": planned_count,
        "selected": total_selected,
        "completed": sum(int(s.get("completed", 0)) for s in sections),
        "poisoned": sorted(all_poisoned),
    }


def _combine_point_entries(
    name: str, items: Sequence[tuple[RunManifest, ManifestEntry]]
) -> ManifestEntry:
    """One study's merged entry from its verified point-shard slices.

    Counts are summed; the fingerprint is left empty because a slice
    fingerprint identifies only its slice — the merge driver that
    re-materializes the whole-space artifacts records the single-host
    fingerprint (see :func:`repro.studies.summary.merge_shards`).
    """
    entries = [
        entry
        for _, entry in sorted(items, key=lambda item: item[0].point_shard_index)
    ]
    if any(entry.status == STATUS_FAILED for entry in entries):
        status = STATUS_FAILED
    elif all(entry.status == STATUS_CACHED for entry in entries):
        status = STATUS_CACHED
    else:
        status = STATUS_OK
    counters: dict[str, int] = {}
    for entry in entries:
        for key, value in entry.telemetry.items():
            counters[key] = counters.get(key, 0) + int(value)
    return ManifestEntry(
        name=name,
        status=status,
        fingerprint="",
        rows=sum(entry.rows for entry in entries),
        elapsed_s=sum(entry.elapsed_s for entry in entries),
        error="; ".join(entry.error for entry in entries if entry.error),
        # A failed study is neither copied nor re-materialized by the
        # merge driver, so advertising any shard's (partial) artifact
        # paths would point at files absent from the merged output.
        artifacts={} if status == STATUS_FAILED else dict(entries[0].artifacts),
        telemetry=counters,
    )


def merge_manifests(manifests: Sequence[RunManifest]) -> RunManifest:
    """Combine per-shard manifests into the single-suite manifest.

    Verifies the shards describe one coherent partitioned run: identical
    suite and schema tags, one manifest per (shard, point-shard) index
    pair with none missing, and every suite study appearing exactly once
    across all shards.  Under point sharding (``point_shard_count > 1``)
    a study legitimately appears once per point shard; its slices are
    verified to cover the planned point space exactly once — no sweep
    point dropped, none run twice — and combined into one entry.
    Entries are returned in suite order, so the merged table matches a
    single-host run's ordering.
    """
    if not manifests:
        raise ShardError("no manifests to merge")
    first = manifests[0]
    suite = first.suite
    for manifest in manifests[1:]:
        if manifest.suite != suite:
            raise ShardError(
                "manifests disagree on the suite: "
                f"{list(suite)} vs {list(manifest.suite)}"
            )
        if dict(manifest.tags) != dict(first.tags):
            raise ShardError(
                "manifests disagree on cache schema tags: "
                f"{dict(first.tags)} vs {dict(manifest.tags)}"
            )
        if manifest.shard_count != first.shard_count:
            raise ShardError(
                f"manifests disagree on shard_count: "
                f"{first.shard_count} vs {manifest.shard_count}"
            )
        if manifest.point_shard_count != first.point_shard_count:
            raise ShardError(
                f"manifests disagree on point_shard_count: "
                f"{first.point_shard_count} vs {manifest.point_shard_count}"
            )
    point_count = first.point_shard_count
    pairs = [(m.shard_index, m.point_shard_index) for m in manifests]
    if len(set(pairs)) != len(pairs):
        dupes = sorted({p for p in pairs if pairs.count(p) > 1})
        shown = sorted(p[0] for p in dupes) if point_count == 1 else dupes
        raise ShardError(f"duplicate shard manifests for indices {shown}")
    expected = {(i, j) for i in range(first.shard_count) for j in range(point_count)}
    missing = sorted(expected - set(pairs))
    if missing:
        shown = sorted(p[0] for p in missing) if point_count == 1 else missing
        raise ShardError(f"missing shard manifests for indices {shown}")

    by_name: dict[str, list[tuple[RunManifest, ManifestEntry]]] = {}
    for manifest in manifests:
        for entry in manifest.entries:
            if entry.name not in suite:
                raise ShardError(
                    f"study {entry.name!r} is not part of the planned suite"
                )
            by_name.setdefault(entry.name, []).append((manifest, entry))

    merged_entries: dict[str, ManifestEntry] = {}
    for name, items in by_name.items():
        owners = {manifest.shard_index for manifest, _ in items}
        if len(owners) > 1 or (point_count == 1 and len(items) > 1):
            raise ShardError(f"study {name!r} was run by more than one shard")
        if point_count == 1:
            merged_entries[name] = items[0][1]
            continue
        point_indices = sorted(m.point_shard_index for m, _ in items)
        if point_indices != list(range(point_count)):
            raise ShardError(
                f"study {name!r} appears in point shards {point_indices}, "
                f"expected every index in [0, {point_count})"
            )
        _verify_point_partition(name, items)
        merged_entries[name] = _combine_point_entries(name, items)

    dropped = [name for name in suite if name not in merged_entries]
    if dropped:
        raise ShardError(f"studies dropped by every shard: {', '.join(dropped)}")

    return RunManifest(
        shard_index=0,
        shard_count=1,
        suite=suite,
        entries=tuple(merged_entries[name] for name in suite),
        tags=dict(first.tags),
        merged_from=tuple(sorted({p[0] for p in pairs})),
        point_merged_from=(
            tuple(sorted({p[1] for p in pairs})) if point_count > 1 else ()
        ),
    )


def collect_artifacts(
    manifest: RunManifest,
    source_dir: Union[str, Path],
    target_dir: Union[str, Path],
    skip: Iterable[str] = (),
) -> None:
    """Copy one shard's artifacts under ``target_dir``.

    Artifact paths are recorded relative to a shard's output directory,
    so they keep meaning the same thing under the merge target.  A
    recorded artifact missing on disk is an error (the shard upload was
    incomplete).  Studies named in ``skip`` are left alone — the merge
    driver uses this for point-sharded studies, whose per-shard CSVs are
    partial and are re-materialized instead of copied.
    """
    source = Path(source_dir)
    target = Path(target_dir)
    skip = set(skip)
    for entry in manifest.entries:
        if entry.name in skip:
            continue
        for relpath in entry.artifacts.values():
            src = source / relpath
            if not src.exists():
                raise ShardError(
                    f"study {entry.name!r}: artifact {relpath} missing from {source}"
                )
            dst = target / relpath
            dst.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(dst, src.read_bytes())
