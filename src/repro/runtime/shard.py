"""Run manifests and the study fingerprints behind incremental runs.

Every suite run records what it did in a :class:`RunManifest` written
next to its outputs (``manifest.json``): one :class:`ManifestEntry` per
study with status, row count, telemetry counters, artifact paths, and
the study's content fingerprint (:func:`study_fingerprint` — parameters
× an mtime-independent source digest).  The next run into the same
directory compares each entry's fingerprint against the current one and
skips studies whose artifacts are already up to date.
``nvmexplorer fsck --manifest`` audits the same file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from repro.errors import ReproError
from repro.runtime.cache import atomic_write_bytes
from repro.runtime.fingerprint import canonical_json, fingerprint_payload, store_key

#: Version tag of the manifest payload format.  Bump on incompatible
#: changes so stale manifests are ignored instead of misread.
MANIFEST_SCHEMA = "run-manifest-v4"

#: File name a run's manifest is written under, next to its outputs.
MANIFEST_FILENAME = "manifest.json"

#: Statuses a manifest entry can record.
STATUS_OK = "ok"
STATUS_CACHED = "cached"
STATUS_FAILED = "failed"


class ManifestError(ReproError):
    """A run manifest (or a study's fingerprint payload) is malformed."""


# --- study fingerprints (incremental skip keys) ---------------------------


def source_digest() -> str:
    """Content hash of every ``repro`` source and package-data file.

    The whole-package :func:`~repro.runtime.fingerprint.source_digest`,
    which is also the ``evaluations`` store's key, so it is computed once
    per process together with the other store keys, and covers every
    file any store key reads.  Any source or data change invalidates
    every incremental skip — conservative, but never wrong.
    """
    return store_key("evaluations")


def study_fingerprint(
    spec,
    overrides: Optional[Mapping[str, Any]] = None,
    seed: Optional[int] = None,
) -> str:
    """Stable content key for one configured study run.

    Everything that can change the study's artifacts participates: the
    spec's identity and effective parameters, the report options, the
    runtime seed override, and the source digest.  Matching fingerprints
    mean a re-run would reproduce the existing artifacts, so the
    incremental summary may skip it.
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
            "source": source_digest(),
        }
    except TypeError as exc:
        raise ManifestError(f"study {spec.name!r} has non-JSON-able parameters: {exc}") from exc
    return fingerprint_payload(payload)


# --- run manifests --------------------------------------------------------


def _counters(telemetry: Mapping[str, Any]) -> dict[str, Any]:
    """Telemetry counters as stored: integer counts, and the ``*_wall_s``
    accumulators as fractional seconds that survive the round trip."""
    return {
        k: (float(v) if str(k).endswith("_wall_s") else int(v))
        for k, v in telemetry.items()
    }


@dataclass(frozen=True)
class ManifestEntry:
    """One study's outcome as recorded in a run manifest."""

    name: str
    status: str  # STATUS_OK | STATUS_CACHED | STATUS_FAILED
    fingerprint: str = ""
    rows: int = 0
    elapsed_s: float = 0.0
    error: str = ""
    artifacts: Mapping[str, str] = field(default_factory=dict)  # kind -> relpath
    telemetry: Mapping[str, int] = field(default_factory=dict)  # counter -> value

    def __post_init__(self) -> None:
        if self.status not in (STATUS_OK, STATUS_CACHED, STATUS_FAILED):
            raise ManifestError(f"entry {self.name!r}: unknown status {self.status!r}")

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
            "telemetry": _counters(self.telemetry),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ManifestEntry":
        try:
            artifacts = dict(payload.get("artifacts", {}))
            for kind, relpath in artifacts.items():
                if not isinstance(relpath, str):
                    raise TypeError(f"artifact {kind!r} path is not a string: {relpath!r}")
            return cls(
                name=str(payload["name"]),
                status=str(payload["status"]),
                fingerprint=str(payload.get("fingerprint", "")),
                rows=int(payload.get("rows", 0)),
                elapsed_s=float(payload.get("elapsed_s", 0.0)),
                error=str(payload.get("error", "")),
                artifacts=artifacts,
                telemetry=_counters(dict(payload.get("telemetry", {}))),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"malformed manifest entry: {exc}") from exc


@dataclass(frozen=True)
class RunManifest:
    """What one run did, and where its outputs are.

    ``entries`` describe exactly the studies this run recorded, in run
    order.  ``retained`` carries forward entries from earlier runs into
    the same output directory whose studies this run did *not* record
    (a later ``--only`` subset, or studies an interrupt cut off), so
    their incremental state survives.
    """

    entries: tuple[ManifestEntry, ...]
    retained: tuple[ManifestEntry, ...] = ()

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
            "entries": [entry.to_dict() for entry in self.entries],
            "retained": [entry.to_dict() for entry in self.retained],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunManifest":
        if not isinstance(payload, Mapping):
            raise ManifestError("manifest root must be an object")
        if payload.get("schema") != MANIFEST_SCHEMA:
            raise ManifestError(
                f"manifest schema {payload.get('schema')!r} is not "
                f"{MANIFEST_SCHEMA!r} (re-run to regenerate it)"
            )
        try:
            return cls(
                entries=tuple(ManifestEntry.from_dict(e) for e in payload["entries"]),
                retained=tuple(ManifestEntry.from_dict(e) for e in payload.get("retained", ())),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"malformed manifest: {exc}") from exc

    # --- persistence ------------------------------------------------------

    @staticmethod
    def path_in(directory: Union[str, Path]) -> Path:
        return Path(directory) / MANIFEST_FILENAME

    def write(self, directory: Union[str, Path]) -> Path:
        """Persist atomically: an interrupted run never leaves a truncated
        manifest that would discard incremental state, nor a temp file."""
        path = self.path_in(directory)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        atomic_write_bytes(path, text.encode("utf-8"))
        return path

    @classmethod
    def load(cls, source: Union[str, Path]) -> "RunManifest":
        """Read a manifest from a file, or from a run output directory."""
        path = Path(source)
        if path.is_dir():
            path = cls.path_in(path)
        try:
            payload = json.loads(path.read_text())
        except OSError as exc:
            raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ManifestError(f"{path}: invalid manifest JSON ({exc})") from exc
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
        except ManifestError:
            return None
