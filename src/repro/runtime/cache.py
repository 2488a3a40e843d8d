"""Persistent, content-addressed result caches.

One file per cached result, addressed by a stable content fingerprint
(:mod:`repro.runtime.fingerprint`) and fanned out over 256
two-hex-digit subdirectories so large sweeps don't produce a single
enormous directory.  Writes are atomic (temp file + ``os.replace``), so a
run interrupted mid-store never leaves a truncated entry and a re-run
resumes from whatever completed.

Each entry file (``<2-hex>/<fingerprint>.v2``) is one JSON header line,
a newline, then the JSON body::

    {"schema": <tag>, "fingerprint": <fingerprint>, "checksum": <sha256>}
    <json.dumps(encoded result)>

The checksum is the SHA-256 of the body bytes as stored, so a load
verifies the bytes it read instead of re-serializing the decoded
result.  :func:`encode_entry` and :func:`read_entry` own this format;
``nvmexplorer fsck`` verifies entries through :func:`read_entry` too.
Files in the pre-v2 layout (``<fingerprint>.json``) are never read.

Invalidation is by schema tag: the tag participates in the fingerprint,
so bumping it makes every old entry unreachable.  The header
additionally records the tag and is re-checked on load, guarding against
entries copied across versions.

Three stores share this machinery:

* :class:`CharacterizationCache` — array characterizations, keyed by
  :func:`~repro.runtime.fingerprint.point_fingerprint`;
* :class:`LLCTraceCache` — regenerated LLC traffic traces, keyed by
  :func:`~repro.runtime.fingerprint.trace_fingerprint`, so repeated LLC
  and write-buffer study runs skip cache simulation entirely;
* :class:`EvaluationCache` — flattened (array x traffic) evaluation row
  blocks, keyed by
  :func:`~repro.runtime.fingerprint.evaluation_fingerprint`, so repeated
  study runs skip the evaluation loop entirely.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Optional, Union

from repro.errors import ReproError
from repro.nvsim.result import ArrayCharacterization
from repro.runtime.fingerprint import (
    EVAL_SCHEMA_TAG,
    SCHEMA_TAG,
    TRACE_SCHEMA_TAG,
)

if TYPE_CHECKING:
    from repro.runtime.chaos import ChaosOptions

#: Version of the entry file layout (header line + body).  It names the
#: entry suffix, so a layout change leaves older entries unread.
ENTRY_FORMAT = 2
ENTRY_SUFFIX = f".v{ENTRY_FORMAT}"

#: Suffix of pre-v2 entries (one JSON object with the result inline).
#: Loads never read them; ``fsck`` reports them as legacy and keeps them.
LEGACY_ENTRY_SUFFIX = ".json"

#: Subdirectory (inside a cache root) where entries that fail integrity
#: verification are preserved for post-mortem instead of being deleted
#: or silently overwritten.  The name is deliberately longer than the
#: two-hex-digit fan-out dirs so ``??/*`` entry globs never see it.
QUARANTINE_SUBDIR = "quarantine"

#: Process-wide monotonic suffix so concurrent stores of the *same*
#: fingerprint from different threads never collide on one temp name.
_TMP_COUNTER = itertools.count()


def _tmp_path_for(path: Path) -> Path:
    """A unique sibling temp path for one atomic write.

    pid + thread id + a process-wide counter make the name unique across
    processes, across threads, and across repeated stores from the same
    thread.  The ``.tmp.`` infix keeps temp files invisible to the
    entry globs; :meth:`JsonObjectCache.clear` sweeps up any
    leaked by a run that died between write and rename.
    """
    return path.parent / (
        f"{path.name}.tmp.{os.getpid()}"
        f".{threading.get_ident()}.{next(_TMP_COUNTER)}"
    )


def atomic_write_text(path: Path, text: str, encoding: str = "utf-8") -> None:
    """Write ``text`` to ``path`` via a unique temp file + ``os.replace``.

    The shared primitive behind every durable artifact outside the JSON
    caches (warm stamps, copied shard artifacts, lint pins): a reader or
    crash-recovery pass never observes a truncated file, only the old
    content or the new.
    """
    tmp = _tmp_path_for(path)
    try:
        tmp.write_text(text, encoding=encoding)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Byte-payload twin of :func:`atomic_write_text`."""
    tmp = _tmp_path_for(path)
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_json(path: Path, payload: Any, **dumps_kwargs: Any) -> None:
    """Serialize ``payload`` and atomically write it to ``path``."""
    atomic_write_text(path, json.dumps(payload, **dumps_kwargs))


class CorruptEntry(ValueError):
    """An entry's bytes failed verification; the message names the reason."""


def encode_entry(schema_tag: str, fingerprint: str, encoded_result: Any) -> bytes:
    """The bytes of one entry: header line, newline, JSON body.

    No key sorting: the body must round-trip with its original key
    order, so rows served from cache produce CSVs byte-identical to
    freshly computed ones (column order is taken from row insertion
    order).
    """
    body = json.dumps(encoded_result).encode("utf-8")
    header = json.dumps({
        "schema": schema_tag,
        "fingerprint": fingerprint,
        "checksum": hashlib.sha256(body).hexdigest(),
    })
    return header.encode("utf-8") + b"\n" + body


def read_entry(data: bytes, fingerprint: str) -> tuple[Any, Any]:
    """Verify one entry's bytes; returns ``(schema tag, decoded body)``.

    Raises :class:`CorruptEntry` when the header is not a JSON object,
    records another fingerprint, or carries a checksum that does not
    match the body bytes, and when the body is not JSON.  The schema tag
    is returned unchecked: a tag mismatch is an ordinary miss, and fsck
    accepts entries of any tag.
    """
    head, _, body = data.partition(b"\n")
    try:
        header = json.loads(head)
    except ValueError:
        raise CorruptEntry("invalid JSON header") from None
    if not isinstance(header, dict):
        raise CorruptEntry("header is not an object")
    if header.get("fingerprint") != fingerprint:
        raise CorruptEntry("fingerprint mismatch")
    if header.get("checksum") != hashlib.sha256(body).hexdigest():
        raise CorruptEntry("checksum mismatch")
    try:
        return header.get("schema"), json.loads(body)
    except ValueError:
        raise CorruptEntry("invalid JSON body") from None


class JsonObjectCache:
    """On-disk store of JSON-able results keyed by content fingerprint.

    Subclasses define the payload format via :meth:`_encode` /
    :meth:`_decode`; everything else (layout, atomicity, schema checks,
    hit/miss/store accounting) is shared.
    """

    def __init__(
        self,
        root: Union[str, Path],
        schema_tag: str,
        chaos: Optional["ChaosOptions"] = None,
    ) -> None:
        self.root = Path(root)
        self.schema_tag = schema_tag
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Entries that failed integrity verification on load (bad JSON,
        #: checksum/fingerprint mismatch, undecodable payload).  Counted
        #: separately from misses: a miss is expected cold-cache
        #: behaviour, corruption is an infrastructure fault.
        self.corrupt = 0
        #: Corrupt entries successfully moved to the quarantine dir.
        self.quarantined = 0
        #: Optional fault injector (tests / chaos runs) — corrupts the
        #: on-disk entry just before a load reads it.
        self.chaos = chaos
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ReproError(f"cannot create cache directory {self.root}: {exc}") from exc

    # --- payload format (subclass responsibility) -------------------------

    def _encode(self, result) -> Any:
        """JSON-able rendering of one result."""
        raise NotImplementedError

    def _decode(self, payload):
        """Inverse of :meth:`_encode`; may raise on malformed payloads."""
        raise NotImplementedError

    # --- addressing -------------------------------------------------------

    def path_for(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}{ENTRY_SUFFIX}"

    # --- operations -------------------------------------------------------

    def quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_SUBDIR

    def _quarantine(self, fingerprint: str, path: Path, reason: str) -> None:
        """Move a corrupt entry aside — never silently overwritten in place.

        The damaged file is preserved under ``quarantine/`` for
        post-mortem (``nvmexplorer fsck`` reports the backlog); the next
        store then writes a fresh entry at the original address.
        """
        self.corrupt += 1
        qdir = self.quarantine_dir()
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            dest = qdir / path.name
            if dest.exists():  # keep every damaged copy — suffix, don't clobber
                dest = qdir / f"{path.name}.{next(_TMP_COUNTER)}"
            os.replace(path, dest)
        except OSError:
            return
        self.quarantined += 1

    def load(self, fingerprint: str):
        """The cached result, or ``None`` on miss or corruption.

        A missing file or a schema-tag mismatch is an ordinary miss.  An
        entry that fails integrity verification — see :func:`read_entry`
        — or whose body the decoder rejects counts in ``corrupt`` (not
        ``misses``) and is moved to ``quarantine/`` so the next store
        cannot silently paper over it.
        """
        path = self.path_for(fingerprint)
        if self.chaos is not None:
            self.chaos.maybe_corrupt_file(path, fingerprint)
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            schema, body = read_entry(data, fingerprint)
        except CorruptEntry as exc:
            self._quarantine(fingerprint, path, str(exc))
            return None
        if schema != self.schema_tag:
            self.misses += 1
            return None
        try:
            result = self._decode(body)
        except (ReproError, KeyError, TypeError, ValueError):
            self._quarantine(fingerprint, path, "payload failed to decode")
            return None
        self.hits += 1
        return result

    def store(self, fingerprint: str, result) -> None:
        """Persist one result atomically, with a content checksum.

        The fan-out directory is created only when the write finds it
        missing, so each one is made at most once per cache instance.
        """
        path = self.path_for(fingerprint)
        data = encode_entry(self.schema_tag, fingerprint, self._encode(result))
        try:
            atomic_write_bytes(path, data)
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(path, data)
        self.stores += 1

    def __contains__(self, fingerprint: str) -> bool:
        """Whether an entry *file* exists (any schema version, unvalidated).

        Use :meth:`load` to know whether the entry is actually usable.
        """
        return self.path_for(fingerprint).exists()

    def fingerprints(self) -> Iterator[str]:
        """Every fingerprint currently stored (any schema version)."""
        for entry in sorted(self.root.glob(f"??/*{ENTRY_SUFFIX}")):
            yield entry.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.fingerprints())

    def clear(self) -> int:
        """Delete every entry; returns the number removed.

        Also sweeps up stale ``*.tmp.*`` files left by runs that died
        between writing a temp file and renaming it into place (those
        never count as entries — they are invisible to loads and globs).
        """
        removed = 0
        for entry in sorted(self.root.glob(f"??/*{ENTRY_SUFFIX}")):
            entry.unlink(missing_ok=True)
            removed += 1
        for stale in sorted(self.root.glob("??/*.tmp.*")):
            stale.unlink(missing_ok=True)
        return removed

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "quarantined": self.quarantined,
        }


class CharacterizationCache(JsonObjectCache):
    """On-disk store of :class:`ArrayCharacterization` keyed by fingerprint."""

    def __init__(
        self,
        root: Union[str, Path],
        schema_tag: str = SCHEMA_TAG,
        chaos: Optional["ChaosOptions"] = None,
    ) -> None:
        super().__init__(root, schema_tag, chaos=chaos)

    def _encode(self, result: ArrayCharacterization) -> Any:
        return result.to_dict()

    def _decode(self, payload) -> ArrayCharacterization:
        return ArrayCharacterization.from_dict(payload)

    def load(self, fingerprint: str) -> Optional[ArrayCharacterization]:
        return super().load(fingerprint)


class EvaluationCache(JsonObjectCache):
    """On-disk store of (array x traffic) evaluation row blocks.

    One entry holds every flattened result row of one array evaluated
    under one traffic block — already JSON-shaped, so encode/decode only
    validate the structure.
    """

    def __init__(
        self,
        root: Union[str, Path],
        schema_tag: str = EVAL_SCHEMA_TAG,
        chaos: Optional["ChaosOptions"] = None,
    ) -> None:
        super().__init__(root, schema_tag, chaos=chaos)

    def _encode(self, result) -> Any:
        return list(result)

    def _decode(self, payload) -> list[dict]:
        if not isinstance(payload, list) or not all(
            isinstance(row, dict) for row in payload
        ):
            raise ValueError("evaluation payload must be a list of row objects")
        return payload


class LLCTraceCache(JsonObjectCache):
    """On-disk store of regenerated LLC traces keyed by fingerprint."""

    def __init__(
        self,
        root: Union[str, Path],
        schema_tag: str = TRACE_SCHEMA_TAG,
        chaos: Optional["ChaosOptions"] = None,
    ) -> None:
        super().__init__(root, schema_tag, chaos=chaos)

    def _encode(self, result) -> Any:
        return result.to_dict()

    def _decode(self, payload):
        # Imported lazily: repro.cachesim.llc consumes this cache, so a
        # module-level import would be circular.
        from repro.cachesim.llc import LLCTrace

        return LLCTrace.from_dict(payload)
