"""Persistent, content-addressed result caches.

Results are addressed by a stable content fingerprint
(:mod:`repro.runtime.fingerprint`) and stored in immutable *pack* files,
one per batch of stores: every :func:`~repro.runtime.executor.\
characterize_points`, :func:`~repro.runtime.executor.evaluate_blocks` or
:func:`~repro.runtime.executor.simulate_traces` call that computes
anything writes exactly one pack, and a ``store()`` outside a batch
writes a one-entry pack.  Packs sit flat in the store
directory as ``<pack-id>.v4``.  A pack is streamed into a unique temp file
and renamed into place on exit, so a run interrupted mid-store never
leaves a truncated pack, and the work a call finished before an
interrupt is still committed.

A pack is the store key on one line, then one line per entry::

    <store key>
    <fingerprint> <sha256 of body> <body>
    ...

Each body is ``json.dumps`` of the encoded result, which never holds a
raw newline, and its checksum is the SHA-256 of those bytes as stored,
so a load reads and hashes only its own byte range.  The pack id is the
first 32 hex digits of the SHA-256 of the store key and the ordered
fingerprints, so the file name also checks the entry lines.
:func:`read_pack_index` reads a pack's lines and
:meth:`JsonObjectCache.read_entry` reads one entry's body (checksum, then
JSON, then the store's decoder); a load and ``nvmexplorer fsck`` both go
through them, and fsck also deletes the flat packs of older layouts,
which are never read.

Each process keeps one fingerprint index per store root, shared by every
cache object on that root.  A lookup that misses re-lists the directory
and reads the index of each pack it has not seen before.  A pack that
fails verification (no key line, a short or unterminated entry line, a
name that does not match its entries, a body checksum mismatch, a body
that is not JSON or does not decode) is deleted whole and its entries
leave the index; those results are recomputed and re-packed by whichever
call needs them.

Invalidation is by store key (:func:`~repro.runtime.fingerprint.store_key`,
a digest of the modules that produce the store's payloads): the key
participates in every fingerprint, so editing any of those modules makes
every old entry unreachable.  Each pack's key line additionally records
the key, which is re-checked on load, so a pack written under another
key is an ordinary miss.

Three stores share this machinery:

* :class:`CharacterizationCache` — array characterizations, keyed by
  :func:`~repro.runtime.fingerprint.point_fingerprint`;
* :class:`LLCTraceCache` — regenerated LLC traffic traces, keyed by
  :func:`~repro.runtime.fingerprint.trace_fingerprint`, so repeated LLC
  and write-buffer study runs skip cache simulation entirely;
* :class:`EvaluationCache` — flattened (array x traffic) evaluation row
  blocks, keyed by
  :func:`~repro.runtime.fingerprint.evaluation_fingerprint`, so repeated
  study runs skip the evaluation loop entirely.  Its bodies are factored
  row blocks (:mod:`repro.runtime.rowcodec`).
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import threading
from pathlib import Path
from typing import IO, Any, Callable, Iterator, List, Optional, Tuple, Union

from repro.cachesim.llc import LLCTrace
from repro.errors import ReproError
from repro.nvsim.result import ArrayCharacterization
from repro.runtime.fingerprint import store_key
from repro.runtime.rowcodec import decode_block, encode_block

#: Version of the pack file layout.  It names the pack suffix, so a
#: layout change leaves older files unread.
ENTRY_FORMAT = 4
PACK_SUFFIX = f".v{ENTRY_FORMAT}"

#: One index entry: (fingerprint, body offset, body length, body sha256).
IndexEntry = Tuple[str, int, int, str]

#: Process-wide monotonic suffix so concurrent stores of the *same*
#: fingerprint from different threads never collide on one temp name.
_TMP_COUNTER = itertools.count()


def _tmp_path_for(path: Path) -> Path:
    """A unique sibling temp path for one atomic write.

    pid + thread id + a process-wide counter make the name unique across
    processes, across threads, and across repeated stores from the same
    thread.  The ``.tmp.`` infix keeps temp files invisible to pack
    listings; ``nvmexplorer fsck`` sweeps up any leaked by a run that
    died between write and rename.
    """
    return path.parent / (
        f"{path.name}.tmp.{os.getpid()}"
        f".{threading.get_ident()}.{next(_TMP_COUNTER)}"
    )


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a unique temp file + ``os.replace``.

    The one primitive behind every durable artifact outside the packs
    (CSVs, reports, run manifests, warm stamps): a reader or
    crash-recovery pass never observes a truncated file, only the old
    content or the new.
    """
    tmp = _tmp_path_for(path)
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class CorruptPack(ValueError):
    """A pack's bytes failed verification; the message names the reason."""


#: What a store's decoder raises on a body it rejects.
_DECODE_ERRORS = (ReproError, KeyError, TypeError, ValueError)


def pack_id(schema_tag: str, fingerprints: List[str]) -> str:
    """The name stem of the pack holding ``fingerprints`` in this order."""
    text = "\n".join([schema_tag, *fingerprints])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def read_pack_index(path: Path) -> Tuple[str, List[IndexEntry]]:
    """Scan one pack's lines; returns ``(store key, entries)``.

    Raises :class:`CorruptPack` when the key line is missing, an entry
    line has fewer than three fields, the last line is unterminated, or
    the entries do not match the pack's name, and :class:`OSError` when
    the file cannot be read at all.  Body checksums are not checked.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    start = data.find(b"\n") + 1
    if not start:
        raise CorruptPack("missing store key line")
    if not data.endswith(b"\n"):
        raise CorruptPack("unterminated last line")
    schema = data[: start - 1].decode(errors="replace")
    entries: List[IndexEntry] = []
    while start < len(data):
        end = data.index(b"\n", start)
        fp_end = data.find(b" ", start, end)
        sum_end = data.find(b" ", fp_end + 1, end) if fp_end >= 0 else -1
        if sum_end < 0:
            raise CorruptPack("entry line with fewer than three fields")
        fp, checksum = data[start:fp_end], data[fp_end + 1:sum_end]
        entries.append((fp.decode(errors="replace"), sum_end + 1, end - sum_end - 1,
                        checksum.decode(errors="replace")))
        start = end + 1
    if pack_id(schema, [entry[0] for entry in entries]) != path.name.partition(".")[0]:
        raise CorruptPack("entries do not match the pack name")
    return schema, entries


class _PackWriter:
    """One pack's temp file: the store key line, then one line per entry."""

    def __init__(self, handle: IO[bytes], schema_tag: str) -> None:
        self.handle = handle
        self.entries: List[IndexEntry] = []
        #: Bytes up to the end of the last committed line.
        self.end = handle.write(schema_tag.encode("utf-8") + b"\n")
        #: Where the pack landed, once committed.
        self.path: Optional[Path] = None

    def add(self, fingerprint: str, body: bytes) -> None:
        checksum = hashlib.sha256(body).hexdigest()
        head = f"{fingerprint} {checksum} ".encode("utf-8")
        self.handle.write(head + body + b"\n")
        # The append is the commit point: a line whose write was cut
        # short by an interrupt is never indexed, and the exit cuts it off.
        self.entries.append((fingerprint, self.end + len(head), len(body), checksum))
        self.end += len(head) + len(body) + 1


@contextlib.contextmanager
def _pack_stream(root: Path, schema_tag: str) -> Iterator[_PackWriter]:
    """A pack writer whose pack is cut to its last committed line and renamed on exit.

    The pack is committed also when the block raises, so bodies stored
    before an error or interrupt are kept; an empty pack writes nothing.
    """
    tmp = _tmp_path_for(root / "pack")
    writer = _PackWriter(open(tmp, "wb"), schema_tag)
    try:
        yield writer
    finally:
        try:
            with writer.handle:
                writer.handle.truncate(writer.end)
            if writer.entries:
                path = root / (pack_id(schema_tag, [e[0] for e in writer.entries]) + PACK_SUFFIX)
                os.replace(tmp, path)
                writer.path = path
        finally:
            tmp.unlink(missing_ok=True)  # a no-op once the pack is in place


#: (pack path, store key, body offset, body length, body sha256).
_Location = Tuple[Path, str, int, int, str]


class _PackIndex:
    """Fingerprint -> location over the packs of one store root.

    One per store root per process, shared by every cache object on it,
    so building a new engine does not re-read every pack index.
    """

    def __init__(self, root: Path) -> None:
        self.root = root
        self.locations: dict[str, _Location] = {}
        #: The name of every pack read, written or dropped: a refresh
        #: never re-reads (or re-counts) one of them.
        self.seen: set[str] = set()
        self._lock = threading.RLock()

    def add(self, path: Path, schema: str, entries: List[IndexEntry]) -> None:
        with self._lock:
            self.seen.add(path.name)
            for fingerprint, offset, length, checksum in entries:
                self.locations[fingerprint] = (path, schema, offset, length, checksum)

    def drop(self, path: Path) -> None:
        """Forget a pack's entries; a refresh never re-reads it."""
        with self._lock:
            self.seen.add(path.name)
            for fingerprint in [fp for fp, loc in self.locations.items() if loc[0] == path]:
                del self.locations[fingerprint]

    def refresh(self, on_corrupt: Callable[[Path], None]) -> None:
        """Read the index of every pack added to the directory since the last look."""
        with self._lock:
            try:
                names = sorted(os.listdir(self.root))
            except OSError:
                return
            for name in names:
                if not name.endswith(PACK_SUFFIX) or name in self.seen:
                    continue
                path = self.root / name
                try:
                    self.add(path, *read_pack_index(path))
                except CorruptPack:
                    on_corrupt(path)
                except OSError:
                    continue  # vanished between the listing and the read


_INDEXES: dict[str, _PackIndex] = {}
_INDEXES_LOCK = threading.Lock()


def _index_for(root: Path) -> _PackIndex:
    key = os.path.abspath(root)
    with _INDEXES_LOCK:
        index = _INDEXES.get(key)
        if index is None:
            index = _INDEXES[key] = _PackIndex(root)
        return index


class JsonObjectCache:
    """On-disk store of JSON-able results keyed by content fingerprint.

    Subclasses define the payload format via :meth:`_encode` /
    :meth:`_decode` and name their store (``store_name``), whose key
    (:func:`~repro.runtime.fingerprint.store_key`) every pack records.
    Everything else (packing, atomicity, key checks, damage accounting)
    is shared.
    """

    #: The store's directory name under a cache root, and its key's name.
    store_name: str

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.schema_tag = store_key(self.store_name)
        #: Packs that failed integrity verification on load (a damaged
        #: line, name or checksum mismatch, undecodable body).  A miss is
        #: expected cold-cache behaviour; corruption is an infrastructure
        #: fault, which the executor reports as ``corrupt`` events.
        self.corrupt = 0
        #: Per-thread open batch (see :meth:`batch`): its exit stack and
        #: pack writer.
        self._local = threading.local()
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ReproError(f"cannot create cache directory {self.root}: {exc}") from exc
        self._index = _index_for(self.root)

    # --- payload format (subclass responsibility) -------------------------

    def _encode(self, result) -> Any:
        """JSON-able rendering of one result."""
        raise NotImplementedError

    @staticmethod
    def _decode(payload):
        """Inverse of :meth:`_encode`; may raise on malformed payloads."""
        raise NotImplementedError

    # --- operations -------------------------------------------------------

    def _discard(self, path: Path) -> None:
        """Count a damaged pack and delete it; its entries leave the index.

        The next store of any of them writes a fresh pack.
        """
        self.corrupt += 1
        with contextlib.suppress(OSError):
            path.unlink(missing_ok=True)
        self._index.drop(path)

    def _locate(self, fingerprint: str) -> Optional[_Location]:
        location = self._index.locations.get(fingerprint)
        if location is None:
            self._index.refresh(self._discard)
            location = self._index.locations.get(fingerprint)
        return location

    def read_entry(
        self, handle: IO[bytes], schema: str, offset: int, length: int, checksum: str
    ):
        """Read one entry of an open pack written under ``schema``.

        Checks the body's SHA-256, then parses its JSON, then, when
        ``schema`` is this store's current key, decodes it; returns the
        result, or ``None`` for a pack under another key.  Raises
        :class:`CorruptPack` naming the first check that failed.
        """
        handle.seek(offset)
        body = handle.read(length)
        if hashlib.sha256(body).hexdigest() != checksum:
            raise CorruptPack("checksum mismatch")
        try:
            payload = json.loads(body)
        except ValueError:
            raise CorruptPack("invalid JSON body") from None
        if schema != self.schema_tag:
            return None
        try:
            return self._decode(payload)
        except _DECODE_ERRORS:
            raise CorruptPack("undecodable body") from None

    def load(self, fingerprint: str):
        """The cached result, or ``None`` on miss or corruption.

        An unknown fingerprint or a pack under another key is an ordinary
        miss.  A pack that fails integrity verification — see
        :func:`read_pack_index` and :meth:`read_entry` — counts in
        ``corrupt`` and is deleted whole.
        """
        location = self._locate(fingerprint)
        if location is None:
            return None
        path, *entry = location
        try:
            with open(path, "rb") as handle:
                return self.read_entry(handle, *entry)
        except OSError:
            self._index.drop(path)  # deleted since it was indexed
            return None
        except CorruptPack:
            self._discard(path)
            return None

    @contextlib.contextmanager
    def batch(self) -> Iterator[None]:
        """Collect every :meth:`store` in the block into one pack.

        The pack is committed when the block exits, also on an exception,
        so results stored before an error or interrupt are kept.  A nested
        block joins the outer one; a block that stores nothing writes
        nothing.
        """
        local = self._local
        if getattr(local, "stack", None) is not None:
            yield
            return
        local.stack, local.writer = contextlib.ExitStack(), None
        try:
            with local.stack:
                yield
        finally:
            writer, local.stack, local.writer = local.writer, None, None
            if writer is not None and writer.path is not None:
                self._index.add(writer.path, self.schema_tag, writer.entries)

    def store(self, fingerprint: str, result) -> None:
        """Persist one result, with a content checksum.

        Inside :meth:`batch` the body joins the batch's pack; otherwise it
        is written as a one-entry pack.
        """
        body = json.dumps(self._encode(result)).encode("utf-8")
        with self.batch():
            local = self._local
            if local.writer is None:
                local.writer = local.stack.enter_context(
                    _pack_stream(self.root, self.schema_tag)
                )
            local.writer.add(fingerprint, body)


class CharacterizationCache(JsonObjectCache):
    """On-disk store of :class:`ArrayCharacterization` keyed by fingerprint."""

    store_name = "arrays"

    def _encode(self, result: ArrayCharacterization) -> Any:
        return result.to_dict()

    @staticmethod
    def _decode(payload) -> ArrayCharacterization:
        return ArrayCharacterization.from_dict(payload)


class EvaluationCache(JsonObjectCache):
    """On-disk store of (array x traffic) evaluation row blocks.

    One entry holds every flattened result row of one array evaluated
    under one traffic block, factored by :mod:`repro.runtime.rowcodec`:
    each key order and each value constant across the block's rows is
    stored once, and a load rebuilds the rows exactly.
    """

    store_name = "evaluations"

    def _encode(self, result) -> Any:
        return encode_block(result)

    @staticmethod
    def _decode(payload) -> list[dict]:
        return decode_block(payload)


class LLCTraceCache(JsonObjectCache):
    """On-disk store of regenerated LLC traces keyed by fingerprint."""

    store_name = "traces"

    def _encode(self, result: LLCTrace) -> Any:
        return result.to_dict()

    @staticmethod
    def _decode(payload) -> LLCTrace:
        return LLCTrace.from_dict(payload)


#: Every store type, by its directory name under a cache root.
STORE_TYPES = {
    cls.store_name: cls for cls in (CharacterizationCache, EvaluationCache, LLCTraceCache)
}
