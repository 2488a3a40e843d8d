"""Cache and manifest integrity audit behind ``nvmexplorer fsck``.

A cache directory accumulates damage the sweeps themselves only detect
lazily: packs truncated or bit-flipped on disk, and stale ``*.tmp.*``
files leaked by a run that died between write and rename.  ``fsck``
audits each store directory (``arrays``, ``evaluations``, ``traces``)
and makes that state explicit:

- verifies every pack through the reader the loaders use: its key and
  entry lines, and name, with :func:`~repro.runtime.cache.read_pack_index`,
  then each body with the store's
  :meth:`~repro.runtime.cache.JsonObjectCache.read_entry` (checksum,
  JSON, and the store's decoder for a pack under the current key), so a
  pack that a load would delete is reported corrupt;
- deletes each pack that fails verification, as the loaders do, and
  reports it by name and reason;
- deletes each intact pack written under another key (after each edit
  to a store's sources every load misses the old packs) or in an older
  layout (``*.v3`` and before), which no loader reads;
- sweeps stale ``*.tmp.*`` files;
- audits run manifests (:func:`fsck_manifest`): the manifest must parse
  and every recorded artifact must exist on disk.

A report is :attr:`~FsckReport.clean` unless this pass found
corruption, a path that is not a store, or a manifest problem (stale
packs are not damage).  Running fsck twice on a cache therefore
converges: the second pass is clean and removes nothing.  The deleted
packs' results are recomputed and re-packed by the next run that needs
them.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Union

from repro.runtime.cache import PACK_SUFFIX, STORE_TYPES, CorruptPack, read_pack_index
from repro.runtime.shard import RunManifest

__all__ = ["FsckReport", "fsck_store", "fsck_cache_dir", "fsck_manifest"]


@dataclass
class FsckReport:
    """What one pass over one store found (and deleted)."""

    root: Path
    scanned: int = 0
    ok: int = 0
    corrupt: int = 0  # damaged packs deleted by this pass
    stale: int = 0  # packs under another key or layout removed by this pass
    swept_tmp: int = 0  # stale *.tmp.* files removed
    problems: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when this pass found no damage."""
        return self.corrupt == 0 and not self.problems

    def summary(self) -> str:
        text = (
            f"{self.root}: {self.scanned} files scanned, {self.ok} ok, "
            f"{self.corrupt} corrupt"
        )
        if self.stale:
            text += f", {self.stale} stale packs removed"
        if self.swept_tmp:
            text += f", {self.swept_tmp} stale tmp files swept"
        return text


def fsck_store(root: Union[str, Path]) -> FsckReport:
    """Audit one store directory, deleting damaged and stale packs.

    ``root`` must be a directory named after a store (``arrays``,
    ``evaluations``, ``traces``); any other path is reported as a
    problem and left untouched.
    """
    root = Path(root)
    report = FsckReport(root=root)
    if not root.is_dir():
        report.problems.append(f"{root} is not a directory")
        return report
    if root.name not in STORE_TYPES:
        report.problems.append(
            f"{root} is not a store directory ({', '.join(STORE_TYPES)})"
        )
        return report

    for stale in sorted(root.glob("*.tmp.*")):
        stale.unlink(missing_ok=True)
        report.swept_tmp += 1

    store = STORE_TYPES[root.name](root)
    for pack in sorted(root.glob("*.v*")):
        if not pack.suffix[2:].isdigit():
            continue
        if pack.suffix == PACK_SUFFIX:
            report.scanned += 1
            try:
                schema, entries = read_pack_index(pack)
                with open(pack, "rb") as handle:
                    for _, *entry in entries:
                        store.read_entry(handle, schema, *entry)
            except (OSError, CorruptPack) as exc:
                report.corrupt += 1
                report.problems.append(f"{pack.name}: {exc}")
                with contextlib.suppress(OSError):
                    pack.unlink(missing_ok=True)
                continue
            if schema == store.schema_tag:
                report.ok += 1
                continue
        # An intact pack under another key, or a pack in an older layout.
        pack.unlink(missing_ok=True)
        report.stale += 1
    return report


def fsck_cache_dir(cache_dir: Union[str, Path]) -> List[FsckReport]:
    """Audit a store directory, or every store under a cache root.

    A directory named after a store is audited itself; otherwise each of
    ``arrays/``, ``evaluations/`` and ``traces/`` under it.  A directory
    that is neither a store nor holds one is reported as a problem.
    """
    cache_dir = Path(cache_dir)
    stores = [cache_dir / sub for sub in STORE_TYPES if (cache_dir / sub).is_dir()]
    if cache_dir.name in STORE_TYPES or not stores:
        return [fsck_store(cache_dir)]
    return [fsck_store(store) for store in stores]


def fsck_manifest(output_dir: Union[str, Path]) -> FsckReport:
    """Audit one run-output directory: manifest parses, artifacts exist."""
    output_dir = Path(output_dir)
    report = FsckReport(root=output_dir)
    manifest_path = RunManifest.path_in(output_dir)
    if not manifest_path.exists():
        report.problems.append(f"no manifest at {manifest_path}")
        return report
    report.scanned += 1
    manifest = RunManifest.try_load(output_dir)
    if manifest is None:
        report.corrupt += 1
        report.problems.append(f"{manifest_path} is unreadable or malformed")
        return report
    report.ok += 1
    for entry in manifest.entries + manifest.retained:
        for kind, relpath in entry.artifacts.items():
            if not (output_dir / relpath).exists():
                report.problems.append(
                    f"study {entry.name!r}: missing {kind} artifact {relpath}"
                )
    return report
