"""Cache and manifest integrity audit — the ``nvmexplorer fsck`` command.

A cache directory accumulates damage the sweeps themselves only detect
lazily: packs truncated or bit-flipped on disk, stale ``*.tmp.*`` files
leaked by a run that died between write and rename, and a
``quarantine/`` backlog of packs the loaders moved aside.  ``fsck`` makes
that state explicit:

- verifies every pack — its key and entry lines, name, and each body's
  checksum and JSON — with :func:`repro.runtime.cache.verify_pack`,
  through the same reader the loaders use;
- runs the store's decoder, chosen by the store's directory name
  (``arrays``, ``evaluations``, ``traces``), on every body of each pack
  written under the store's current key, so a pack that a load would
  quarantine is reported corrupt;
- deletes each intact pack of a named store written under another key:
  every load misses it, and after each edit to a store's sources the
  old packs would otherwise pile up;
- deletes each flat pack of a named store in an older layout
  (``*.v3`` and before): no loader reads it;
- moves packs that fail verification to ``<store>/quarantine/``,
  exactly like the runtime loaders do — never deleted, never silently
  overwritten;
- sweeps stale ``*.tmp.*`` files;
- audits run manifests (``--manifest``): the manifest must parse and
  every recorded artifact must exist on disk.

Exit status: 0 when every store verified clean (a non-empty quarantine
backlog alone is *not* dirty — it is an archive), 1 when this pass
found corruption or a manifest problem (stale packs are not damage).
Running fsck twice on a cache therefore converges: the second pass
exits 0 and removes nothing.  The quarantined results are recomputed
and re-packed by the next run that needs them.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.runtime.cache import (
    PACK_SUFFIX,
    QUARANTINE_SUBDIR,
    STORE_TYPES,
    CorruptPack,
    quarantine_file,
    verify_pack,
)
from repro.runtime.fingerprint import store_key
from repro.runtime.shard import RunManifest

__all__ = ["FsckReport", "fsck_store", "fsck_cache_dir", "fsck_manifest", "main"]


@dataclass
class FsckReport:
    """What one pass over one store found (and moved aside)."""

    root: Path
    scanned: int = 0
    ok: int = 0
    corrupt: int = 0  # packs quarantined by this pass
    stale: int = 0  # packs under another key or layout removed by this pass
    swept_tmp: int = 0  # stale *.tmp.* files removed
    quarantine_backlog: int = 0  # files sitting in quarantine/ after the pass
    problems: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when this pass found no damage (backlog is an archive)."""
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
        if self.quarantine_backlog:
            text += f", {self.quarantine_backlog} in quarantine"
        return text


def fsck_store(root: Union[str, Path]) -> FsckReport:
    """Audit one pack store directory, quarantining packs that fail.

    A directory named after a store (``arrays``, ``evaluations``,
    ``traces``) also has the bodies of its current-key packs decoded,
    and its packs under any other key or in an older layout deleted.
    """
    root = Path(root)
    report = FsckReport(root=root)
    if not root.is_dir():
        report.problems.append(f"{root} is not a directory")
        return report

    for stale in sorted(root.glob("*.tmp.*")):
        stale.unlink(missing_ok=True)
        report.swept_tmp += 1

    store = STORE_TYPES.get(root.name)
    key = None if store is None else store_key(store.store_name)
    decoders = {} if store is None else {key: store._decode}
    for pack in sorted(root.glob("*.v*")):
        if pack.suffix != PACK_SUFFIX:
            if store is not None and pack.suffix[2:].isdigit():
                pack.unlink(missing_ok=True)
                report.stale += 1
            continue
        report.scanned += 1
        try:
            schema, _ = verify_pack(pack, decoders)
        except OSError:
            reason = "unreadable pack file"
        except CorruptPack as exc:
            reason = str(exc)
        else:
            if store is not None and schema != key:
                pack.unlink(missing_ok=True)
                report.stale += 1
            else:
                report.ok += 1
            continue
        report.corrupt += 1
        report.problems.append(f"{pack.name}: {reason}")
        quarantine_file(root, pack)

    qdir = root / QUARANTINE_SUBDIR
    if qdir.is_dir():
        report.quarantine_backlog = len(list(qdir.iterdir()))
    return report


def fsck_cache_dir(cache_dir: Union[str, Path]) -> List[FsckReport]:
    """Audit every store under a unified cache root.

    Recognizes the standard layout (``arrays/``, ``evaluations/``,
    ``traces/``); a directory holding none of them is treated as a
    single bare store.
    """
    cache_dir = Path(cache_dir)
    stores = [sub for sub in STORE_TYPES if (cache_dir / sub).is_dir()]
    if not stores:
        return [fsck_store(cache_dir)]
    return [fsck_store(cache_dir / sub) for sub in stores]


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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nvmexplorer fsck",
        description=(
            "Audit cache directories and run manifests: verify pack "
            "checksums, quarantine corrupt packs, sweep stale tmp files, "
            "and check that every manifest artifact exists."
        ),
    )
    parser.add_argument(
        "cache_dir", nargs="?", default=None,
        help="unified cache root to audit (arrays/, evaluations/, traces/)",
    )
    parser.add_argument(
        "--manifest", metavar="DIR", action="append", default=[],
        help="run-output directory whose manifest and artifacts to audit "
             "(repeatable)",
    )
    args = parser.parse_args(argv)
    if args.cache_dir is None and not args.manifest:
        parser.error("nothing to audit: give a cache_dir and/or --manifest")

    reports: List[FsckReport] = []
    if args.cache_dir is not None:
        reports.extend(fsck_cache_dir(args.cache_dir))
    for output_dir in args.manifest:
        reports.append(fsck_manifest(output_dir))

    for report in reports:
        print(report.summary())
        for problem in report.problems:
            print(f"  ! {problem}")
    return 0 if all(report.clean for report in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
