"""Cache and manifest integrity audit — the ``nvmexplorer fsck`` command.

A cache directory accumulates damage the sweeps themselves only detect
lazily: packs truncated or bit-flipped on disk, stale ``*.tmp.*`` files
leaked by a run that died between write and rename, and a
``quarantine/`` backlog of packs the loaders moved aside.  ``fsck`` makes
that state explicit and repairs what it can:

- verifies every pack — footer, index, name, and each body's checksum
  and JSON — with :func:`repro.runtime.cache.verify_pack`, through the
  same reader the loaders use; ``.v2`` and ``.json`` entries of the older
  one-file-per-entry layout (under two-hex-digit directories), which no
  loader reads, are reported as *legacy* and kept unread;
- moves packs that fail verification to ``<store>/quarantine/``,
  exactly like the runtime loaders do — never deleted, never silently
  overwritten;
- sweeps stale ``*.tmp.*`` files;
- optionally re-materializes quarantined packs from a sibling cache dir
  (``--repair-from``): a pack missing here whose same-named copy in the
  sibling verifies is copied in;
- audits run manifests (``--manifest``): the manifest must parse and
  every recorded artifact must exist on disk.

Exit status: 0 when every store verified clean (a non-empty quarantine
backlog alone is *not* dirty — it is an archive), 1 when this pass
found corruption or unrepaired damage.  Running fsck twice therefore
converges: the second pass exits 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.runtime.cache import (
    LEGACY_ENTRY_SUFFIXES,
    PACK_SUFFIX,
    QUARANTINE_SUBDIR,
    CorruptPack,
    atomic_write_bytes,
    quarantine_file,
    verify_pack,
)
from repro.runtime.shard import RunManifest

__all__ = ["FsckReport", "fsck_store", "fsck_cache_dir", "fsck_manifest", "main"]

#: Store subdirectories fsck knows about inside a unified cache root.
_KNOWN_STORES = ("arrays", "evaluations", "traces")


@dataclass
class FsckReport:
    """What one pass over one store found (and fixed)."""

    root: Path
    scanned: int = 0
    ok: int = 0
    legacy: int = 0  # older-layout entries: never read by the loaders, kept
    corrupt: int = 0  # packs quarantined by this pass
    repaired: int = 0  # packs re-materialized from the sibling cache
    swept_tmp: int = 0  # stale *.tmp.* files removed
    quarantine_backlog: int = 0  # files sitting in quarantine/ after the pass
    problems: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when this pass found no damage (backlog is an archive)."""
        return self.corrupt == 0 and not self.problems

    def to_dict(self) -> Dict[str, Any]:
        return {
            "root": str(self.root),
            "scanned": self.scanned,
            "ok": self.ok,
            "legacy": self.legacy,
            "corrupt": self.corrupt,
            "repaired": self.repaired,
            "swept_tmp": self.swept_tmp,
            "quarantine_backlog": self.quarantine_backlog,
            "problems": list(self.problems),
        }

    def summary(self) -> str:
        text = (
            f"{self.root}: {self.scanned} files scanned, {self.ok} ok, "
            f"{self.corrupt} corrupt"
        )
        if self.legacy:
            text += f", {self.legacy} legacy (pre-v3 entries, unread)"
        if self.repaired:
            text += f", {self.repaired} repaired"
        if self.swept_tmp:
            text += f", {self.swept_tmp} stale tmp files swept"
        if self.quarantine_backlog:
            text += f", {self.quarantine_backlog} in quarantine"
        return text


def _pack_problem(path: Path) -> Optional[str]:
    """Why one pack fails verification, or ``None`` when it passes."""
    try:
        verify_pack(path)
    except OSError:
        return "unreadable pack file"
    except CorruptPack as exc:
        return str(exc)
    return None


def _quarantined_pack_names(qdir: Path) -> List[str]:
    """The pack file names in quarantine, uniquifying suffixes dropped."""
    if not qdir.is_dir():
        return []
    names = set()
    for damaged in qdir.iterdir():
        stem, _, rest = damaged.name.partition(".")
        if rest.split(".", 1)[0] == PACK_SUFFIX[1:]:
            names.add(stem + PACK_SUFFIX)
    return sorted(names)


def fsck_store(
    root: Union[str, Path],
    *,
    repair_from: Optional[Union[str, Path]] = None,
) -> FsckReport:
    """Audit (and repair) one pack store directory."""
    root = Path(root)
    report = FsckReport(root=root)
    if not root.is_dir():
        report.problems.append(f"{root} is not a directory")
        return report

    for stale in sorted(root.glob("*.tmp.*")):
        stale.unlink(missing_ok=True)
        report.swept_tmp += 1

    for pack in sorted(root.glob(f"*{PACK_SUFFIX}")):
        report.scanned += 1
        reason = _pack_problem(pack)
        if reason is None:
            report.ok += 1
        else:
            report.corrupt += 1
            report.problems.append(f"{pack.name}: {reason}")
            quarantine_file(root, pack)
    report.legacy = sum(
        1 for entry in root.glob("??/*") if entry.suffix in LEGACY_ENTRY_SUFFIXES
    )
    report.scanned += report.legacy

    qdir = root / QUARANTINE_SUBDIR
    if repair_from is not None:
        sibling = Path(repair_from)
        # Re-materialize every quarantined pack (from this pass or an
        # earlier one) that is still missing, from a sibling copy that
        # verifies.
        for name in _quarantined_pack_names(qdir):
            target, source = root / name, sibling / name
            if target.exists() or not source.exists() or _pack_problem(source):
                continue
            atomic_write_bytes(target, source.read_bytes())
            report.repaired += 1

    if qdir.is_dir():
        report.quarantine_backlog = len(list(qdir.iterdir()))
    return report


def fsck_cache_dir(
    cache_dir: Union[str, Path],
    *,
    repair_from: Optional[Union[str, Path]] = None,
) -> List[FsckReport]:
    """Audit every store under a unified cache root.

    Recognizes the standard layout (``arrays/``, ``evaluations/``,
    ``traces/``); a directory holding none of them is treated as a
    single bare store.  ``repair_from`` names a sibling cache root with
    the same layout.
    """
    cache_dir = Path(cache_dir)
    sibling = Path(repair_from) if repair_from is not None else None
    reports: List[FsckReport] = []
    stores = [sub for sub in _KNOWN_STORES if (cache_dir / sub).is_dir()]
    if stores:
        for sub in stores:
            reports.append(
                fsck_store(
                    cache_dir / sub,
                    repair_from=(sibling / sub) if sibling is not None else None,
                )
            )
    else:
        reports.append(fsck_store(cache_dir, repair_from=sibling))
    return reports


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
            "Audit and repair cache directories and run manifests: verify "
            "pack checksums, quarantine corrupt packs, sweep stale tmp "
            "files, and re-materialize missing packs from a sibling cache."
        ),
    )
    parser.add_argument(
        "cache_dir", nargs="?", default=None,
        help="unified cache root to audit (arrays/, evaluations/, traces/)",
    )
    parser.add_argument(
        "--repair-from", metavar="DIR", default=None,
        help="sibling cache root to re-materialize quarantined packs from",
    )
    parser.add_argument(
        "--manifest", metavar="DIR", action="append", default=[],
        help="run-output directory whose manifest and artifacts to audit "
             "(repeatable)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit one JSON report object instead of text",
    )
    args = parser.parse_args(argv)
    if args.cache_dir is None and not args.manifest:
        parser.error("nothing to audit: give a cache_dir and/or --manifest")

    reports: List[FsckReport] = []
    if args.cache_dir is not None:
        reports.extend(fsck_cache_dir(args.cache_dir, repair_from=args.repair_from))
    for output_dir in args.manifest:
        reports.append(fsck_manifest(output_dir))

    if args.json:
        print(json.dumps({"reports": [r.to_dict() for r in reports]}, indent=2))
    else:
        for report in reports:
            print(report.summary())
            for problem in report.problems:
                print(f"  ! {problem}")
    return 0 if all(report.clean for report in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
