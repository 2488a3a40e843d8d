"""Cache and manifest integrity audit — the ``nvmexplorer fsck`` command.

A cache directory accumulates damage the sweeps themselves only detect
lazily: entries truncated by a crashed writer, bit-flips from a bad
disk, stale ``*.tmp.*`` files leaked by a run that died between write
and rename, and a ``quarantine/`` backlog of entries the loaders moved
aside.  ``fsck`` makes that state explicit and repairs what it can:

- verifies every entry's JSON shape, recorded fingerprint (must match
  its filename), and content checksum (entries predating checksums are
  reported as *legacy* but kept);
- moves entries that fail verification to ``<store>/quarantine/``,
  exactly like the runtime loaders do — never deleted, never silently
  overwritten;
- sweeps stale ``*.tmp.*`` files;
- optionally re-materializes missing entries from a sibling cache dir
  (``--repair-from``): any fingerprint present and valid in the sibling
  but absent here is copied in — including fingerprints stranded in
  quarantine;
- audits run manifests (``--manifest``): the manifest must parse and
  every recorded artifact must exist on disk.

Exit status: 0 when every store verified clean (a non-empty quarantine
backlog alone is *not* dirty — it is an archive), 1 when this pass
found corruption or unrepaired damage.  Running fsck twice therefore
converges: the second pass exits 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.runtime.cache import QUARANTINE_SUBDIR, _tmp_path_for
from repro.runtime.fingerprint import canonical_json
from repro.runtime.shard import RunManifest

__all__ = ["FsckReport", "fsck_store", "fsck_cache_dir", "fsck_manifest", "main"]

#: Store subdirectories fsck knows about inside a unified cache root.
_KNOWN_STORES = ("arrays", "evaluations", "traces", "clouds")


@dataclass
class FsckReport:
    """What one pass over one store found (and fixed)."""

    root: Path
    scanned: int = 0
    ok: int = 0
    legacy: int = 0  # valid entries written before checksums existed
    corrupt: int = 0  # entries quarantined by this pass
    repaired: int = 0  # entries re-materialized from the sibling cache
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
            f"{self.root}: {self.scanned} entries scanned, {self.ok} ok, "
            f"{self.corrupt} corrupt"
        )
        if self.legacy:
            text += f", {self.legacy} legacy (no checksum)"
        if self.repaired:
            text += f", {self.repaired} repaired"
        if self.swept_tmp:
            text += f", {self.swept_tmp} stale tmp files swept"
        if self.quarantine_backlog:
            text += f", {self.quarantine_backlog} in quarantine"
        return text


def _entry_fingerprint(path: Path) -> str:
    """The fingerprint a store file claims via its name.

    Quarantined copies may carry a uniquifying suffix
    (``<fp>.json.<n>``), so take everything before the first ``.json``.
    """
    return path.name.split(".json", 1)[0]


def _verify_entry(path: Path) -> tuple[str, str]:
    """Verify one entry file.

    Returns ``(status, reason)`` with status ``"ok"``, ``"legacy"`` (valid
    but checksum-less), or ``"corrupt"``.
    """
    try:
        payload = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError):
        return "corrupt", "unreadable or undecodable bytes"
    except json.JSONDecodeError:
        return "corrupt", "invalid JSON"
    if not isinstance(payload, dict):
        return "corrupt", "payload is not an object"
    if "schema" not in payload or "result" not in payload:
        return "corrupt", "missing schema/result fields"
    stored_fp = payload.get("fingerprint")
    if stored_fp is not None and stored_fp != _entry_fingerprint(path):
        return "corrupt", "recorded fingerprint does not match filename"
    checksum = payload.get("checksum")
    if checksum is None:
        return "legacy", "entry predates content checksums"
    actual = hashlib.sha256(
        canonical_json(payload["result"]).encode("utf-8")
    ).hexdigest()
    if checksum != actual:
        return "corrupt", "checksum mismatch"
    return "ok", ""


def _quarantine_entry(root: Path, path: Path) -> None:
    qdir = root / QUARANTINE_SUBDIR
    qdir.mkdir(parents=True, exist_ok=True)
    dest = qdir / path.name
    suffix = 0
    while dest.exists():
        suffix += 1
        dest = qdir / f"{path.name}.{suffix}"
    os.replace(path, dest)


def fsck_store(
    root: Union[str, Path],
    *,
    repair_from: Optional[Union[str, Path]] = None,
) -> FsckReport:
    """Audit (and repair) one content-addressed store directory."""
    root = Path(root)
    report = FsckReport(root=root)
    if not root.is_dir():
        report.problems.append(f"{root} is not a directory")
        return report

    for stale in sorted(root.glob("??/*.tmp.*")):
        stale.unlink(missing_ok=True)
        report.swept_tmp += 1

    for entry in sorted(root.glob("??/*.json")):
        report.scanned += 1
        status, reason = _verify_entry(entry)
        if status == "corrupt":
            report.corrupt += 1
            report.problems.append(f"{entry.relative_to(root)}: {reason}")
            _quarantine_entry(root, entry)
        elif status == "legacy":
            report.legacy += 1
            report.ok += 1
        else:
            report.ok += 1

    if repair_from is not None:
        sibling = Path(repair_from)
        # Re-materialize every fingerprint we lack (including those this
        # or earlier passes quarantined) from a valid sibling entry.
        missing: Dict[str, Path] = {}
        qdir = root / QUARANTINE_SUBDIR
        if qdir.is_dir():
            # Sorted so the fingerprint -> exemplar-file choice (and with
            # it the report) is stable across filesystems.
            for damaged in sorted(qdir.iterdir()):
                fp = _entry_fingerprint(damaged)
                if fp:
                    missing.setdefault(fp, damaged)
        for fp in sorted(missing):
            target = root / fp[:2] / f"{fp}.json"
            if target.exists():
                continue
            source = sibling / fp[:2] / f"{fp}.json"
            if not source.exists():
                continue
            if _verify_entry(source)[0] == "corrupt":
                continue
            target.parent.mkdir(parents=True, exist_ok=True)
            tmp = _tmp_path_for(target)
            try:
                tmp.write_bytes(source.read_bytes())
                os.replace(tmp, target)
            except BaseException:
                tmp.unlink(missing_ok=True)
                raise
            report.repaired += 1

    qdir = root / QUARANTINE_SUBDIR
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
    ``traces/``, ``clouds/``); a directory that itself fans out into
    two-hex-digit subdirs is treated as a single bare store.  ``repair_from`` names a
    sibling cache root with the same layout.
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
            "entry checksums, quarantine corrupt files, sweep stale tmp "
            "files, and re-materialize missing entries from a sibling cache."
        ),
    )
    parser.add_argument(
        "cache_dir", nargs="?", default=None,
        help="unified cache root to audit (arrays/, evaluations/, traces/)",
    )
    parser.add_argument(
        "--repair-from", metavar="DIR", default=None,
        help="sibling cache root to re-materialize missing entries from",
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
