"""``nvmexplorer lint`` — run the invariant linter over a source tree.

Usage (via the package CLI)::

    nvmexplorer lint [ROOT]

``ROOT`` defaults to the installed ``repro`` package directory, so a
bare ``nvmexplorer lint`` checks the code that is actually on the
path.  Exit codes mirror ``nvmexplorer fsck``: 0 when the tree is clean,
1 when violations stand, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.engine import run_lint

__all__ = ["main"]


def default_root() -> Path:
    """The installed ``repro`` package — what a bare ``lint`` checks."""
    return Path(__file__).resolve().parents[1]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nvmexplorer lint",
        description="statically check the repo's runtime invariants",
    )
    parser.add_argument(
        "root",
        nargs="?",
        default=None,
        help="package directory to lint (default: the installed repro package)",
    )
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    root = Path(args.root).resolve() if args.root else default_root()
    if not root.is_dir():
        print(f"lint: root {root} is not a directory", file=sys.stderr)
        return 2

    result = run_lint(root)
    for finding in result.findings:
        print(finding.format())
    counted = sorted({f.rule for f in result.findings})
    print(
        f"lint: {root}: {len(result.findings)} violation(s) "
        f"[{', '.join(counted) if counted else '-'}]"
    )
    return 0 if not result.findings else 1


if __name__ == "__main__":
    raise SystemExit(main())
