"""Shared helpers for the reproduction benches.

Each bench regenerates one of the paper's tables or figures: it times the
study via pytest-benchmark, prints the rows/series the paper reports, and
asserts the qualitative "shape" contract (who wins, by roughly what factor,
where crossovers fall).  README.md's "Known deviations" section records
where this model's outcome differs from the paper's.
"""

from __future__ import annotations


def print_table(title: str, table, columns=None, limit=40) -> None:
    """Print a result table like the paper's CSV artifact rows."""
    print(f"\n=== {title} ===")
    if columns:
        table = table.select(*columns)
    text = table.to_markdown()
    lines = text.splitlines()
    for line in lines[: limit + 2]:
        print(line)
    if len(lines) > limit + 2:
        print(f"... ({len(lines) - 2} rows total)")
