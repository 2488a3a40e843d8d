"""Shared helpers for the reproduction benches.

Each bench regenerates one of the paper's tables or figures: it prints
the rows/series the paper reports and asserts the qualitative "shape"
contract (who wins, by roughly what factor, where crossovers fall).  A
bench for a registered study reads that study's table from the one
session suite run (the root ``conftest.py``'s ``suite`` fixture), the
same table its CSV is rendered from; perfbench's per-study
``studies.<name>_s`` is the study's timing.  Fig. 1, Fig. 4, Fig. 7 and
Table I are not registered studies, so their benches compute their own.
README.md's "Known deviations" section records where this model's
outcome differs from the paper's.
"""

from __future__ import annotations

import pytest


def _print_table(title: str, table, columns=None, limit=40) -> None:
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


@pytest.fixture(scope="session")
def print_table():
    """:func:`_print_table`, for the benches (a root ``conftest.py``
    shadows ``from conftest import ...``)."""
    return _print_table
