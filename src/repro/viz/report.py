"""Markdown report generation for studies.

Produces self-contained markdown documents (ASCII charts in code fences,
the winners and a bounded sample of the rows) from study result tables —
the offline stand-in for sharing a dashboard link.  The study's CSV is
the full artifact.
"""

from __future__ import annotations

from typing import Optional

from repro.results.table import ResultTable
from repro.viz.dashboard import (
    array_view,
    latency_view,
    lifetime_view,
    power_view,
)

#: The dashboard views every report tries, in order; a view with no data
#: is left out.
VIEWS = (
    ("power", power_view),
    ("latency", latency_view),
    ("lifetime", lifetime_view),
    ("array", array_view),
)

#: The column whose groups the winners table ranks.
GROUP_COLUMN = "workload"

#: Most data rows a report embeds; a larger table shows an evenly strided
#: sample of at most this many rows.
REPORT_ROWS = 250


def _fence(text: str) -> str:
    return "```\n" + text + "\n```"


def study_report(
    title: str,
    table: ResultTable,
    description: str = "",
    winner_column: Optional[str] = "total_power_mw",
    figure: Optional[str] = None,
) -> str:
    """Render a study into a markdown report.

    Includes the :data:`VIEWS` that have data, a table of the row with the
    lowest ``winner_column`` per :data:`GROUP_COLUMN` value when
    ``winner_column`` is set and the table has that column, and the data
    as a markdown table: all of it up to ``REPORT_ROWS`` rows, else rows
    ``0, s, 2s, ...`` with ``s = ceil(len(table) / REPORT_ROWS)`` under
    the full table's columns.
    ``figure`` tags the paper figure the study reproduces.
    """
    sections: list[str] = [f"# {title}", ""]
    if figure:
        sections += [f"*Reproduces paper {figure}.*", ""]
    if description:
        sections += [description, ""]
    sections.append(f"*{len(table)} evaluation rows.*\n")

    for name, builder in VIEWS:
        rendered = builder(table)
        if "(no data)" in rendered:
            continue
        sections += [f"## {name.title()} view", "", _fence(rendered), ""]

    if winner_column and GROUP_COLUMN in table.columns:
        sections += ["## Winners", ""]
        winners = {}
        for group in table.unique(GROUP_COLUMN):
            rows = table.where(**{GROUP_COLUMN: group}).filter(
                lambda r: r.get(winner_column) is not None
            )
            if rows:
                best = rows.min_by(winner_column)
                winners[str(group)] = (
                    f"{best.get('cell', '?')} ({best[winner_column]:.4g})"
                )
        lines = [f"| {GROUP_COLUMN} | winner ({winner_column}) |", "|---|---|"]
        lines += [f"| {g} | {w} |" for g, w in winners.items()]
        sections += lines + [""]

    sections += ["## Data", ""]
    if len(table) > REPORT_ROWS:
        stride = -(-len(table) // REPORT_ROWS)
        columns = table.columns
        shown = ResultTable(
            {c: table[i].get(c) for c in columns}
            for i in range(0, len(table), stride)
        )
        note = (f"*{len(shown)} of {len(table)} rows shown (rows 0, {stride}, "
                f"{2 * stride}, ...); the study's CSV holds the full table.*")
        sections += [note, ""]
        table = shown
    sections += [table.to_markdown(), ""]
    return "\n".join(sections)

