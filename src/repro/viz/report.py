"""Markdown report generation for studies.

Produces self-contained markdown documents (ASCII charts in code fences,
the winners and a bounded sample of the rows) from study result tables —
the offline stand-in for sharing a dashboard link.  The study's CSV is
the full artifact.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.results.table import ResultTable
from repro.viz.dashboard import (
    array_view,
    latency_view,
    lifetime_view,
    power_view,
)

#: Most data rows a report embeds; a larger table shows an evenly strided
#: sample of at most this many rows.
REPORT_ROWS = 250


def _fence(text: str) -> str:
    return "```\n" + text + "\n```"


def study_report(
    title: str,
    table: ResultTable,
    description: str = "",
    include_views: Sequence[str] = ("power", "latency", "lifetime", "array"),
    winner_column: Optional[str] = "total_power_mw",
    group_column: str = "workload",
    figure: Optional[str] = None,
) -> str:
    """Render a study into a markdown report.

    Includes the standard dashboard views, a winners-per-group table when
    ``winner_column`` is set, and the data as a markdown table: all of it
    up to ``REPORT_ROWS`` rows, else rows ``0, s, 2s, ...`` with
    ``s = ceil(len(table) / REPORT_ROWS)`` under the full table's columns.
    ``figure`` tags the paper figure the study reproduces.
    """
    sections: list[str] = [f"# {title}", ""]
    if figure:
        sections += [f"*Reproduces paper {figure}.*", ""]
    if description:
        sections += [description, ""]
    sections.append(f"*{len(table)} evaluation rows.*\n")

    view_builders = {
        "power": power_view,
        "latency": latency_view,
        "lifetime": lifetime_view,
        "array": array_view,
    }
    for name in include_views:
        builder = view_builders.get(name)
        if builder is None:
            continue
        rendered = builder(table)
        if "(no data)" in rendered:
            continue
        sections += [f"## {name.title()} view", "", _fence(rendered), ""]

    if winner_column and group_column in table.columns:
        sections += ["## Winners", ""]
        winners = {}
        for group in table.unique(group_column):
            rows = table.where(**{group_column: group}).filter(
                lambda r: r.get(winner_column) is not None
            )
            if rows:
                best = rows.min_by(winner_column)
                winners[str(group)] = (
                    f"{best.get('cell', '?')} ({best[winner_column]:.4g})"
                )
        lines = [f"| {group_column} | winner ({winner_column}) |", "|---|---|"]
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

