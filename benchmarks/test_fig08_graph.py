"""Figure 8: graph processing — power, latency, and lifetime at 8 MB."""

from repro.studies import (
    best_lifetime_technology,
    lowest_power_technology,
    worst_lifetime_technology,
)


def test_fig08_graph_traffic(suite, print_table):
    table = suite.tables["fig08_graph"]

    optimistic = table.where(flavor="optimistic")
    print_table(
        "Figure 8: 8 MB scratchpads under graph traffic (optimistic cells)",
        optimistic.sort_by("total_power_mw"),
        columns=("cell", "workload", "reads_per_s", "writes_per_s",
                 "total_power_mw", "memory_latency_s_per_s", "lifetime_years"),
        limit=40,
    )

    # Left plot: lowest-power technology flips with read traffic.
    assert lowest_power_technology(table, 1e6) == "FeFET"
    assert lowest_power_technology(table, 1.25e9) == "STT"
    mid = lowest_power_technology(table, 1e8)
    assert mid in {"RRAM", "PCM", "STT"}

    # Middle plot: STT offers the best aggregate latency; FeFET-based
    # solutions fail to match SRAM under heavy write traffic.
    heavy = table.filter(
        lambda r: r["writes_per_s"] > 1e6 and r["reads_per_s"] > 1e8
    )
    by_cell = {
        cell: min(r["memory_latency_s_per_s"] for r in heavy.where(cell=cell))
        for cell in heavy.unique("cell")
    }
    envm_best = min(
        (cell for cell in by_cell if not cell.startswith("SRAM")), key=by_cell.get
    )
    assert envm_best == "STT-optimistic"
    assert by_cell["FeFET-pessimistic"] > by_cell["SRAM-16nm"]

    # Right plot: STT's endurance gives the best lifetime, RRAM the worst.
    assert best_lifetime_technology(table) == "STT"
    assert worst_lifetime_technology(table) == "RRAM"

    # The measured BFS kernel points land inside the generic envelope.
    bfs = table.where(workload="Facebook-Graph-BFS")
    assert bfs
    assert all(1e8 < r["reads_per_s"] < 1e10 for r in bfs)
