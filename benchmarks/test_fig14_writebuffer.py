"""Figure 14: write buffering changes the performance landscape."""

from repro.studies import performant_technologies


def test_fig14_write_buffering(suite, print_table):
    table = suite.tables["fig14_writebuffer"]

    print_table(
        "Figure 14: write-buffer scenarios (Facebook-Graph-BFS + SPEC)",
        table.where(flavor="optimistic").sort_by("scenario"),
        columns=("base_workload", "scenario", "cell", "total_power_mw",
                 "memory_latency_s_per_s", "lifetime_years"),
        limit=60,
    )

    budget = 0.45  # "performant": latency comparable to the fast tier

    # Buffering strictly expands the set of performant technologies for the
    # high-write-traffic graph workload.
    before = performant_technologies(
        table, "Facebook-Graph-BFS", "no-buffer", latency_budget=budget
    )
    masked = performant_technologies(
        table, "Facebook-Graph-BFS", "mask-only", latency_budget=budget
    )
    combined = performant_technologies(
        table, "Facebook-Graph-BFS", "mask+reduce50", latency_budget=budget
    )
    print(f"\nperformant @{budget}: no-buffer={sorted(before)} "
          f"mask-only={sorted(masked)} mask+reduce50={sorted(combined)}")
    assert before <= masked <= combined
    assert "FeFET" not in before
    assert "FeFET" in combined

    # STT remains the lowest-power eNVM for this high-traffic workload.
    rows = table.where(base_workload="Facebook-Graph-BFS",
                       scenario="mask+reduce50", flavor="optimistic")
    assert rows.min_by("total_power_mw")["tech"] == "STT"

    # Traffic reduction (unlike pure masking) extends projected lifetime.
    plain = table.where(base_workload="605.mcf_s", scenario="no-buffer",
                        cell="RRAM-optimistic")[0]
    reduced = table.where(base_workload="605.mcf_s", scenario="reduce50",
                          cell="RRAM-optimistic")[0]
    assert reduced["lifetime_years"] > 1.9 * plain["lifetime_years"]
