"""Figure 11: back-gated FeFETs unlock performant graph processing."""


def test_fig11_back_gated_fefet(suite, print_table):
    table = suite.tables["fig11_bg_fefet"]

    print_table(
        "Figure 11: BG-FeFET vs standard FeFET vs SRAM (8 MB)",
        table.sort_by("cell"),
        columns=("cell", "workload", "total_power_mw",
                 "memory_latency_s_per_s", "write_latency_ns",
                 "read_energy_pj", "density_mbit_mm2"),
        limit=40,
    )

    bg = table.where(cell="FeFET-back-gated")
    opt = table.where(cell="FeFET-optimistic")
    pess = table.where(cell="FeFET-pessimistic")
    sram = table.where(cell="SRAM-16nm")

    # Array-level trade: BG-FeFET gives up a little density and read energy
    # versus the best standard FeFET...
    assert bg[0]["density_mbit_mm2"] < opt[0]["density_mbit_mm2"]

    # ...but its 10 ns writes close the write-latency gap by >5x.
    assert bg[0]["write_latency_ns"] < opt[0]["write_latency_ns"] / 5

    # Application latency becomes SRAM-comparable across write-heavy traffic
    # where previous FeFETs fall short.
    def worst_latency(rows):
        return max(r["memory_latency_s_per_s"] for r in rows)

    assert worst_latency(bg) < 1.5 * worst_latency(sram)
    assert worst_latency(pess) > 3 * worst_latency(sram)

    # BG-FeFET delivers the lowest operating power over most of the read
    # range, including the Wikipedia-BFS example.
    wiki = table.where(workload="Wikipedia-BFS")
    best = wiki.min_by("total_power_mw")
    assert best["cell"] == "FeFET-back-gated"
