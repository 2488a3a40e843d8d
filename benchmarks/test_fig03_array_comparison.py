"""Figure 3: 4 MB arrays under various optimization targets, all techs."""


def test_fig03_optimization_targets(suite, print_table):
    table = suite.tables["fig03_array_targets"]

    print_table(
        "Figure 3: 4 MB arrays x optimization targets",
        table.sort_by("cell"),
        columns=("cell", "target", "read_latency_ns", "read_energy_pj",
                 "write_latency_ns", "write_energy_pj", "area_mm2"),
        limit=80,
    )

    sram = table.where(tech="SRAM", target="ReadEDP")[0]

    # Every optimistic eNVM's read latency is SRAM-competitive (within ~3x)
    # except pessimistic PCM, which is far slower (the paper's only outlier).
    for row in table.where(target="ReadEDP"):
        if row["tech"] == "SRAM":
            continue
        if row["cell"] == "PCM-pessimistic":
            assert row["read_latency_ns"] > 20 * sram["read_latency_ns"]
        elif row["flavor"] == "optimistic":
            assert row["read_latency_ns"] < 3 * sram["read_latency_ns"], row["cell"]

    # Write characteristics vary by orders of magnitude across eNVMs.
    writes = [r["write_latency_ns"] for r in table.where(target="WriteEDP")
              if r["tech"] != "SRAM"]
    assert max(writes) / min(writes) > 1e3

    # Pessimistic PCM write latency exceeds 10 us (the value the paper
    # omits from its plot for clarity).
    pcm_pess = table.where(cell="PCM-pessimistic", target="WriteEDP")[0]
    assert pcm_pess["write_latency_ns"] > 10_000
