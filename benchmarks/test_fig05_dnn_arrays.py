"""Figure 5: 2 MB arrays provisioned to replace NVDLA's on-chip SRAM."""


def test_fig05_dnn_buffer_arrays(suite, print_table):
    table = suite.tables["fig05_dnn_arrays"]

    print_table(
        "Figure 5: 2 MB array read characteristics + density",
        table.sort_by("density_mbit_mm2", reverse=True),
        columns=("cell", "read_latency_ns", "read_energy_pj",
                 "density_mbit_mm2", "area_mm2"),
    )

    sram = table.where(tech="SRAM")[0]
    stt = table.where(cell="STT-optimistic")[0]
    fefet_opt = table.where(cell="FeFET-optimistic")[0]

    # Optimistic STT: several-fold density advantage over SRAM at similar
    # low read latency (the paper reports ~6x).
    assert 3.0 < stt["density_mbit_mm2"] / sram["density_mbit_mm2"] < 8.0
    assert stt["read_latency_ns"] < 2.5 * sram["read_latency_ns"]

    # Optimistic FeFET: the highest storage density of all candidates, at
    # low (SRAM-competitive) latency.
    assert fefet_opt["density_mbit_mm2"] == max(table.column("density_mbit_mm2"))
    assert fefet_opt["read_latency_ns"] < 3 * sram["read_latency_ns"]

    # Read energy splits the technologies into two tiers: FeFET high,
    # STT/PCM/RRAM low.
    low_tier = [
        r["read_energy_pj"] for r in table
        if r["flavor"] == "optimistic" and r["tech"] in ("STT", "PCM", "RRAM")
    ]
    for row in table.where(tech="FeFET"):
        assert row["read_energy_pj"] > 3 * max(low_tier)
