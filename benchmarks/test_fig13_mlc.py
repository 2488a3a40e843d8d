"""Figure 13: SLC vs MLC storage under fault injection (ResNet18 proxy)."""

from repro.studies import acceptable


def test_fig13_mlc_reliability(suite, print_table):
    table = suite.tables["fig13_mlc"]

    print_table(
        "Figure 13: SLC vs 2-bit MLC, density vs fault-injected accuracy",
        table.sort_by("cell"),
        columns=("cell", "bits_per_cell", "capacity_mb", "cell_error_rate",
                 "accuracy", "accuracy_ok", "density_mbit_mm2"),
        limit=60,
    )

    ok = acceptable(table)

    # SLC storage keeps accuracy for every modelled technology.
    assert all(r["accuracy_ok"] for r in table.where(bits_per_cell=1))

    # MLC RRAM stays accurate and is denser + more performant than SLC RRAM.
    rram_slc = table.where(tech="RRAM", bits_per_cell=1, capacity_mb=8.0)[0]
    rram_mlc = table.where(tech="RRAM", bits_per_cell=2, capacity_mb=8.0)[0]
    assert rram_mlc["accuracy_ok"]
    assert rram_mlc["density_mbit_mm2"] > 1.5 * rram_slc["density_mbit_mm2"]

    # MLC CTT is robust too (the paper verified CTT as well).
    ctt_mlc = table.where(tech="CTT", bits_per_cell=2, capacity_mb=8.0)[0]
    assert ctt_mlc["accuracy_ok"]

    # MLC FeFET is only sufficiently reliable for larger cell sizes:
    # small cells fail, large cells pass.
    fefet_small = table.where(cell="FeFET-2F2", bits_per_cell=2, capacity_mb=8.0)[0]
    fefet_large = table.where(cell="FeFET-103F2", bits_per_cell=2, capacity_mb=8.0)[0]
    assert not fefet_small["accuracy_ok"]
    assert fefet_large["accuracy_ok"]

    # The acceptability frontier sits below 40 F^2: the 40 and 103 F^2
    # cells pass while the 2 F^2 cell fails decisively.
    verdicts = {
        r["cell"]: r["accuracy_ok"]
        for r in table.where(tech="FeFET", bits_per_cell=2, capacity_mb=8.0)
    }
    assert verdicts["FeFET-40F2"] and verdicts["FeFET-103F2"]
    assert not verdicts["FeFET-2F2"]
    assert 0 < len(ok) < len(table)
