"""Figure 9: SPEC CPU2017 traffic against 16 MB eNVM LLCs."""

from repro.studies import feasible, winner_per_benchmark


def test_fig09_spec_llc(suite, print_table):
    table = suite.tables["fig09_spec_llc"]

    ok = feasible(table)
    print_table(
        "Figure 9: 16 MB LLC under SPEC2017 (feasible, optimistic cells)",
        ok.where(flavor="optimistic").sort_by("workload"),
        columns=("workload", "cell", "total_power_mw",
                 "memory_latency_s_per_s", "lifetime_years"),
        limit=60,
    )

    # Every plotted point meets the benchmark's read/write demand.
    assert all(r["feasible"] for r in ok)

    # Power winner depends on traffic: dense technologies at low rates.
    winners = winner_per_benchmark(table)
    print("\nper-benchmark power winners:", winners)
    assert winners["648.exchange2_s"] in {"RRAM", "FeFET"}
    assert len(set(winners.values())) >= 2

    # Latency: STT's fast writes win write-heavy benchmarks; PCM and FeFET
    # do not.
    lbm = ok.where(workload="619.lbm_s", flavor="optimistic")
    best_latency = lbm.min_by("memory_latency_s_per_s")
    assert best_latency["tech"] == "STT"
    by_tech = {r["tech"]: r["memory_latency_s_per_s"] for r in lbm}
    assert by_tech["STT"] < by_tech.get("PCM", float("inf"))
    assert by_tech["STT"] < by_tech.get("FeFET", float("inf"))

    # Lifetime: STT effectively unlimited; RRAM collapses below a year —
    # "RRAM does not appear viable as an LLC".
    lifetimes = {
        r["tech"]: r["lifetime_years"] for r in lbm
    }
    assert lifetimes["RRAM"] is not None and lifetimes["RRAM"] < 1.0
    assert lifetimes["STT"] is None or lifetimes["STT"] > 100.0
