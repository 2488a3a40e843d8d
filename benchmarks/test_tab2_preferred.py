"""Table II: preferred eNVM per DNN use case, task, and priority."""

from repro.studies import preferred_technologies


def test_tab2_preferred_technologies(suite):
    choices = preferred_technologies(
        suite.tables["fig06_dnn_continuous"], suite.tables["fig06_dnn_intermittent"]
    )

    print("\n=== Table II: preferred eNVM per use case ===")
    print(f"{'use case':14s} {'workload':34s} {'priority':20s} "
          f"{'opt winner':10s} {'pess winner':10s}")
    for c in choices:
        print(f"{c.use_case:14s} {c.workload:34s} {c.priority:20s} "
              f"{c.optimistic_winner:10s} {c.pessimistic_winner:10s}")

    assert len(choices) >= 14  # 4 continuous + 5 intermittent use cases x 2

    # High-density priority always lands on FeFET under optimistic cells
    # (Table II's entire High Density column), with CTT appearing as the
    # alternative under pessimistic assumptions (its 12 F^2 worst case
    # beats the other technologies' pessimistic cells).
    density_rows = [c for c in choices if c.priority == "high-density"]
    for c in density_rows:
        assert c.optimistic_winner == "FeFET", c
    assert any(c.pessimistic_winner == "CTT" for c in density_rows)

    # Low-power / low-energy winners come from the low-read-energy tier —
    # and several *different* eNVMs win across use cases, the paper's
    # central "no single technology is best" finding.
    low_winners = {
        c.optimistic_winner
        for c in choices
        if c.priority in ("low-power", "low-energy-per-inf")
    }
    assert low_winners <= {"PCM", "RRAM", "STT", "FeFET"}
    all_winners = {c.optimistic_winner for c in choices}
    assert len(all_winners) >= 2
