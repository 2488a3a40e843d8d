"""Figure 12: trading area efficiency for performance."""

from repro.studies import (
    efficiency_of_latency_extremes,
    low_efficiency_latency_advantage,
)


def test_fig12_area_efficiency_tradeoff(suite):
    cloud = suite.tables["fig12_area_efficiency"]
    extremes = efficiency_of_latency_extremes(cloud)

    print("\n=== Figure 12: latency-optimal vs max-efficiency organizations ===")
    for tech, values in extremes.items():
        print(
            f"{tech:6s} latency-opt: eff={values['latency_optimal_efficiency']:.3f} "
            f"tR={values['latency_optimal_ns']:.2f}ns | max-eff: "
            f"eff={values['max_efficiency']:.3f} "
            f"tR={values['max_efficiency_latency_ns']:.2f}ns"
        )

    # The paper's observation: squeezing latency means doing less
    # amortization of periphery — the latency-optimal internal organization
    # has lower area efficiency than the area-optimal one, for every tech.
    for tech, values in extremes.items():
        assert values["latency_optimal_efficiency"] < values["max_efficiency"], tech
        assert values["latency_optimal_ns"] <= values["max_efficiency_latency_ns"], tech

    # The full organization cloud renders with both groups populated.  The
    # paper finds low-efficiency organizations faster; across the whole
    # cloud this model measures them slower (README.md, "Known
    # deviations"), and that measured direction is asserted.
    medians = low_efficiency_latency_advantage(cloud)
    print(f"\ncloud medians: {medians}")
    assert len(cloud) > 100
    assert medians["low_eff_median"] > 0 and medians["high_eff_median"] > 0
    assert medians["low_eff_median"] > medians["high_eff_median"]
