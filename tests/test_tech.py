"""Technology-node and delay-model tests."""

import math

import pytest

from repro.errors import ConfigError
from repro.tech import (
    SUPPORTED_NODES_NM,
    buffer_chain_delay,
    get_node,
    horowitz,
    rc_charge_time,
    rc_wire_delay,
)


class TestNodeTable:
    def test_all_supported_nodes_resolve(self):
        for node_nm in SUPPORTED_NODES_NM:
            node = get_node(node_nm)
            assert node.node_nm == node_nm
            assert node.feature_size == pytest.approx(node_nm * 1e-9)

    def test_unsupported_node_raises(self):
        with pytest.raises(ConfigError):
            get_node(5)

    def test_vdd_decreases_with_scaling(self):
        vdds = [get_node(n).vdd for n in sorted(SUPPORTED_NODES_NM)]
        assert vdds == sorted(vdds)  # smaller node -> smaller vdd

    def test_wire_resistance_grows_at_small_nodes(self):
        assert get_node(7).wire_res_per_um > get_node(130).wire_res_per_um * 10

    def test_fo4_improves_with_scaling(self):
        assert get_node(7).logic_gate_delay < get_node(130).logic_gate_delay

    def test_min_transistor_derived_quantities_positive(self):
        for node_nm in SUPPORTED_NODES_NM:
            node = get_node(node_nm)
            assert node.min_transistor_on_resistance > 0
            assert node.min_transistor_gate_cap > 0
            assert node.min_transistor_drain_cap > 0
            assert node.min_transistor_leakage > 0

    def test_wire_helpers_scale_linearly(self):
        node = get_node(22)
        assert node.wire_resistance(2e-6) == pytest.approx(
            2 * node.wire_resistance(1e-6)
        )
        assert node.wire_capacitance(2e-6) == pytest.approx(
            2 * node.wire_capacitance(1e-6)
        )

    def test_global_wires_are_faster_than_local(self):
        node = get_node(22)
        assert node.global_wire_resistance(1e-3) < node.wire_resistance(1e-3)


class TestDelayModels:
    def test_horowitz_step_input_reduces_to_rc_ln2(self):
        tau = 1e-10
        assert horowitz(0.0, tau) == pytest.approx(tau * math.log(2.0))

    def test_horowitz_slow_input_increases_delay(self):
        tau = 1e-10
        assert horowitz(5e-10, tau) > horowitz(0.0, tau)

    def test_horowitz_zero_time_constant(self):
        assert horowitz(1e-10, 0.0) == 0.0

    def test_horowitz_rejects_negative(self):
        with pytest.raises(ValueError):
            horowitz(-1e-10, 1e-10)

    def test_rc_wire_delay_is_elmore(self):
        assert rc_wire_delay(1000.0, 1e-13) == pytest.approx(0.38 * 1000 * 1e-13)

    def test_rc_charge_time_half_swing(self):
        r, c = 10e3, 10e-15
        assert rc_charge_time(r, c, 0.5) == pytest.approx(r * c * math.log(2.0))

    def test_rc_charge_time_rejects_bad_swing(self):
        with pytest.raises(ValueError):
            rc_charge_time(1e3, 1e-15, 1.0)
        with pytest.raises(ValueError):
            rc_charge_time(1e3, 1e-15, 0.0)

    def test_buffer_chain_monotone_in_load(self):
        node = get_node(22)
        small = buffer_chain_delay(node, 10e-15)
        large = buffer_chain_delay(node, 1000e-15)
        assert large.delay >= small.delay
        assert large.energy > small.energy

    def test_buffer_chain_rejects_negative_load(self):
        with pytest.raises(ValueError):
            buffer_chain_delay(get_node(22), -1e-15)

    def test_buffer_chain_tiny_load_single_stage(self):
        node = get_node(22)
        result = buffer_chain_delay(node, node.min_transistor_gate_cap / 2)
        assert result.delay == pytest.approx(node.logic_gate_delay)
