"""Batch characterization engine: parity with the scalar nvsim model.

The structure-of-arrays engine (:mod:`repro.nvsim.batch`) must be
*indistinguishable* from the scalar reference path — the same candidate
lanes as :func:`~repro.nvsim.organization.candidate_organizations` in the
same order, bit-identical :class:`~repro.nvsim.model.ArrayNumbers` on
every lane (``==`` on float64, no tolerances), and the same winner under
every optimization target, including error type and message on the
``MIN_AREA_EFFICIENCY`` rejection edge.  Property-based tests drive
random (cell, node, capacity, access width, bits/cell) requests through
both paths.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nvsim.characterize  # noqa: F401  (registers the submodule)

# The package re-exports the characterize() function under the same name,
# so reach the module itself through sys.modules for monkeypatching.
characterize_module = sys.modules["repro.nvsim.characterize"]
from repro.cells import (
    back_gated_fefet,
    edram_cell,
    reference_rram,
    sram_cell,
    study_cells,
)
from repro.errors import CharacterizationError
from repro.nvsim.batch import enumerate_soa, evaluate_many, evaluate_soa
from repro.nvsim.characterize import (
    MIN_AREA_EFFICIENCY,
    PREFERRED_AREA_EFFICIENCY,
    _rank_metric,
    characterize,
    clear_characterization_caches,
)
from repro.nvsim.model import evaluate_organization
from repro.nvsim.organization import candidate_organizations
from repro.nvsim.result import ArrayCharacterization, OptimizationTarget
from repro.tech.node import get_node
from repro.units import BITS_PER_BYTE, kb, mb

#: Every cell the parity sweep may draw: the full study registry plus the
#: presets exercising the SRAM, eDRAM (refresh), and back-gated branches.
PARITY_CELLS = tuple(study_cells()) + (
    sram_cell(16),
    edram_cell(32),
    back_gated_fefet(),
    reference_rram(),
)

NODES = (16, 22, 32, 45)
CAPACITIES = (kb(8), kb(64), kb(512), mb(1), mb(8))
ACCESS_BITS = (64, 128, 512)


def scalar_lanes(cell, capacity_bytes, node_nm, access_bits, bits_per_cell):
    """(organization, numbers) pairs straight off the scalar model."""
    node = get_node(node_nm)
    return [
        (org, evaluate_organization(cell, node, org))
        for org in candidate_organizations(
            capacity_bytes * BITS_PER_BYTE, access_bits, bits_per_cell
        )
    ]


def reference_characterize(
    cell,
    capacity_bytes,
    node_nm,
    optimization_target,
    access_bits=64,
    bits_per_cell=1,
    min_area_efficiency=MIN_AREA_EFFICIENCY,
):
    """The seed scalar characterizer, verbatim: filter, rank, break ties."""
    cell.with_bits_per_cell(bits_per_cell)
    evaluated = [
        pair
        for pair in scalar_lanes(
            cell, capacity_bytes, node_nm, access_bits, bits_per_cell
        )
        if not pair[1].area_efficiency < min_area_efficiency
    ]
    if not evaluated:
        raise CharacterizationError(
            f"no feasible organization for {cell.name} at {capacity_bytes} "
            f"bytes ({bits_per_cell} bits/cell, {access_bits}-bit access)"
        )
    preferred = [
        pair for pair in evaluated
        if pair[1].area_efficiency >= PREFERRED_AREA_EFFICIENCY
    ]
    if preferred:
        evaluated = preferred

    def metric(pair):
        return _rank_metric(
            pair[1].read_latency, pair[1].write_latency,
            pair[1].read_energy, pair[1].write_energy,
            pair[1].area, pair[1].leakage_power, optimization_target,
        )

    best_value = min(metric(pair) for pair in evaluated)
    near_optimal = [p for p in evaluated if metric(p) <= 1.05 * best_value]
    best_org, best = max(
        near_optimal,
        key=lambda pair: (round(pair[1].area_efficiency, 2), pair[0].concurrency),
    )
    return ArrayCharacterization(
        cell=cell, capacity_bytes=int(capacity_bytes), node_nm=node_nm,
        bits_per_cell=bits_per_cell, optimization_target=optimization_target,
        organization=best_org, area=best.area,
        area_efficiency=best.area_efficiency, read_latency=best.read_latency,
        write_latency=best.write_latency, read_energy=best.read_energy,
        write_energy=best.write_energy, leakage_power=best.leakage_power,
        sleep_power=best.sleep_power,
    )


def assert_lane_parity(cell, capacity_bytes, node_nm, access_bits, bits_per_cell):
    """Every batch lane equals its scalar twin exactly (``==``, not close)."""
    reference = scalar_lanes(
        cell, capacity_bytes, node_nm, access_bits, bits_per_cell
    )
    soa = enumerate_soa(
        capacity_bytes * BITS_PER_BYTE, access_bits, bits_per_cell
    )
    numbers = evaluate_soa(cell, get_node(node_nm), soa)
    assert len(soa) == len(reference)
    assert len(numbers) == len(reference)
    for i, (org, scalar) in enumerate(reference):
        assert soa.organization_at(i) == org
        assert soa.concurrency_at(i) == org.concurrency
        assert numbers.numbers_at(i) == scalar


@st.composite
def requests(draw):
    cell = draw(st.sampled_from(PARITY_CELLS))
    node_nm = draw(st.sampled_from(NODES))
    capacity_bytes = draw(st.sampled_from(CAPACITIES))
    access_bits = draw(st.sampled_from(ACCESS_BITS))
    bits_per_cell = draw(
        st.integers(min_value=1, max_value=cell.max_bits_per_cell)
    )
    return cell, capacity_bytes, node_nm, access_bits, bits_per_cell


class TestLaneParity:
    @given(request=requests())
    @settings(max_examples=40, deadline=None)
    def test_every_lane_bit_identical(self, request):
        """Random request: all lanes, all eight fields, exact equality."""
        assert_lane_parity(*request)

    @given(request=requests())
    @settings(max_examples=25, deadline=None)
    def test_enumeration_order_and_contents(self, request):
        """enumerate_soa lanes are candidate_organizations, in order."""
        cell, capacity_bytes, _node, access_bits, bits_per_cell = request
        scalar = list(candidate_organizations(
            capacity_bytes * BITS_PER_BYTE, access_bits, bits_per_cell
        ))
        soa = enumerate_soa(
            capacity_bytes * BITS_PER_BYTE, access_bits, bits_per_cell
        )
        assert [soa.organization_at(i) for i in range(len(soa))] == scalar

    def test_mlc_lanes_exact(self):
        """The program-and-verify MLC branch, deepest supported levels."""
        for cell in (back_gated_fefet(), reference_rram()):
            assert_lane_parity(cell, mb(1), 22, 512, cell.max_bits_per_cell)

    def test_refresh_and_sram_branches_exact(self):
        """eDRAM refresh and SRAM voltage-sense branches stay bit-exact."""
        assert_lane_parity(edram_cell(32), mb(1), 32, 64, 1)
        assert_lane_parity(sram_cell(16), mb(1), 16, 512, 1)

    def test_evaluate_many_concatenation_is_transparent(self):
        """Fusing requests into one array program changes nothing."""
        cell = back_gated_fefet()
        node = get_node(22)
        soas = [
            enumerate_soa(capacity * BITS_PER_BYTE, 64)
            for capacity in (kb(64), mb(1), mb(8))
        ]
        fused = evaluate_many(cell, node, soas)
        for soa, numbers in zip(soas, fused):
            alone = evaluate_soa(cell, node, soa)
            assert len(numbers) == len(alone)
            for i in range(len(soa)):
                assert numbers.numbers_at(i) == alone.numbers_at(i)

    def test_enumeration_errors_match_scalar(self):
        with pytest.raises(CharacterizationError, match="capacity must be positive"):
            enumerate_soa(0, 64)
        with pytest.raises(CharacterizationError, match="access width must be positive"):
            enumerate_soa(kb(8) * BITS_PER_BYTE, 0)


class TestWinnerParity:
    @given(
        request=requests(),
        target=st.sampled_from(sorted(OptimizationTarget, key=lambda t: t.value)),
    )
    @settings(max_examples=40, deadline=None)
    def test_characterize_matches_reference(self, request, target):
        """The batch winner is the seed scalar winner, field for field."""
        cell, capacity_bytes, node_nm, access_bits, bits_per_cell = request
        expected = reference_characterize(
            cell, capacity_bytes, node_nm, target, access_bits, bits_per_cell
        )
        actual = characterize(
            cell, capacity_bytes, node_nm, target, access_bits, bits_per_cell
        )
        assert actual.to_dict() == expected.to_dict()

    def test_whole_registry_deterministic(self):
        """Every study cell, every target, the paper's eNVM node."""
        for cell in study_cells():
            for target in OptimizationTarget:
                expected = reference_characterize(cell, mb(1), 22, target)
                actual = characterize(cell, mb(1), 22, target)
                assert actual.to_dict() == expected.to_dict()

    def test_min_area_efficiency_rejection_edge(self, monkeypatch):
        """When the feasibility filter rejects every lane, both paths raise
        the identical error (type and message)."""
        cell = back_gated_fefet()
        monkeypatch.setattr(characterize_module, "MIN_AREA_EFFICIENCY", 1.1)
        clear_characterization_caches()
        try:
            with pytest.raises(CharacterizationError) as batch_err:
                characterize(cell, mb(1), 22)
            with pytest.raises(CharacterizationError) as scalar_err:
                reference_characterize(
                    cell, mb(1), 22, OptimizationTarget.READ_EDP,
                    min_area_efficiency=1.1,
                )
            assert str(batch_err.value) == str(scalar_err.value)
            # The hopeless request is memoized: asking again raises without
            # re-evaluating, and stays just as identical.
            with pytest.raises(CharacterizationError) as again:
                characterize(cell, mb(1), 22)
            assert str(again.value) == str(batch_err.value)
        finally:
            clear_characterization_caches()

    def test_feasibility_threshold_is_live(self, monkeypatch):
        """The filter reads MIN_AREA_EFFICIENCY at call time, like the seed."""
        cell = back_gated_fefet()
        baseline = characterize(cell, mb(1), 22, OptimizationTarget.AREA)
        monkeypatch.setattr(
            characterize_module, "MIN_AREA_EFFICIENCY",
            baseline.area_efficiency + 1e-9,
        )
        clear_characterization_caches()
        try:
            survivor = characterize(cell, mb(1), 22, OptimizationTarget.AREA)
            assert survivor.area_efficiency > baseline.area_efficiency
            expected = reference_characterize(
                cell, mb(1), 22, OptimizationTarget.AREA,
                min_area_efficiency=baseline.area_efficiency + 1e-9,
            )
            assert survivor.to_dict() == expected.to_dict()
        finally:
            clear_characterization_caches()


class TestLanesMemo:
    def test_memo_is_bounded(self, monkeypatch):
        """The in-process lanes memo evicts oldest entries past its cap."""
        monkeypatch.setattr(characterize_module, "_LANES_CACHE_MAX", 3)
        clear_characterization_caches()
        try:
            cell = back_gated_fefet()
            for capacity in (kb(8), kb(16), kb(32), kb(64), kb(128)):
                characterize(cell, capacity, 22)
            assert len(characterize_module._LANES_CACHE) <= 3
            # Evicted entries recompute to the same answer.
            first = characterize(cell, kb(8), 22)
            assert first.capacity_bytes == kb(8)
        finally:
            clear_characterization_caches()

    def test_clear_resets_the_memo(self):
        cell = back_gated_fefet()
        characterize(cell, kb(64), 22)
        assert len(characterize_module._LANES_CACHE) >= 1
        clear_characterization_caches()
        assert len(characterize_module._LANES_CACHE) == 0
