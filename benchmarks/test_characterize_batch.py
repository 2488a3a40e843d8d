"""Characterization batch engine bench: exact parity with the seed model.

The structure-of-arrays nvsim engine (``repro.nvsim.batch``) runs the
whole-registry target sweep (every study cell plus 16 nm SRAM, every
default optimization target, word and cache-line access widths) and must
produce *identical* winners to the seed scalar characterizer it
replaced: same organization, same eight ``ArrayNumbers`` fields,
compared with ``==``.

The >=10x speedup over that seed model is a wall-clock claim, so it is
asserted outside tier-1, in ``speedup_characterize_batch.py`` (run it
by naming the file: ``pytest benchmarks/speedup_characterize_batch.py``).
"""

from repro.cells import sram_cell, study_cells
from repro.nvsim.characterize import (
    MIN_AREA_EFFICIENCY,
    PREFERRED_AREA_EFFICIENCY,
    _rank_metric,
    characterize,
    clear_characterization_caches,
    warm_lanes,
)
from repro.nvsim.model import evaluate_organization
from repro.nvsim.organization import candidate_organizations
from repro.nvsim.result import DEFAULT_TARGET_SWEEP
from repro.tech.node import get_node
from repro.units import BITS_PER_BYTE, mb

CAPACITIES = (mb(1) // 4, mb(1), mb(4), mb(8))  # the study's LLC range
ENVM_NODE_NM = 22
SRAM_NODE_NM = 16
ACCESS_WIDTHS = (64, 512)  # one word, one cache line


def _sweep_cells():
    return list(study_cells()) + [sram_cell(SRAM_NODE_NM)]


def _node_for(cell):
    return ENVM_NODE_NM if cell.tech_class.is_nonvolatile else SRAM_NODE_NM


# --- the seed implementation, kept verbatim as the parity oracle ----------


def _seed_evaluate_all(cell, capacity_bytes, node_nm, access_bits):
    """The seed ``_characterize_all``: one scalar model call per lane."""
    node = get_node(node_nm)
    evaluated = []
    for org in candidate_organizations(
        capacity_bytes * BITS_PER_BYTE, access_bits, 1
    ):
        numbers = evaluate_organization(cell, node, org)
        if numbers.area_efficiency < MIN_AREA_EFFICIENCY:
            continue
        evaluated.append((org, numbers))
    return evaluated


def _seed_select(evaluated, target):
    """The seed winner selection: prefer-efficient, rank, break near-ties."""
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
            pair[1].area, pair[1].leakage_power, target,
        )

    best_value = min(metric(pair) for pair in evaluated)
    near_optimal = [p for p in evaluated if metric(p) <= 1.05 * best_value]
    return max(
        near_optimal,
        key=lambda pair: (round(pair[1].area_efficiency, 2), pair[0].concurrency),
    )


def _seed_sweep(cells, access_bits):
    """The seed characterize_sweep: scalar lanes, memoized per request."""
    results = []
    for cell in cells:
        for capacity in CAPACITIES:
            evaluated = _seed_evaluate_all(
                cell, capacity, _node_for(cell), access_bits
            )
            for target in DEFAULT_TARGET_SWEEP:
                org, numbers = _seed_select(evaluated, target)
                results.append((cell.name, capacity, target, org, numbers))
    return results


def _batch_sweep(cells, access_bits):
    """The batch-engine sweep, forced cold (memos cleared in the timed run).

    ``warm_lanes`` is the executor's fast path: every capacity of one
    cell fuses into a single array program, then the per-target winners
    read the memoized lanes.
    """
    clear_characterization_caches()
    warm_lanes(
        (cell, capacity, _node_for(cell), access_bits, 1)
        for cell in cells for capacity in CAPACITIES
    )
    return [
        characterize(
            cell, capacity, node_nm=_node_for(cell),
            optimization_target=target, access_bits=access_bits,
        )
        for cell in cells
        for capacity in CAPACITIES
        for target in DEFAULT_TARGET_SWEEP
    ]


def test_batch_parity():
    cells = _sweep_cells()
    for access_bits in ACCESS_WIDTHS:
        seed_results = _seed_sweep(cells, access_bits)
        batch_results = _batch_sweep(cells, access_bits)

        # Same winners, same numbers, exact equality.
        assert len(batch_results) == len(seed_results)
        for result, (name, capacity, target, org, numbers) in zip(
            batch_results, seed_results
        ):
            assert result.cell.name == name
            assert result.capacity_bytes == capacity
            assert result.optimization_target is target
            assert result.organization == org
            assert result.area == numbers.area
            assert result.area_efficiency == numbers.area_efficiency
            assert result.read_latency == numbers.read_latency
            assert result.write_latency == numbers.write_latency
            assert result.read_energy == numbers.read_energy
            assert result.write_energy == numbers.write_energy
            assert result.leakage_power == numbers.leakage_power
            assert result.sleep_power == numbers.sleep_power
