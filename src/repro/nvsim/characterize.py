"""The characterizer front-end: sweep organizations, pick the best.

:func:`characterize` is the package's equivalent of running NVSim once: it
explores every candidate internal organization for the requested capacity
and returns the one that minimizes the chosen optimization target.
:func:`all_organizations` exposes the whole organization space for the
area-efficiency co-design study (Figure 12).  A sweep of many points
(cells x capacities x targets, Figure 3) goes through
:meth:`repro.core.engine.DSEEngine.arrays`, whose executor warms the
shared candidate spaces with :func:`warm_lanes` and then calls
:func:`characterize` once per point.

Since PR 8 the organization sweep runs on the structure-of-arrays batch
engine (:mod:`repro.nvsim.batch`): the whole candidate space is evaluated
as one numpy array program and ranking/filtering are vectorized column
operations.  The scalar model (:func:`repro.nvsim.model.evaluate_organization`)
is retained as the exact-equality parity oracle — every lane the batch
engine produces is bit-identical to the scalar path, property-tested in
``tests/test_characterize_parity.py``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.cells.base import CellTechnology
from repro.errors import CharacterizationError, ReproError
from repro.nvsim.batch import (
    BatchNumbers,
    OrganizationSoA,
    enumerate_soa,
    evaluate_many,
    feasible_indices,
    select_winner_index,
)
from repro.nvsim.result import ArrayCharacterization, OptimizationTarget
from repro.tech.node import get_node
from repro.units import BITS_PER_BYTE

#: Default data bits moved per access (a 64-bit word); the LLC studies use
#: 512 (a 64-byte line).
DEFAULT_ACCESS_BITS = 64

#: Designs below this area efficiency are rejected outright as unbuildable.
MIN_AREA_EFFICIENCY = 0.02
#: The characterizer prefers designs at or above this efficiency (a real
#: memory compiler would not tape out a macro that is mostly periphery);
#: it falls back to the full space when nothing qualifies.  Figure 12's
#: co-design study explores relaxing exactly this constraint.
PREFERRED_AREA_EFFICIENCY = 0.50


def _rank_metric(
    numbers_read_latency: float,
    numbers_write_latency: float,
    numbers_read_energy: float,
    numbers_write_energy: float,
    numbers_area: float,
    numbers_leakage: float,
    target: OptimizationTarget,
) -> float:
    table = {
        OptimizationTarget.READ_LATENCY: numbers_read_latency,
        OptimizationTarget.WRITE_LATENCY: numbers_write_latency,
        OptimizationTarget.READ_ENERGY: numbers_read_energy,
        OptimizationTarget.WRITE_ENERGY: numbers_write_energy,
        OptimizationTarget.READ_EDP: numbers_read_energy * numbers_read_latency,
        OptimizationTarget.WRITE_EDP: numbers_write_energy * numbers_write_latency,
        OptimizationTarget.AREA: numbers_area,
        OptimizationTarget.LEAKAGE: numbers_leakage,
    }
    return table[target]


# One request's evaluated candidate space, columnar: (lanes, numbers,
# feasible lane indices).  Kept in a small bounded LRU — each entry is a
# handful of ~150-element float64 arrays, and the persistent disk cache
# (repro.runtime.cache) is the real cross-process store; this memo only
# de-duplicates work within one process (e.g. one cell swept across six
# optimization targets).
_LanesEntry = Tuple[OrganizationSoA, BatchNumbers, np.ndarray]
_LanesKey = Tuple[CellTechnology, int, int, int, int]

_LANES_CACHE: "OrderedDict[_LanesKey, _LanesEntry]" = OrderedDict()
_LANES_CACHE_MAX = 128
_LANES_LOCK = threading.Lock()


def _no_feasible(
    cell: CellTechnology, capacity_bytes: int, access_bits: int, bits_per_cell: int
) -> CharacterizationError:
    return CharacterizationError(
        f"no feasible organization for {cell.name} at {capacity_bytes} bytes "
        f"({bits_per_cell} bits/cell, {access_bits}-bit access)"
    )


def _lanes_get(key: _LanesKey) -> Optional[_LanesEntry]:
    with _LANES_LOCK:
        entry = _LANES_CACHE.get(key)
        if entry is not None:
            _LANES_CACHE.move_to_end(key)
        return entry


def _lanes_put(key: _LanesKey, entry: _LanesEntry) -> None:
    with _LANES_LOCK:
        _LANES_CACHE[key] = entry
        _LANES_CACHE.move_to_end(key)
        while len(_LANES_CACHE) > _LANES_CACHE_MAX:
            _LANES_CACHE.popitem(last=False)


def _evaluated_lanes(
    cell: CellTechnology,
    capacity_bytes: int,
    node_nm: int,
    access_bits: int,
    bits_per_cell: int,
) -> _LanesEntry:
    """Evaluate the candidate space of one request as columnar lanes.

    Raises :class:`CharacterizationError` when no candidate survives the
    :data:`MIN_AREA_EFFICIENCY` filter (the entry is still memoized so
    repeated hopeless requests stay cheap).
    """
    key = (cell, capacity_bytes, node_nm, access_bits, bits_per_cell)
    entry = _lanes_get(key)
    if entry is None:
        node = get_node(node_nm)
        soa = enumerate_soa(
            capacity_bytes * BITS_PER_BYTE, access_bits, bits_per_cell
        )
        numbers = evaluate_many(cell, node, [soa])[0]
        entry = (soa, numbers, feasible_indices(numbers, MIN_AREA_EFFICIENCY))
        _lanes_put(key, entry)
    if entry[2].size == 0:
        raise _no_feasible(cell, capacity_bytes, access_bits, bits_per_cell)
    return entry


def warm_lanes(
    requests: Iterable[Tuple[CellTechnology, int, int, int, int]],
) -> None:
    """Pre-evaluate many requests as one array program per (cell, node).

    This is the executor's batch fast path: requests that share the cell,
    node, access width, and bits-per-cell concatenate their candidate
    lanes and run the model once over the union.  Requests whose
    enumeration fails (bad capacity/width) are skipped — the subsequent
    per-point :func:`characterize` call reports the error with full
    context.  Infeasible-but-enumerable requests are memoized so the
    per-point call raises without re-evaluating.
    """
    groups: "OrderedDict[Tuple[CellTechnology, int, int, int], list]" = OrderedDict()
    for key in requests:
        cell, capacity_bytes, node_nm, access_bits, bits_per_cell = key
        if _lanes_get(key) is not None:
            continue
        try:
            soa = enumerate_soa(
                capacity_bytes * BITS_PER_BYTE, access_bits, bits_per_cell
            )
        except ReproError:
            continue
        groups.setdefault((cell, node_nm, access_bits, bits_per_cell), []).append(
            (key, soa)
        )
    for (cell, node_nm, _ab, _bpc), members in groups.items():
        node = get_node(node_nm)
        batches = evaluate_many(cell, node, [soa for _key, soa in members])
        for (key, soa), numbers in zip(members, batches):
            _lanes_put(
                key, (soa, numbers, feasible_indices(numbers, MIN_AREA_EFFICIENCY))
            )


def clear_characterization_caches() -> None:
    """Drop the in-process characterization (lanes) memo."""
    with _LANES_LOCK:
        _LANES_CACHE.clear()


def characterize(
    cell: CellTechnology,
    capacity_bytes: int,
    node_nm: int = 22,
    optimization_target: OptimizationTarget = OptimizationTarget.READ_EDP,
    access_bits: int = DEFAULT_ACCESS_BITS,
    bits_per_cell: int = 1,
) -> ArrayCharacterization:
    """Characterize one memory array (the NVSim entry point).

    Parameters
    ----------
    cell:
        The memory cell definition (tentpole, preset, or custom).
    capacity_bytes:
        Usable array capacity in bytes.
    node_nm:
        Implementation process node (the paper implements eNVMs at 22 nm and
        compares against 16 nm SRAM).
    optimization_target:
        Which metric the internal-organization sweep minimizes.
    access_bits:
        Data bits transferred per access (64 for a word, 512 for a cache
        line).
    bits_per_cell:
        1 for SLC; >1 engages the MLC read/write models.

    Raises
    ------
    CharacterizationError
        If no internal organization can realize the request.
    """
    cell.with_bits_per_cell(bits_per_cell)
    soa, numbers, feasible = _evaluated_lanes(
        cell, int(capacity_bytes), node_nm, access_bits, bits_per_cell
    )
    winner = select_winner_index(
        soa, numbers, feasible, optimization_target, PREFERRED_AREA_EFFICIENCY
    )
    best_org = soa.organization_at(winner)
    best = numbers.numbers_at(winner)
    return ArrayCharacterization(
        cell=cell,
        capacity_bytes=int(capacity_bytes),
        node_nm=node_nm,
        bits_per_cell=bits_per_cell,
        optimization_target=optimization_target,
        organization=best_org,
        area=best.area,
        area_efficiency=best.area_efficiency,
        read_latency=best.read_latency,
        write_latency=best.write_latency,
        read_energy=best.read_energy,
        write_energy=best.write_energy,
        leakage_power=best.leakage_power,
        sleep_power=best.sleep_power,
    )


def all_organizations(
    cell: CellTechnology,
    capacity_bytes: int,
    node_nm: int = 22,
    access_bits: int = DEFAULT_ACCESS_BITS,
    bits_per_cell: int = 1,
) -> list[ArrayCharacterization]:
    """Every feasible organization as a full characterization (Figure 12).

    Unlike :func:`characterize` this does not pick a winner — the co-design
    studies filter this cloud by area efficiency and look at latency/power
    structure across it.
    """
    soa, numbers, feasible = _evaluated_lanes(
        cell, int(capacity_bytes), node_nm, access_bits, bits_per_cell
    )
    out = []
    for i in feasible.tolist():
        lane = numbers.numbers_at(i)
        out.append(
            ArrayCharacterization(
                cell=cell,
                capacity_bytes=int(capacity_bytes),
                node_nm=node_nm,
                bits_per_cell=bits_per_cell,
                optimization_target=OptimizationTarget.READ_EDP,
                organization=soa.organization_at(i),
                area=lane.area,
                area_efficiency=lane.area_efficiency,
                read_latency=lane.read_latency,
                write_latency=lane.write_latency,
                read_energy=lane.read_energy,
                write_energy=lane.write_energy,
                leakage_power=lane.leakage_power,
                sleep_power=lane.sleep_power,
            )
        )
    return out
