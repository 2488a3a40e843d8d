"""The cross-stack analytical model (Section II-B).

Combines an :class:`~repro.nvsim.ArrayCharacterization` with a
:class:`~repro.traffic.TrafficPattern` to produce the application-level
metrics every figure plots:

* **total memory power** — dynamic (rate x energy-per-access) plus array
  leakage plus a small capacity-proportional controller overhead;
* **total memory latency** — the paper's "long-pole, bandwidth driven"
  model: aggregate access latency per second of execution, spread over the
  array's bank-level concurrency.  A value above 1 s/s means the memory
  cannot keep up and the application slows down by that factor;
* **bandwidth feasibility** — whether demanded read/write bandwidth fits
  within what the array sustains;
* **memory lifetime** — cell endurance against the write rate under ideal
  wear levelling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from repro.errors import EvaluationError
from repro.nvsim.result import ArrayCharacterization
from repro.traffic.base import TrafficPattern
from repro.units import BITS_PER_BYTE, MB, SECONDS_PER_YEAR, to_mm2, to_ns, to_pj

#: Memory-controller / interface overhead, watts per byte of capacity
#: (0.4 mW per MB).  System-level cost the array model does not see.
CONTROLLER_POWER_PER_BYTE = 0.4e-3 / MB

#: Lifetime beyond which we report "effectively unlimited", seconds.
LIFETIME_CAP_SECONDS = 1000.0 * SECONDS_PER_YEAR


@dataclass(frozen=True)
class SystemEvaluation:
    """One (array, traffic) evaluation — a row of the paper's dashboards."""

    array: ArrayCharacterization
    traffic: TrafficPattern

    total_power: float  # W
    dynamic_power: float  # W
    leakage_power: float  # W (incl. controller overhead)
    memory_latency_per_second: float  # s of access latency per s of execution
    slowdown: float  # >= 1.0; 1.0 means the memory keeps up
    read_bandwidth_ok: bool
    write_bandwidth_ok: bool
    lifetime_seconds: Optional[float]  # None = unlimited (no endurance limit)
    energy_per_task: Optional[float]  # J, when the traffic has a task notion

    @property
    def feasible(self) -> bool:
        """Does the array meet the workload's bandwidth demand?"""
        return self.read_bandwidth_ok and self.write_bandwidth_ok

    @property
    def lifetime_years(self) -> Optional[float]:
        if self.lifetime_seconds is None:
            return None
        return self.lifetime_seconds / SECONDS_PER_YEAR

    @property
    def label(self) -> str:
        return f"{self.array.cell.name} x {self.traffic.name}"


def evaluate(
    array: ArrayCharacterization,
    traffic: TrafficPattern,
    write_latency_mask: float = 0.0,
) -> SystemEvaluation:
    """Run the analytical model for one array under one traffic pattern.

    Parameters
    ----------
    write_latency_mask:
        Fraction of write latency hidden from the application (0 = none);
        used by the write-buffering study (Section V-D).  Energy is still
        paid in full.
    """
    if not 0.0 <= write_latency_mask <= 1.0:
        raise EvaluationError("write_latency_mask must be in [0, 1]")

    # When the application moves more bytes per access than the array
    # transfers per access, the array is accessed multiple times.
    scale = max(1.0, traffic.access_bytes / array.access_bytes)
    reads = traffic.reads_per_second * scale
    writes = traffic.writes_per_second * scale

    controller = CONTROLLER_POWER_PER_BYTE * array.capacity_bytes
    dynamic = reads * array.read_energy + writes * array.write_energy
    static = array.leakage_power + controller
    total_power = dynamic + static

    effective_write_latency = array.write_latency * (1.0 - write_latency_mask)
    concurrency = array.organization.concurrency
    latency_per_second = (
        reads * array.read_latency + writes * effective_write_latency
    ) / concurrency
    slowdown = max(1.0, latency_per_second)

    read_ok = traffic.read_bandwidth <= array.read_bandwidth
    write_ok = traffic.write_bandwidth <= (
        array.write_bandwidth / max(1e-12, 1.0 - write_latency_mask)
        if write_latency_mask > 0
        else array.write_bandwidth
    )

    lifetime = lifetime_seconds(array, traffic)

    energy_per_task = None
    if traffic.reads_per_task is not None or traffic.writes_per_task is not None:
        task_reads = (traffic.reads_per_task or 0.0) * scale
        task_writes = (traffic.writes_per_task or 0.0) * scale
        energy_per_task = (
            task_reads * array.read_energy + task_writes * array.write_energy
        )

    return SystemEvaluation(
        array=array,
        traffic=traffic,
        total_power=total_power,
        dynamic_power=dynamic,
        leakage_power=static,
        memory_latency_per_second=latency_per_second,
        slowdown=slowdown,
        read_bandwidth_ok=read_ok,
        write_bandwidth_ok=write_ok,
        lifetime_seconds=lifetime,
        energy_per_task=energy_per_task,
    )


def evaluate_many(
    arrays: Sequence[ArrayCharacterization],
    traffic: Sequence[TrafficPattern],
    write_latency_masks: Optional[Sequence[float]] = None,
) -> dict[str, np.ndarray]:
    """Evaluate every array under every traffic pattern as one array program.

    The columnar form of :func:`evaluate`, which stays the scalar oracle:
    each quantity is a float64 array of shape (arrays x traffic), computed
    with the scalar code's operations in the scalar code's order, so every
    cell is bit-identical to the one :func:`evaluate` gives.
    ``write_latency_masks`` holds one mask per traffic pattern (default 0).

    Returns the evaluation columns of a result row, in row order and row
    units, each an (arrays x traffic) array whose ``.tolist()`` gives
    Python ``float``/``bool``/``None`` cells (the two columns that may be
    ``None`` are object arrays), never ``numpy.float64``.
    """
    n_traffic = len(traffic)
    masks = np.zeros((1, n_traffic)) if write_latency_masks is None else (
        np.array(write_latency_masks, dtype=float).reshape(1, n_traffic))
    if not ((0.0 <= masks) & (masks <= 1.0)).all():
        raise EvaluationError("write_latency_mask must be in [0, 1]")
    # One (arrays x 1) column per array field, one (1 x traffic) row per
    # pattern field; an unlimited endurance is an infinite one.
    (access_bits, concurrency, capacity, read_latency, write_latency,
     read_energy, write_energy, leakage, endurance) = np.array([
        (a.organization.access_bits, a.organization.concurrency,
         a.capacity_bytes, a.read_latency, a.write_latency, a.read_energy,
         a.write_energy, a.leakage_power,
         math.inf if a.endurance_cycles is None else a.endurance_cycles)
        for a in arrays], dtype=float).reshape(-1, 9).T[:, :, None]
    (reads_per_second, writes_per_second, pattern_bytes, reads_per_task,
     writes_per_task, has_tasks) = np.array([
        (t.reads_per_second, t.writes_per_second, t.access_bytes,
         t.reads_per_task or 0.0, t.writes_per_task or 0.0,
         t.reads_per_task is not None or t.writes_per_task is not None)
        for t in traffic], dtype=float).reshape(-1, 6).T[:, None, :]
    access_bytes = access_bits / BITS_PER_BYTE

    ratio = pattern_bytes / access_bytes  # max(1.0, ratio), as in evaluate
    scale = np.where(ratio > 1.0, ratio, 1.0)
    reads = reads_per_second * scale
    writes = writes_per_second * scale

    dynamic = reads * read_energy + writes * write_energy
    static = leakage + CONTROLLER_POWER_PER_BYTE * capacity
    total_power = dynamic + static

    latency_per_second = (
        reads * read_latency + writes * (write_latency * (1.0 - masks))
    ) / concurrency
    slowdown = np.where(latency_per_second > 1.0, latency_per_second, 1.0)

    read_ok = reads_per_second * pattern_bytes <= (
        access_bytes * concurrency / read_latency)
    # A mask of 0 divides by exactly 1.0, which leaves the bandwidth as is.
    unmasked = 1.0 - masks
    write_ok = writes_per_second * pattern_bytes <= (
        access_bytes * concurrency / write_latency
    ) / np.where(unmasked > 1e-12, unmasked, 1e-12)

    # lifetime_seconds at full wear-levelling efficiency.
    write_bits = writes_per_second * pattern_bytes * BITS_PER_BYTE
    with np.errstate(divide="ignore", invalid="ignore"):
        lifetime = endurance / (write_bits / (capacity * BITS_PER_BYTE))
    limited = ~np.isinf(endurance) & (write_bits > 0) & ~(
        lifetime >= LIFETIME_CAP_SECONDS)

    energy_per_task = (reads_per_task * scale * read_energy
                       + writes_per_task * scale * write_energy)

    shape = total_power.shape
    return {
        "total_power_mw": total_power * 1e3,
        "dynamic_power_mw": dynamic * 1e3,
        "static_power_mw": np.broadcast_to(static * 1e3, shape),
        "memory_latency_s_per_s": latency_per_second,
        "slowdown": slowdown,
        "feasible": read_ok & write_ok,
        "lifetime_years": np.where(
            limited, lifetime / SECONDS_PER_YEAR, None),
        "energy_per_task_uj": np.where(
            has_tasks != 0.0, energy_per_task * 1e6, None),
    }


# --- flattened result rows --------------------------------------------------


def _flavor(cell) -> str:
    name = cell.name.lower()
    for tag in ("optimistic", "pessimistic", "reference", "back-gated"):
        if tag in name:
            return tag
    return "custom"


def array_record(array: ArrayCharacterization) -> dict:
    """Flatten an array characterization into a table row."""
    return {
        "cell": array.cell.name,
        "tech": array.cell.tech_class.value,
        "flavor": _flavor(array.cell),
        "capacity_mb": array.capacity_bytes / (1024 * 1024),
        "node_nm": array.node_nm,
        "bits_per_cell": array.bits_per_cell,
        "target": array.optimization_target.value,
        "area_mm2": to_mm2(array.area),
        "area_efficiency": array.area_efficiency,
        "density_mbit_mm2": array.density_mbit_per_mm2,
        "read_latency_ns": to_ns(array.read_latency),
        "write_latency_ns": to_ns(array.write_latency),
        "read_energy_pj": to_pj(array.read_energy),
        "write_energy_pj": to_pj(array.write_energy),
        "read_energy_per_bit_pj": to_pj(array.read_energy_per_bit),
        "write_energy_per_bit_pj": to_pj(array.write_energy_per_bit),
        "leakage_mw": array.leakage_power * 1e3,
        "sleep_uw": array.sleep_power * 1e6,
        "read_bw_gbps": array.read_bandwidth / 1e9,
        "write_bw_gbps": array.write_bandwidth / 1e9,
    }


def evaluation_rows(
    arrays: Sequence[ArrayCharacterization],
    traffic: Sequence[TrafficPattern],
    extra: Any = None,
    *,
    write_latency_masks: Optional[Sequence[float]] = None,
) -> Iterator[list[dict]]:
    """One block of flattened rows per array, one row per traffic pattern.

    This is the default ``rows_fn`` of
    :func:`repro.runtime.executor.evaluate_blocks`; ``extra`` is unused
    here but part of the uniform signature specialized evaluators share.
    A row is the array's :func:`array_record`, the pattern's name and
    rates, the :func:`evaluate_many` columns (under
    ``write_latency_masks``, one per pattern) and then any metadata tag
    of the pattern that names no column yet.  The model runs once, before
    the first block.
    """
    del extra
    columns = evaluate_many(arrays, traffic, write_latency_masks)
    names = tuple(columns)
    heads = [
        {"workload": t.name, "reads_per_s": t.reads_per_second,
         "writes_per_s": t.writes_per_second}
        for t in traffic
    ]
    tags: list[dict] = []
    for index, array in enumerate(arrays):
        base = array_record(array)
        if index == 0:
            # Every row has the same columns, so a pattern's tags that
            # name none of them are the same for every array.
            taken = set().union(base, *heads[:1], names)
            tags = [{k: v for k, v in t.metadata.items() if k not in taken}
                    for t in traffic]
        rows = []
        for head, cells, tag in zip(
                heads, zip(*(columns[name][index].tolist() for name in names)), tags):
            row = {**base, **head}
            row.update(zip(names, cells))
            row.update(tag)
            rows.append(row)
        yield rows


def lifetime_seconds(
    array: ArrayCharacterization,
    traffic: TrafficPattern,
    wear_leveling_efficiency: float = 1.0,
) -> Optional[float]:
    """Projected memory lifetime under the traffic's write load.

    With ideal wear levelling every cell ages at the average rate:
    ``endurance / (write_bits_per_second / capacity_bits)``.  Returns None
    when the cell has no endurance limit (SRAM/eDRAM) or when the computed
    lifetime exceeds :data:`LIFETIME_CAP_SECONDS` (reported as unlimited).
    """
    if not 0.0 < wear_leveling_efficiency <= 1.0:
        raise EvaluationError("wear_leveling_efficiency must be in (0, 1]")
    endurance = array.endurance_cycles
    if endurance is None or math.isinf(endurance):
        return None
    write_bits = traffic.write_bits_per_second
    if write_bits <= 0:
        return None
    capacity_bits = array.capacity_bytes * BITS_PER_BYTE
    per_bit_write_rate = write_bits / (capacity_bits * wear_leveling_efficiency)
    lifetime = endurance / per_bit_write_rate
    if lifetime >= LIFETIME_CAP_SECONDS:
        return None
    return lifetime


def retention_ok(array: ArrayCharacterization, required_seconds: float) -> bool:
    """Can the array hold data unpowered for ``required_seconds``?"""
    retention = array.retention_seconds
    if retention is None:
        # Volatile memory retains nothing across power-off; while powered it
        # holds data indefinitely.  "Required retention" in the studies is
        # about unpowered intervals, so volatile memories fail any positive
        # requirement.
        return required_seconds <= 0.0
    return retention >= required_seconds
