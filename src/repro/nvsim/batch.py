"""Structure-of-arrays batch evaluation of the nvsim array model.

The scalar model (:func:`repro.nvsim.model.evaluate_organization`) walks
one :class:`~repro.nvsim.organization.ArrayOrganization` per Python call;
a characterization sweep evaluates ~150 organizations per design point
and a whole-registry suite evaluates tens of thousands.  This module
restructures that loop as numpy array programs: the candidate space is
enumerated once into flat int64 lanes (:func:`enumerate_soa`), and the
full read path, write path, leakage, sleep power, and area come out of
:func:`evaluate_soa` as float64 columns — one array expression per line
of the scalar model.

**Exactness contract.**  The scalar model is the parity oracle: every
float produced here is bit-identical (``==``, not ``isclose``) to what
``evaluate_organization`` returns for the same lane.  That holds because

* IEEE-754 ``+ - * /`` are deterministic: elementwise float64 numpy ops
  equal the corresponding CPython float ops when the association order
  is mirrored exactly — so every expression below parenthesizes the way
  the scalar source associates;
* quantities that depend only on the (cell, node) request — voltages,
  pump efficiency, driver sizing, cell geometry — are computed once in
  pure Python (often through the very same ``peripheral`` functions) and
  broadcast, so they cannot drift;
* the only transcendental in the lane math, ``ceil(log4(x))`` for
  decoder/buffer staging, is computed vectorized and then *re-verified*
  against exact ``math.log`` wherever the result is within 1e-9 of an
  integer (:func:`_ceil_log4`) — the only region where a last-ulp
  difference between ``np.log`` and libm could flip the ceiling;
* integer-valued lane math (subarray counts, grid factorization, cell
  counts) stays in int64 or exact small Python loops over unique values.

Per-lane branch structure — column-mux degree 1, buffer chains at or
below minimum load — is handled as masked lanes (``np.where``); the
FET-cell and MLC program-and-verify branches are uniform across a batch
(they depend only on the cell), so they select whole masked expression
groups at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.cells.base import AccessDevice, CellTechnology
from repro.errors import CharacterizationError
from repro.nvsim import peripheral
from repro.nvsim.model import (
    ACTIVE_AREA_LEAKAGE_PER_M2,
    BUS_ACTIVITY,
    FET_INHIBIT_FRACTION,
    MLC_PARTIAL_PULSE,
    REPEATER_SPACING,
    SENSE_SWING,
    SLEEP_LEAKAGE_PER_M2,
    SRAM_SWING,
    ArrayNumbers,
)
from repro.nvsim.organization import (
    COL_CHOICES,
    MAX_CONCURRENCY,
    MUX_CHOICES,
    ROW_CHOICES,
    ArrayOrganization,
)
from repro.nvsim.result import OptimizationTarget
from repro.tech.delay import buffer_chain_delay
from repro.tech.node import TechnologyNode

__all__ = [
    "OrganizationSoA",
    "BatchNumbers",
    "enumerate_soa",
    "evaluate_soa",
    "evaluate_many",
    "rank_metric_column",
    "feasible_indices",
    "select_winner_index",
]

#: ln(4), the base conversion CPython's ``math.log(x, 4.0)`` divides by.
_LOG4 = math.log(4.0)
#: Buffer-chain switched-capacitance factor (load plus a geometric
#: series of intermediate stages), exactly as ``buffer_chain_delay``.
_CHAIN_FACTOR = 1.0 + 1.0 / 3.0


@dataclass(frozen=True)
class OrganizationSoA:
    """The candidate-organization space of one request, as flat lanes.

    Lane order matches :func:`~repro.nvsim.organization.candidate_organizations`
    exactly (rows outer, cols middle, mux inner, infeasible lanes
    dropped), so lane ``i`` here is the ``i``-th organization the scalar
    generator yields.
    """

    rows: np.ndarray  # int64
    cols: np.ndarray  # int64
    mux: np.ndarray  # int64
    n_subarrays: np.ndarray  # int64
    active_subarrays: np.ndarray  # int64
    access_bits: int
    bits_per_cell: int

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    def concurrency_at(self, index: int) -> int:
        """Bank-level concurrency of lane ``index`` (as the scalar property)."""
        groups = int(self.n_subarrays[index]) // int(self.active_subarrays[index])
        return max(1, min(MAX_CONCURRENCY, groups))

    def organization_at(self, index: int) -> ArrayOrganization:
        """Materialize lane ``index`` back into an :class:`ArrayOrganization`."""
        return ArrayOrganization(
            rows=int(self.rows[index]),
            cols=int(self.cols[index]),
            mux=int(self.mux[index]),
            n_subarrays=int(self.n_subarrays[index]),
            active_subarrays=int(self.active_subarrays[index]),
            access_bits=self.access_bits,
            bits_per_cell=self.bits_per_cell,
        )


@dataclass(frozen=True)
class BatchNumbers:
    """Columnar :class:`~repro.nvsim.model.ArrayNumbers` for one lane set."""

    area: np.ndarray
    area_efficiency: np.ndarray
    read_latency: np.ndarray
    write_latency: np.ndarray
    read_energy: np.ndarray
    write_energy: np.ndarray
    leakage_power: np.ndarray
    sleep_power: np.ndarray

    def __len__(self) -> int:
        return int(self.area.shape[0])

    def numbers_at(self, index: int) -> ArrayNumbers:
        """Lane ``index`` as a scalar :class:`ArrayNumbers` (bit-identical)."""
        return ArrayNumbers(
            area=float(self.area[index]),
            area_efficiency=float(self.area_efficiency[index]),
            read_latency=float(self.read_latency[index]),
            write_latency=float(self.write_latency[index]),
            read_energy=float(self.read_energy[index]),
            write_energy=float(self.write_energy[index]),
            leakage_power=float(self.leakage_power[index]),
            sleep_power=float(self.sleep_power[index]),
        )

    def _slice(self, start: int, stop: int) -> "BatchNumbers":
        return BatchNumbers(
            area=self.area[start:stop],
            area_efficiency=self.area_efficiency[start:stop],
            read_latency=self.read_latency[start:stop],
            write_latency=self.write_latency[start:stop],
            read_energy=self.read_energy[start:stop],
            write_energy=self.write_energy[start:stop],
            leakage_power=self.leakage_power[start:stop],
            sleep_power=self.sleep_power[start:stop],
        )


def enumerate_soa(
    capacity_bits: int,
    access_bits: int,
    bits_per_cell: int = 1,
) -> OrganizationSoA:
    """Vectorized :func:`candidate_organizations`: the same lanes, flat.

    The grid is materialized with ``indexing='ij'`` and raveled in C
    order, which reproduces the scalar generator's loop nesting; the
    feasibility filters are the generator's skip conditions as boolean
    masks, evaluated with the same int/float arithmetic.
    """
    if capacity_bits <= 0:
        raise CharacterizationError("capacity must be positive")
    if access_bits <= 0:
        raise CharacterizationError("access width must be positive")
    rows_g, cols_g, mux_g = np.meshgrid(
        np.asarray(ROW_CHOICES, dtype=np.int64),
        np.asarray(COL_CHOICES, dtype=np.int64),
        np.asarray(MUX_CHOICES, dtype=np.int64),
        indexing="ij",
    )
    rows = rows_g.ravel()
    cols = cols_g.ravel()
    mux = mux_g.ravel()
    bits_per_subarray = (rows * cols) * bits_per_cell
    # int / int64 promotes through float64 exactly like CPython's true
    # division (both operands are exactly representable), so the ceil
    # matches math.ceil lane for lane.
    n_subarrays = np.ceil(capacity_bits / bits_per_subarray).astype(np.int64)
    keep = n_subarrays >= 1
    # Avoid gross over-provisioning (>2x the capacity wasted).
    keep &= ~(
        n_subarrays * bits_per_subarray > 2 * capacity_bits + bits_per_subarray
    )
    keep &= (cols % mux) == 0
    bits_per_activation = (cols // mux) * bits_per_cell
    active = np.ceil(access_bits / bits_per_activation).astype(np.int64)
    keep &= active <= n_subarrays
    return OrganizationSoA(
        rows=rows[keep],
        cols=cols[keep],
        mux=mux[keep],
        n_subarrays=n_subarrays[keep],
        active_subarrays=active[keep],
        access_bits=int(access_bits),
        bits_per_cell=int(bits_per_cell),
    )


def _per_unique(
    values: np.ndarray, fn: Callable[[int], float], dtype=np.float64
) -> np.ndarray:
    """Map an exact Python function over lanes, once per unique value.

    Used for the handful of lane quantities that need loop-or-log exact
    integer math (decoder stage counts, grid factorization): the unique
    value sets are tiny (row choices, subarray counts), so a Python loop
    per unique value costs nothing and inherits CPython's exact result.
    """
    out = np.empty(values.shape[0], dtype=dtype)
    for value in np.unique(values):
        out[values == value] = fn(int(value))
    return out


def _grid_nx(n_subarrays: int) -> int:
    """``ArrayOrganization.grid_shape`` nx for one subarray count."""
    nx = max(1, int(math.floor(math.sqrt(n_subarrays))))
    while n_subarrays % nx != 0:
        nx -= 1
    return nx


def _ceil_log4(ratio: np.ndarray) -> np.ndarray:
    """Vectorized ``ceil(log(ratio, 4.0))`` matching ``math`` bit-exactly.

    ``np.log`` and libm's ``log`` may disagree in the last ulp, which can
    only flip the ceiling when the quotient sits essentially on an
    integer.  Lanes within 1e-9 of an integer are therefore recomputed
    through ``math.log(x, 4.0)`` — the exact expression the scalar model
    uses — so the result is identical everywhere.
    """
    y = np.log(ratio) / _LOG4
    n = np.ceil(y)
    suspect = np.abs(y - np.rint(y)) < 1e-9
    if bool(np.any(suspect)):
        indices = np.nonzero(suspect)[0]
        exact = np.empty(indices.shape[0], dtype=np.float64)
        for slot, value in enumerate(ratio[indices].tolist()):
            exact[slot] = math.ceil(math.log(value, 4.0))
        n = n.copy()
        n[indices] = exact
    return n


def _buffer_chain(
    load: np.ndarray, c_min: float, vdd2: float, fo4: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Lane-wise ``buffer_chain_delay``: (delay, energy) columns.

    The at-or-below-minimum-load branch is a per-lane mask; the chain
    sizing uses :func:`_ceil_log4` for exactness.
    """
    load = np.asarray(load, dtype=np.float64)
    if c_min <= 0:
        return (
            np.full(load.shape, fo4, dtype=np.float64),
            load * vdd2,
        )
    small = load <= c_min
    # Clamp the masked-out lanes to a safe ratio; their values are
    # discarded by the where() below.
    ratio = np.where(small, 1.0, load / c_min)
    n_stages = np.maximum(1.0, _ceil_log4(ratio))
    delay = np.where(small, fo4, n_stages * fo4)
    energy = np.where(small, load * vdd2, (load * _CHAIN_FACTOR) * vdd2)
    return delay, energy


def evaluate_soa(
    cell: CellTechnology, node: TechnologyNode, soa: OrganizationSoA
) -> BatchNumbers:
    """Evaluate every lane of ``soa`` at once.

    This is :func:`~repro.nvsim.model.evaluate_organization` transposed:
    each block below corresponds to the same-named block of the scalar
    model, with lane arrays where the scalar code had per-organization
    values and pre-computed Python scalars where it had per-request
    values.  Association order is mirrored expression for expression —
    see the module docstring for why that makes the result bit-exact.
    """
    rows = soa.rows
    cols = soa.cols
    mux = soa.mux
    n_sub = soa.n_subarrays
    active = soa.active_subarrays
    access_bits = soa.access_bits
    bits = soa.bits_per_cell

    # --- per-request scalars (pure Python, exactly as the scalar model) ---
    F = node.feature_size
    vdd = node.vdd
    vdd2 = vdd**2
    c_min = node.min_transistor_gate_cap
    c_drain = node.min_transistor_drain_cap
    min_leak = node.min_transistor_leakage
    ron_min = node.min_transistor_on_resistance
    fo4 = node.logic_gate_delay
    wire_res = node.wire_res_per_um
    wire_cap = node.wire_cap_per_um
    gwire_res = node.global_wire_res_per_um
    sa_delay = node.sense_amp_delay
    sa_energy = node.sense_amp_energy
    sa_area = node.sense_amp_area

    is_fet_cell = cell.access_device is AccessDevice.TRANSISTOR_CELL
    sram_like = cell.access_device in (AccessDevice.SRAM6T, AccessDevice.GAIN_CELL)

    cw, ch = cell.cell_dimensions(F)
    cell_area = cell.cell_area(F)
    gate_load = 0.6 * c_min
    drain_load = 0.5 * c_drain
    if cell.access_device is AccessDevice.SRAM6T:
        gate_load = 2.0 * c_min  # two access FETs
        drain_load = 1.0 * c_drain
    elif cell.access_device is AccessDevice.NONE:
        gate_load = 0.1 * c_min  # selector only
        drain_load = 0.2 * c_drain

    # --- subarray geometry -------------------------------------------------
    wl_len = cols * cw
    bl_len = rows * ch
    wl_wire_cap = wire_cap * (wl_len / 1e-6)
    wl_res = wire_res * (wl_len / 1e-6)
    bl_cap = wire_cap * (bl_len / 1e-6) + rows * drain_load
    bl_res = wire_res * (bl_len / 1e-6)
    cell_area_total = (rows * cols) * cell_area

    # --- peripheral blocks (per subarray) ---------------------------------
    full_wordline_cap = wl_wire_cap + cols * gate_load

    # Row decoder: stage counts are exact per unique row choice.
    dec_stages = _per_unique(
        rows, lambda r: max(1, math.ceil(math.log(r, 4.0)))
    )
    stage_cap = 4.0 * c_min
    wl_drive_delay, wl_drive_energy = _buffer_chain(
        full_wordline_cap, c_min, vdd2, fo4
    )
    dec_delay = dec_stages * fo4 + wl_drive_delay
    dec_energy = (dec_stages * stage_cap) * vdd2 + wl_drive_energy
    dec_n_devices = (4 * rows) * 1.25
    dec_leak = (0.05 * dec_n_devices) * min_leak
    dec_gate_area = (8 * F) * (12 * F)
    dec_area = (rows * 1.25) * dec_gate_area

    # Column mux: degree-1 lanes are the zero block (masked).
    mux_active = mux > 1
    pass_gate_cap = 2.0 * c_min
    mux_delay = np.where(mux_active, 2.0 * fo4, 0.0)
    mux_energy = np.where(mux_active, ((cols / mux) * pass_gate_cap) * vdd2, 0.0)
    mux_leak = np.where(mux_active, (0.02 * cols) * min_leak, 0.0)
    mux_gate_area = (6 * F) * (8 * F)
    mux_area = np.where(mux_active, cols * mux_gate_area, 0.0)

    # Sense amplifiers (count = cols // mux, always positive here).
    sense_amps = cols // mux
    per_amp_leak = 0.4 * min_leak
    amps_energy = sense_amps * sa_energy
    amps_leak = sense_amps * per_amp_leak
    amps_area = sense_amps * sa_area

    # Write drivers: sizing is per-request; only the count is a lane.
    write_current = max(cell.set_current, cell.reset_current)
    width_factor = max(1.0, write_current / (node.ion_per_um * node.min_width_um))
    drv_gate_cap = width_factor * c_min * 2.0
    drv_delay = buffer_chain_delay(node, drv_gate_cap).delay
    drv_energy = (sense_amps * drv_gate_cap) * vdd2
    drv_leak = ((sense_amps * width_factor) * 0.15) * min_leak
    per_driver_area = width_factor * (10 * F) * (20 * F)
    drv_area = sense_amps * per_driver_area

    # Charge pump and rail efficiency: purely per-request.
    pump = peripheral.charge_pump(node, cell.write_voltage)
    eff = peripheral.pump_efficiency(node, cell.write_voltage)

    # --- subarray footprint ------------------------------------------------
    periph_area = ((dec_area + mux_area) + amps_area) + drv_area
    subarray_area = cell_area_total + periph_area
    nx = _per_unique(n_sub, _grid_nx, dtype=np.int64)
    ny = n_sub // nx
    sub_w = wl_len + dec_area / np.maximum(bl_len, 1e-9)
    sub_h = subarray_area / np.maximum(sub_w, 1e-9)
    array_w = nx * sub_w
    array_h = ny * sub_h
    total_area = n_sub * subarray_area + pump.area
    total_area = total_area * 1.08  # inter-subarray routing channels
    area_efficiency = (n_sub * cell_area_total) / total_area

    # --- global interconnect -----------------------------------------------
    htree_length = 0.5 * (array_w + array_h)
    wire_live = htree_length > 0
    n_seg = np.maximum(1.0, np.ceil(htree_length / REPEATER_SPACING))
    seg_len = htree_length / n_seg
    seg_r = gwire_res * (seg_len / 1e-6)
    seg_c = wire_cap * (seg_len / 1e-6)
    repeater_cap = 8.0 * c_min
    seg_delay = 2.0 * fo4 + (0.38 * seg_r) * (seg_c + repeater_cap)
    wire_cap_total = wire_cap * (htree_length / 1e-6) + n_seg * repeater_cap
    bus_delay = np.where(wire_live, n_seg * seg_delay, 0.0)
    bus_epb = np.where(wire_live, (wire_cap_total * vdd2) * BUS_ACTIVITY, 0.0)
    bus_leak = np.where(wire_live, (n_seg * 3.0) * min_leak, 0.0)

    out_bus_cap = wire_cap * (htree_length / 1e-6)
    out_delay, out_drive_energy = _buffer_chain(out_bus_cap, c_min, vdd2, fo4)
    out_energy = (access_bits * out_drive_energy) * 0.5
    out_leak = (access_bits * 0.3) * min_leak

    # --- read path ----------------------------------------------------------
    inner_cells = math.ceil(access_bits / bits)
    cells_per_active = np.ceil(inner_cells / active).astype(np.int64)
    cells_per_active = np.minimum(cells_per_active, sense_amps)

    wl_delay = (0.38 * wl_res) * full_wordline_cap
    if sram_like:
        develop = (bl_cap * SRAM_SWING) / cell.read_current
        settle = (0.38 * bl_res) * bl_cap
        t_sense = np.maximum(cell.read_pulse, develop + settle)
    else:
        access_r = (
            0.0 if cell.access_device is AccessDevice.NONE
            else ron_min
        )
        r_cell = cell.r_on + access_r
        i_sense = cell.read_voltage / max(r_cell, 1.0)
        i_clamped = max(i_sense, 1e-12)
        develop = (bl_cap * SENSE_SWING) / i_clamped
        charge_log = math.log(1.0 / (1.0 - SENSE_SWING / vdd))
        rc_settle = ((cell.r_off + bl_res) * bl_cap) * charge_log
        t_sense = np.maximum(
            np.maximum(cell.read_pulse, develop), 0.25 * rc_settle
        )

    sense_steps = bits if bits > 1 else 1  # MLC: one bit per reference step
    read_latency = (
        bus_delay  # address in
        + dec_delay
        + wl_delay
        + sense_steps * (t_sense + sa_delay)
        + mux_delay
        + out_delay
        + bus_delay  # data out
    )

    sensed_cells = active * cells_per_active
    read_wl_voltage = cell.read_voltage if is_fet_cell else vdd
    rwv2 = read_wl_voltage**2
    wl_read_energy = wl_wire_cap * vdd2 + (cells_per_active * gate_load) * rwv2
    if sram_like:
        bl_energy_per_line = (bl_cap * SRAM_SWING) * vdd
    elif is_fet_cell:
        fet_read_bias2 = (FET_INHIBIT_FRACTION * cell.read_voltage) ** 2
        bl_energy_per_line = bl_cap * fet_read_bias2
    else:
        rv2 = cell.read_voltage**2
        bl_energy_per_line = bl_cap * rv2
    cell_read_energy = (cell.read_voltage * cell.read_current) * t_sense
    read_energy = (
        active * ((dec_energy + mux_energy) + wl_read_energy)
        + (sensed_cells * bl_energy_per_line) * sense_steps
        + (sensed_cells * bits) * cell_read_energy
        + (sensed_cells * sa_energy) * sense_steps
        + out_energy
        + access_bits * bus_epb
    )

    # --- write path ----------------------------------------------------------
    verify_iterations = 2 ** (bits - 1) if bits > 1 else 1
    bl_charge_time = (0.38 * (bl_res + ron_min)) * bl_cap
    pulse = cell.write_pulse + bl_charge_time
    if bits > 1:
        program_time = verify_iterations * (
            MLC_PARTIAL_PULSE * pulse + t_sense + sa_delay
        )
    else:
        program_time = pulse
    write_latency = bus_delay + dec_delay + wl_delay + drv_delay + program_time

    written_cells = sensed_cells
    cell_write_energy = cell.write_energy_per_bit * bits / eff
    if bits > 1:
        cell_write_energy *= verify_iterations * MLC_PARTIAL_PULSE
        verify_energy = verify_iterations * (
            bl_energy_per_line + cell_read_energy + sa_energy
        )
    else:
        verify_energy = 0.0
    wv2 = cell.write_voltage**2
    if is_fet_cell:
        wl_write_energy = (
            wl_wire_cap * vdd2 + (cells_per_active * gate_load) * wv2 / eff
        )
        fet_write_bias2 = (FET_INHIBIT_FRACTION * cell.write_voltage) ** 2
        bl_write_energy = bl_cap * fet_write_bias2 / eff
    else:
        wl_write_energy = wl_wire_cap * vdd2 + (cells_per_active * gate_load) * vdd2
        bl_write_energy = bl_cap * wv2 / eff
    write_energy = (
        active * ((dec_energy + mux_energy) + wl_write_energy)
        + written_cells * (cell_write_energy + bl_write_energy + verify_energy)
        + drv_energy * active
        + out_energy
        + access_bits * bus_epb
    )

    # --- leakage --------------------------------------------------------------
    periph_leak = ((dec_leak + mux_leak) + amps_leak) + drv_leak
    cell_leak = (cell.cell_leakage * n_sub) * (rows * cols)
    leakage = (
        n_sub * periph_leak
        + pump.leakage_power
        + bus_leak
        + out_leak
        + cell_leak
        + ACTIVE_AREA_LEAKAGE_PER_M2 * total_area
    )
    if cell.refresh_interval is not None:
        row_energy = dec_energy + full_wordline_cap * vdd2
        row_energy = row_energy + cols * (
            bl_energy_per_line + cell.write_energy_per_bit
        )
        total_rows = n_sub * rows
        leakage = leakage + (total_rows * row_energy) / cell.refresh_interval

    # --- deep sleep -------------------------------------------------------------
    sleep = SLEEP_LEAKAGE_PER_M2 * total_area
    if cell.tech_class.is_nonvolatile:
        sleep_power = sleep
    elif cell.refresh_interval is not None:
        sleep_power = sleep + 0.5 * leakage
    else:
        sleep_power = sleep + 0.3 * cell_leak

    return BatchNumbers(
        area=np.asarray(total_area, dtype=np.float64),
        area_efficiency=np.asarray(area_efficiency, dtype=np.float64),
        read_latency=np.asarray(read_latency, dtype=np.float64),
        write_latency=np.asarray(write_latency, dtype=np.float64),
        read_energy=np.asarray(read_energy, dtype=np.float64),
        write_energy=np.asarray(write_energy, dtype=np.float64),
        leakage_power=np.asarray(leakage, dtype=np.float64),
        sleep_power=np.asarray(sleep_power, dtype=np.float64),
    )


def evaluate_many(
    cell: CellTechnology,
    node: TechnologyNode,
    soas: Sequence[OrganizationSoA],
) -> List[BatchNumbers]:
    """Evaluate several lane sets of one (cell, node) as ONE array program.

    This is the executor's batch fast path: a chunk of sweep points that
    share the cell, node, access width, and bits-per-cell (their
    capacities differ) concatenates all candidate lanes, runs the model
    once over the union, and splits the columns back per request.
    """
    if not soas:
        return []
    if len(soas) == 1:
        return [evaluate_soa(cell, node, soas[0])]
    access_bits = soas[0].access_bits
    bits_per_cell = soas[0].bits_per_cell
    for soa in soas[1:]:
        if soa.access_bits != access_bits or soa.bits_per_cell != bits_per_cell:
            raise CharacterizationError(
                "evaluate_many requires uniform access_bits/bits_per_cell "
                "across lane sets"
            )
    merged = OrganizationSoA(
        rows=np.concatenate([soa.rows for soa in soas]),
        cols=np.concatenate([soa.cols for soa in soas]),
        mux=np.concatenate([soa.mux for soa in soas]),
        n_subarrays=np.concatenate([soa.n_subarrays for soa in soas]),
        active_subarrays=np.concatenate([soa.active_subarrays for soa in soas]),
        access_bits=access_bits,
        bits_per_cell=bits_per_cell,
    )
    numbers = evaluate_soa(cell, node, merged)
    out: List[BatchNumbers] = []
    start = 0
    for soa in soas:
        stop = start + len(soa)
        out.append(numbers._slice(start, stop))
        start = stop
    return out


def rank_metric_column(
    numbers: BatchNumbers, target: OptimizationTarget
) -> np.ndarray:
    """The ranking metric of every lane — ``_rank_metric`` as a column."""
    table = {
        OptimizationTarget.READ_LATENCY: numbers.read_latency,
        OptimizationTarget.WRITE_LATENCY: numbers.write_latency,
        OptimizationTarget.READ_ENERGY: numbers.read_energy,
        OptimizationTarget.WRITE_ENERGY: numbers.write_energy,
        OptimizationTarget.READ_EDP: numbers.read_energy * numbers.read_latency,
        OptimizationTarget.WRITE_EDP: numbers.write_energy * numbers.write_latency,
        OptimizationTarget.AREA: numbers.area,
        OptimizationTarget.LEAKAGE: numbers.leakage_power,
    }
    return table[target]


def feasible_indices(
    numbers: BatchNumbers, min_area_efficiency: float
) -> np.ndarray:
    """Lane indices surviving the buildability filter, in lane order.

    Mirrors the scalar characterizer's rejection: a lane is dropped when
    ``area_efficiency < min_area_efficiency``.
    """
    return np.nonzero(~(numbers.area_efficiency < min_area_efficiency))[0]


def select_winner_index(
    soa: OrganizationSoA,
    numbers: BatchNumbers,
    candidate_indices: np.ndarray,
    target: OptimizationTarget,
    preferred_area_efficiency: float,
) -> int:
    """The winning lane index, exactly as the scalar characterizer picks it.

    Vectorized min + 5% near-optimal mask over the metric column; the
    final tie-break — highest ``round(area_efficiency, 2)``, then most
    concurrency, first lane winning exact key ties (Python ``max``
    semantics) — runs as a tiny Python loop over the near-optimal set.
    """
    if candidate_indices.size == 0:
        raise CharacterizationError("select_winner_index needs candidates")
    efficiency = numbers.area_efficiency[candidate_indices]
    preferred = candidate_indices[efficiency >= preferred_area_efficiency]
    pool = preferred if preferred.size else candidate_indices
    metric = rank_metric_column(numbers, target)[pool]
    best_value = float(np.min(metric))
    near_optimal = pool[metric <= 1.05 * best_value]
    # Tie-break columns, gathered once: Python round() (not np.round) so
    # the two-decimal key is the scalar characterizer's, digit for digit.
    groups = soa.n_subarrays[near_optimal] // soa.active_subarrays[near_optimal]
    concurrencies = np.clip(groups, 1, MAX_CONCURRENCY).tolist()
    efficiencies = numbers.area_efficiency[near_optimal].tolist()
    best_index = -1
    best_key: Tuple[float, int] = (-math.inf, 0)
    first = True
    for index, eff, conc in zip(
        near_optimal.tolist(), efficiencies, concurrencies
    ):
        key = (round(eff, 2), conc)
        if first or key > best_key:
            best_key = key
            best_index = index
            first = False
    return best_index
