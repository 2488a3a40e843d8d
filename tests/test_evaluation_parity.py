"""Columnar evaluation: parity with the scalar cross-stack model.

:func:`repro.core.metrics.evaluation_rows` evaluates a whole (arrays x
traffic) block as one numpy program.  Every row it builds must be
*indistinguishable* from the row the scalar :func:`~repro.core.metrics.evaluate`
gives: the same keys in the same order, and for every cell the same
``type`` and ``repr`` (so ``float`` never turns into ``numpy.float64``
and no cell differs in its last bit).  The blocks are the ones the
suite's studies evaluate, plus the model's edge cases.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.core import engine as engine_module
from repro.core.metrics import (
    LIFETIME_CAP_SECONDS,
    array_record,
    evaluate,
    evaluate_many,
    evaluation_rows,
)
from repro.core.writebuffer import WriteBufferConfig, evaluate_with_buffer
from repro.errors import EvaluationError
from repro.nvsim import OptimizationTarget, characterize
from repro.runtime import evaluate_blocks
from repro.runtime.options import RuntimeOptions
from repro.studies.pipeline import REGISTRY
from repro.studies.writebuffer_study import _scenario_rows
from repro.traffic import TrafficPattern
from repro.units import BITS_PER_BYTE, mb

#: The studies whose evaluation blocks are checked: fig12's whole
#: organization cloud and the traffic sets of the other figures.
STUDIES = (
    "fig06_dnn_continuous",
    "fig08_graph",
    "fig09_spec_llc",
    "fig11_bg_fefet",
    "fig12_area_efficiency",
    "fig14_writebuffer",
)


def scalar_row(ev) -> dict:
    """The row of one scalar evaluation: array columns, then the model's."""
    row = array_record(ev.array)
    row.update({
        "workload": ev.traffic.name,
        "reads_per_s": ev.traffic.reads_per_second,
        "writes_per_s": ev.traffic.writes_per_second,
        "total_power_mw": ev.total_power * 1e3,
        "dynamic_power_mw": ev.dynamic_power * 1e3,
        "static_power_mw": ev.leakage_power * 1e3,
        "memory_latency_s_per_s": ev.memory_latency_per_second,
        "slowdown": ev.slowdown,
        "feasible": ev.feasible,
        "lifetime_years": ev.lifetime_years,
        "energy_per_task_uj": (
            None if ev.energy_per_task is None else ev.energy_per_task * 1e6
        ),
    })
    for key, value in ev.traffic.metadata.items():
        row.setdefault(key, value)
    return row


def scalar_block(rows_fn, array, traffic, extra) -> list[dict]:
    """``array``'s block as the scalar model builds it, row by row."""
    if rows_fn is evaluation_rows:
        return [scalar_row(evaluate(array, t)) for t in traffic]
    assert rows_fn is _scenario_rows
    rows = []
    for pattern in traffic:
        for config in (WriteBufferConfig(**c) for c in extra):
            row = scalar_row(evaluate_with_buffer(array, pattern, config))
            row["scenario"] = config.label
            row["base_workload"] = pattern.name
            rows.append(row)
    return rows


def signature(rows) -> list:
    return [[(key, type(value), repr(value)) for key, value in row.items()]
            for row in rows]


def assert_parity(blocks, expected_blocks):
    blocks = list(blocks)
    assert len(blocks) == len(expected_blocks)
    for rows, expected in zip(blocks, expected_blocks):
        assert signature(rows) == signature(expected)


@pytest.fixture(scope="module")
def study_blocks():
    """Every (arrays, traffic, rows_fn, extra) the listed studies evaluate."""
    calls = {}
    with pytest.MonkeyPatch.context() as patch:
        for name in STUDIES:
            recorded = calls[name] = []

            def record(arrays, traffic, *, rows_fn=None, extra=None, **kwargs):
                recorded.append((list(arrays), tuple(traffic),
                                 rows_fn or evaluation_rows, extra))
                return evaluate_blocks(arrays, traffic, rows_fn=rows_fn,
                                       extra=extra, **kwargs)

            patch.setattr(engine_module, "evaluate_blocks", record)
            assert REGISTRY[name].run(RuntimeOptions(on_error="raise")).ok
    return calls


@pytest.mark.parametrize("name", STUDIES)
def test_study_blocks_match_the_scalar_model(study_blocks, name):
    assert study_blocks[name], f"{name} evaluated no block"
    for arrays, traffic, rows_fn, extra in study_blocks[name]:
        assert_parity(
            evaluate_blocks(arrays, traffic, rows_fn=rows_fn, extra=extra),
            [scalar_block(rows_fn, array, traffic, extra) for array in arrays],
        )


def test_fig12_checks_the_whole_cloud(study_blocks, suite):
    [(arrays, traffic, _, _)] = study_blocks["fig12_area_efficiency"]
    assert len(arrays) * len(traffic) == len(suite.tables["fig12_area_efficiency"])


# --- edge cases --------------------------------------------------------------


@pytest.fixture(scope="module")
def edge_arrays(stt_array_1mb, sram_array_1mb, pcm_optimistic):
    """Limited, unlimited (None) and infinite endurance, two widths."""
    infinite = dataclasses.replace(
        stt_array_1mb,
        cell=dataclasses.replace(stt_array_1mb.cell, endurance_cycles=math.inf))
    wide = characterize(pcm_optimistic, mb(4), node_nm=22,
                        optimization_target=OptimizationTarget.READ_LATENCY,
                        access_bits=512)
    return [stt_array_1mb, sram_array_1mb, infinite, wide]


def _pattern(name, reads=1e7, writes=1e5, access_bytes=8, **kwargs):
    return TrafficPattern(name, reads_per_second=reads, writes_per_second=writes,
                          access_bytes=access_bytes, **kwargs)


EDGE_TRAFFIC = (
    _pattern("plain"),
    _pattern("reads-per-task", reads_per_task=3e4),
    _pattern("writes-per-task", writes_per_task=2e3),
    _pattern("both-per-task", reads_per_task=3e4, writes_per_task=0.0),
    _pattern("zero-writes", writes=0.0, reads_per_task=1e3),
    _pattern("integer-rates", reads=10_000_000, writes=12_345),
    _pattern("wider-than-access", access_bytes=256),
    _pattern("saturating", reads=1e12, writes=1e11, access_bytes=64),
    _pattern("tagged", metadata={"suite": "edge", "workload": "shadowed"}),
)


@pytest.mark.parametrize("mask", [0.0, 0.5, 1.0])
def test_edge_blocks_match_under_every_mask(edge_arrays, mask):
    assert_parity(
        evaluation_rows(edge_arrays, EDGE_TRAFFIC,
                        write_latency_masks=[mask] * len(EDGE_TRAFFIC)),
        [[scalar_row(evaluate(array, t, mask)) for t in EDGE_TRAFFIC]
         for array in edge_arrays],
    )


def test_masks_are_per_pattern(edge_arrays):
    masks = [0.0, 0.5, 1.0] * 3
    assert_parity(
        evaluation_rows(edge_arrays, EDGE_TRAFFIC, write_latency_masks=masks),
        [[scalar_row(evaluate(array, t, m)) for t, m in zip(EDGE_TRAFFIC, masks)]
         for array in edge_arrays],
    )


def test_edges_are_reached(edge_arrays):
    """The edge set covers what it claims: scale > 1, None/inf endurance,
    both sides of ``1.0`` slowdown, tasks and no tasks."""
    [limited, *_] = edge_arrays
    assert EDGE_TRAFFIC[6].access_bytes > limited.access_bytes
    assert edge_arrays[1].endurance_cycles is None
    assert math.isinf(edge_arrays[2].endurance_cycles)
    rows = [row for block in evaluation_rows(edge_arrays, EDGE_TRAFFIC)
            for row in block]
    assert {row["slowdown"] > 1.0 for row in rows} == {True, False}
    assert {row["energy_per_task_uj"] is None for row in rows} == {True, False}
    assert {row["feasible"] for row in rows} == {True, False}


def test_lifetime_around_the_cap(stt_array_1mb):
    """Write rates whose lifetime lands just below, at and above the cap."""
    array = stt_array_1mb
    capacity_bits = array.capacity_bytes * BITS_PER_BYTE
    at_cap = (array.endurance_cycles * capacity_bits
              / (LIFETIME_CAP_SECONDS * 8 * BITS_PER_BYTE))
    rates = [at_cap]
    for _ in range(4):
        rates = [np.nextafter(rates[0], 0.0), *rates, np.nextafter(rates[-1], np.inf)]
    traffic = [_pattern(f"w{i}", writes=float(rate)) for i, rate in enumerate(rates)]
    expected = [[scalar_row(evaluate(array, t)) for t in traffic]]
    lifetimes = [row["lifetime_years"] for row in expected[0]]
    assert None in lifetimes and any(v is not None for v in lifetimes)
    assert_parity(evaluation_rows([array], traffic), expected)


def test_empty_blocks(stt_array_1mb):
    assert list(evaluation_rows([], EDGE_TRAFFIC)) == []
    assert list(evaluation_rows([stt_array_1mb], ())) == [[]]


def test_columns_give_python_cells(edge_arrays):
    columns = evaluate_many(edge_arrays, EDGE_TRAFFIC)
    for name, column in columns.items():
        assert column.shape == (len(edge_arrays), len(EDGE_TRAFFIC))
        cells = [v for row in column.tolist() for v in row]
        assert {type(v) for v in cells} <= {float, bool, type(None)}, name


@pytest.mark.parametrize("mask", [-0.1, 1.5, math.nan])
def test_mask_outside_unit_interval_is_rejected(stt_array_1mb, mask):
    with pytest.raises(EvaluationError):
        evaluate(stt_array_1mb, EDGE_TRAFFIC[0], mask)
    with pytest.raises(EvaluationError):
        evaluate_many([stt_array_1mb], EDGE_TRAFFIC[:1], [mask])
