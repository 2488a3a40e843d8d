"""Characterization batch engine bench: exact parity + >=10x speedup.

Two contracts for the structure-of-arrays nvsim engine
(``repro.nvsim.batch``):

* **Parity** — the whole-registry target sweep (every study cell plus
  16 nm SRAM, every default optimization target, word and cache-line
  access widths) produces *identical* winners to the seed scalar
  characterizer it replaced: same organization, same eight
  ``ArrayNumbers`` fields, compared with ``==`` (runs on CI too).
* **Speedup** — the cold-cache sweep on the batch engine is >=10x
  faster than the seed implementation (one ``evaluate_organization``
  call per candidate lane).  Timings land in
  ``.benchmarks/BENCH_characterize.json`` (gitignored) as a trajectory
  (one entry appended per run).  The
  assertion is skipped on CI, whose shared runners time too noisily;
  the JSON is still produced and uploaded as an artifact.
"""

import gc
import json
import os
import time
from pathlib import Path

import pytest

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
#: Run records go to the gitignored ``.benchmarks/``, so running the tests
#: leaves the tree clean; the tracked ``BENCH_characterize.json`` at the repo root keeps
#: the earlier trajectory as history.
BENCH_PATH = Path(__file__).resolve().parents[1] / ".benchmarks" / "BENCH_characterize.json"

#: Shared between the parity test (which measures) and the speedup test
#: (which asserts), in file order.
RESULTS: dict = {}


def _sweep_cells():
    return list(study_cells()) + [sram_cell(SRAM_NODE_NM)]


def _node_for(cell):
    return ENVM_NODE_NM if cell.tech_class.is_nonvolatile else SRAM_NODE_NM


# --- the seed implementation, kept verbatim as the speedup baseline -------


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


#: Both sweeps are timed best-of-REPEATS so the published speedups compare
#: like for like.
REPEATS = 2


def _timed(make_run, repeats=REPEATS):
    """Best-of-``repeats`` wall time of ``make_run()`` (a fresh cold run
    each call)."""
    best = None
    result = None
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            result = make_run()
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
    finally:
        gc.enable()
    return result, best


def test_batch_parity_and_timing():
    cells = _sweep_cells()
    rows = []
    for access_bits in ACCESS_WIDTHS:
        seed_results, t_seed = _timed(lambda: _seed_sweep(cells, access_bits))
        batch_results, t_batch = _timed(lambda: _batch_sweep(cells, access_bits))

        # --- parity: same winners, same numbers, exact equality ----------
        assert len(batch_results) == len(seed_results)
        n_lanes = 0
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
        for capacity in CAPACITIES:
            n_lanes += len(cells) * len(list(candidate_organizations(
                capacity * BITS_PER_BYTE, access_bits, 1
            )))

        rows.append({
            "access_bits": access_bits,
            "cells": len(cells),
            "targets": len(DEFAULT_TARGET_SWEEP),
            "candidate_lanes": n_lanes,
            "batch_s": round(t_batch, 4),
            "seed_s": round(t_seed, 4),
            "speedup_vs_seed": round(t_seed / t_batch, 2),
        })

    totals = {
        "batch_s": round(sum(r["batch_s"] for r in rows), 4),
        "seed_s": round(sum(r["seed_s"] for r in rows), 4),
    }
    totals["speedup_vs_seed"] = round(totals["seed_s"] / totals["batch_s"], 2)
    RESULTS["rows"] = rows
    RESULTS["totals"] = totals

    print(f"\n=== Batch characterization engine "
          f"({len(cells)} cells x {len(CAPACITIES)} capacities x "
          f"{len(DEFAULT_TARGET_SWEEP)} targets) ===")
    print(f"{'access':>8s} {'lanes':>7s} {'batch':>9s} {'seed':>9s} "
          f"{'vs seed':>8s}")
    for r in rows:
        print(f"{r['access_bits']:>5d}bit {r['candidate_lanes']:>7d} "
              f"{r['batch_s'] * 1e3:7.1f}ms {r['seed_s'] * 1e3:7.1f}ms "
              f"{r['speedup_vs_seed']:7.1f}x")
    print(f"{'total':>8s} {'':>7s} {totals['batch_s'] * 1e3:7.1f}ms "
          f"{totals['seed_s'] * 1e3:7.1f}ms "
          f"{totals['speedup_vs_seed']:7.1f}x")

    _write_trajectory(rows, totals)


def _write_trajectory(rows, totals):
    entry = {
        "schema": "bench-characterize-v1",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "capacities_bytes": list(CAPACITIES),
        "sweeps": rows,
        "totals": totals,
    }
    runs = []
    if BENCH_PATH.exists():
        try:
            previous = json.loads(BENCH_PATH.read_text())
            runs = previous.get("runs", [])
        except (OSError, json.JSONDecodeError):
            runs = []
    runs.append(entry)
    BENCH_PATH.parent.mkdir(exist_ok=True)
    BENCH_PATH.write_text(json.dumps(
        {"schema": "bench-characterize-v1", "runs": runs[-50:]}, indent=2))


@pytest.mark.skipif(bool(os.environ.get("CI")),
                    reason="wall-clock speedup is asserted locally only")
def test_batch_speedup_over_seed_model():
    assert RESULTS, "parity test must run first (same file, file order)"
    totals = RESULTS["totals"]
    assert totals["speedup_vs_seed"] >= 10.0, (
        f"batch engine only {totals['speedup_vs_seed']}x faster than the "
        f"seed scalar model (batch {totals['batch_s']}s vs seed "
        f"{totals['seed_s']}s)"
    )
