"""Characterization batch engine bench: >=10x over the seed scalar model.

The cold-cache whole-registry target sweep on the batch engine
(``repro.nvsim.batch``) must run >=10x faster than the seed
implementation (one ``evaluate_organization`` call per candidate lane),
both timed best-of-``REPEATS``.  Exact parity between the two is
tier-1's job (``test_characterize_batch.py``).  This file is a
wall-clock claim, so tier-1 does not collect it (its name does not
start with ``test_``); run it by naming it::

    PYTHONPATH=src python -m pytest benchmarks/speedup_characterize_batch.py -s

Each run appends one entry to the trajectory
``.benchmarks/BENCH_characterize.json`` (gitignored); the tracked
``BENCH_characterize.json`` at the repo root keeps the earlier history.
"""

import gc
import json
import time
from pathlib import Path

from test_characterize_batch import (
    ACCESS_WIDTHS,
    CAPACITIES,
    _batch_sweep,
    _seed_sweep,
    _sweep_cells,
)

from repro.nvsim.organization import candidate_organizations
from repro.nvsim.result import DEFAULT_TARGET_SWEEP
from repro.units import BITS_PER_BYTE

BENCH_PATH = Path(__file__).resolve().parents[1] / ".benchmarks" / "BENCH_characterize.json"

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


def test_batch_speedup_over_seed_model():
    cells = _sweep_cells()
    rows = []
    for access_bits in ACCESS_WIDTHS:
        _, t_seed = _timed(lambda: _seed_sweep(cells, access_bits))
        _, t_batch = _timed(lambda: _batch_sweep(cells, access_bits))
        n_lanes = sum(
            len(cells) * len(list(candidate_organizations(
                capacity * BITS_PER_BYTE, access_bits, 1
            )))
            for capacity in CAPACITIES
        )
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
    assert totals["speedup_vs_seed"] >= 10.0, (
        f"batch engine only {totals['speedup_vs_seed']}x faster than the "
        f"seed scalar model (batch {totals['batch_s']}s vs seed "
        f"{totals['seed_s']}s)"
    )


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
