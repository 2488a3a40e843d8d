"""Cache-sim batch engine bench: >=10x over the seed LLC pipeline.

Regenerating the 200k-access synthetic suite's LLC traces with the batch
pipeline (``simulate_llc_traffic``) must run >=10x faster than the seed
implementation it replaced (per-access generators with an
``rng.choices`` interleave feeding dict caches).  The reference
simulator on the batch streams is timed too, for the record.  Every
pipeline is timed best-of-``REPEATS``.  Exact parity is tier-1's job
(``test_cachesim_batch.py``).  This file is a wall-clock claim, so
tier-1 does not collect it (its name does not start with ``test_``);
run it by naming it::

    PYTHONPATH=src python -m pytest benchmarks/speedup_cachesim_batch.py -s

Each run appends one entry to the trajectory
``.benchmarks/BENCH_cachesim.json`` (gitignored); the tracked
``BENCH_cachesim.json`` at the repo root keeps the earlier history.
"""

import gc
import json
import random
import time
from pathlib import Path

import numpy as np
from test_cachesim_batch import N_ACCESSES, _dict_pipeline

from repro.cachesim import SYNTHETIC_SUITE, simulate_llc_traffic

BENCH_PATH = Path(__file__).resolve().parents[1] / ".benchmarks" / "BENCH_cachesim.json"


# --- the seed implementation, kept verbatim as the speedup baseline -------


def _seed_sequential_stream(n_accesses, stride_bytes=64, write_fraction=0.0,
                            seed=1):
    rng = random.Random(seed)
    addr = 0
    for _ in range(n_accesses):
        yield addr, rng.random() < write_fraction
        addr += stride_bytes


def _seed_zipfian_stream(n_accesses, working_set_bytes, line_bytes=64,
                         skew=1.1, write_fraction=0.2, seed=1):
    n_lines = max(1, working_set_bytes // line_bytes)
    rng = np.random.default_rng(seed)
    lines = rng.zipf(skew, size=n_accesses) % n_lines
    writes = rng.random(n_accesses) < write_fraction
    for line, is_write in zip(lines, writes):
        yield int(line) * line_bytes, bool(is_write)


def _seed_workload_stream(workload, n_accesses, seed=1):
    n_stream = int(n_accesses * workload.streaming_fraction)
    n_zipf = n_accesses - n_stream
    zipf = _seed_zipfian_stream(
        n_zipf, workload.working_set_bytes, skew=workload.locality_skew,
        write_fraction=workload.write_fraction, seed=seed)
    seq = _seed_sequential_stream(
        n_stream, write_fraction=workload.write_fraction, seed=seed + 1)
    rng = random.Random(seed + 2)
    iters = [iter(zipf), iter(seq)]
    weights = [n_zipf, n_stream]
    while any(w > 0 for w in weights):
        choice = rng.choices([0, 1], weights=[max(w, 0) for w in weights])[0]
        if weights[choice] <= 0:
            continue
        weights[choice] -= 1
        try:
            yield next(iters[choice])
        except StopIteration:
            weights[choice] = 0


#: Every pipeline (batch, reference, seed) is timed best-of-REPEATS so
#: the published speedups compare like for like.
REPEATS = 2


def _timed(make_run, repeats=REPEATS):
    """Best-of-``repeats`` wall time of ``make_run()`` (a fresh run each
    call, so consumed iterators are rebuilt inside the timed region)."""
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


def test_batch_speedup_over_seed_pipeline():
    rows = []
    for workload in SYNTHETIC_SUITE:
        workload.batch(N_ACCESSES, seed=1)  # memoize the zipf block sums (pass 1)
        addresses, is_write = workload.batch(N_ACCESSES, seed=1)
        _, t_reference = _timed(
            lambda: _dict_pipeline(
                zip(addresses.tolist(), is_write.tolist())))
        trace, t_batch = _timed(
            lambda: simulate_llc_traffic(workload, N_ACCESSES))
        (seed_reads, _, _, _), t_seed = _timed(
            lambda: _dict_pipeline(
                _seed_workload_stream(workload, N_ACCESSES)))
        assert seed_reads > 0  # the baseline really simulated something

        rows.append({
            "workload": workload.name,
            "llc_reads": trace.llc_reads,
            "llc_writes": trace.llc_writes,
            "llc_hit_rate": round(trace.llc_hit_rate, 4),
            "batch_s": round(t_batch, 4),
            "reference_s": round(t_reference, 4),
            "seed_pipeline_s": round(t_seed, 4),
            "speedup_vs_seed": round(t_seed / t_batch, 2),
            "speedup_vs_reference": round(t_reference / t_batch, 2),
        })

    totals = {
        "batch_s": round(sum(r["batch_s"] for r in rows), 4),
        "reference_s": round(sum(r["reference_s"] for r in rows), 4),
        "seed_pipeline_s": round(sum(r["seed_pipeline_s"] for r in rows), 4),
    }
    totals["speedup_vs_seed"] = round(
        totals["seed_pipeline_s"] / totals["batch_s"], 2)
    totals["speedup_vs_reference"] = round(
        totals["reference_s"] / totals["batch_s"], 2)

    print(f"\n=== Batch cache-sim engine ({N_ACCESSES} accesses/workload) ===")
    print(f"{'workload':22s} {'batch':>8s} {'refsim':>8s} {'seed':>8s} "
          f"{'vs seed':>8s} {'vs ref':>7s}")
    for r in rows:
        print(f"{r['workload']:22s} {r['batch_s'] * 1e3:6.1f}ms "
              f"{r['reference_s'] * 1e3:6.1f}ms {r['seed_pipeline_s'] * 1e3:6.1f}ms "
              f"{r['speedup_vs_seed']:7.1f}x {r['speedup_vs_reference']:6.1f}x")
    print(f"{'suite total':22s} {totals['batch_s'] * 1e3:6.1f}ms "
          f"{totals['reference_s'] * 1e3:6.1f}ms "
          f"{totals['seed_pipeline_s'] * 1e3:6.1f}ms "
          f"{totals['speedup_vs_seed']:7.1f}x "
          f"{totals['speedup_vs_reference']:6.1f}x")

    _write_trajectory(rows, totals)
    assert totals["speedup_vs_seed"] >= 10.0, (
        f"batch pipeline only {totals['speedup_vs_seed']}x faster than the "
        f"seed pipeline (batch {totals['batch_s']}s vs seed "
        f"{totals['seed_pipeline_s']}s)"
    )


def _write_trajectory(rows, totals):
    entry = {
        "schema": "bench-cachesim-v1",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "n_accesses": N_ACCESSES,
        "workloads": rows,
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
        {"schema": "bench-cachesim-v1", "runs": runs[-50:]}, indent=2))
