"""Cache-sim batch engine bench: exact parity + >=10x pipeline speedup.

Two contracts for the vectorized batch engine (``repro.cachesim.batch``):

* **Parity** — on the full 200k-access synthetic suite, the batch engine's
  L2 and LLC ``CacheStats`` equal the reference one-access-at-a-time
  simulator field-for-field on identical streams (runs on CI too).
* **Speedup** — regenerating the suite's LLC traces with the batch
  pipeline is >=10x faster than the seed implementation it replaced
  (per-access generators with an ``rng.choices`` interleave feeding dict
  caches).  Timings land in ``.benchmarks/BENCH_cachesim.json`` (gitignored)
  as a trajectory (one entry appended per run).  The assertion is skipped on
  CI, whose shared runners time too noisily; the JSON is still produced
  and uploaded as an artifact.
"""

import gc
import json
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cachesim import (
    SYNTHETIC_SUITE,
    Cache,
    CacheConfig,
    simulate_batch,
    simulate_llc_traffic,
)
from repro.units import mb

N_ACCESSES = 200_000
L2_CONFIG = CacheConfig(capacity_bytes=512 * 1024, associativity=8)
LLC_CONFIG = CacheConfig(capacity_bytes=mb(16), associativity=16)
#: Run records go to the gitignored ``.benchmarks/``, so running the tests
#: leaves the tree clean; the tracked ``BENCH_cachesim.json`` at the repo root keeps
#: the earlier trajectory as history.
BENCH_PATH = Path(__file__).resolve().parents[1] / ".benchmarks" / "BENCH_cachesim.json"

#: Shared between the parity test (which measures) and the speedup test
#: (which asserts), in file order.
RESULTS: dict = {}


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


def _dict_pipeline(stream):
    """The seed LLC derivation: one access at a time through dict caches."""
    l2 = Cache(L2_CONFIG)
    llc = Cache(LLC_CONFIG)
    llc_reads = llc_writes = 0
    for address, is_write in stream:
        dirty_before = l2.stats.dirty_evictions
        if not l2.access(address, is_write):
            llc.access(address, is_write=False)
            llc_reads += 1
        if l2.stats.dirty_evictions > dirty_before:
            llc.access(address, is_write=True)
            llc_writes += 1
    return llc_reads, llc_writes, l2.stats, llc.stats


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


def test_batch_parity_and_timing():
    rows = []
    for workload in SYNTHETIC_SUITE:
        workload.batch(N_ACCESSES, seed=1)  # memoize the zipf block sums (pass 1)

        # --- parity: batch engine vs reference simulator, same streams ---
        addresses, is_write = workload.batch(N_ACCESSES, seed=1)
        (ref_reads, ref_writes, ref_l2, ref_llc), t_reference = _timed(
            lambda: _dict_pipeline(
                zip(addresses.tolist(), is_write.tolist())))

        l2 = simulate_batch(L2_CONFIG, addresses, is_write)
        assert l2.stats == ref_l2

        miss_positions = np.flatnonzero(~l2.hit)
        writeback = l2.dirty_eviction[miss_positions]
        events = 1 + writeback.astype(np.int64)
        llc_addresses = np.repeat(addresses[miss_positions], events)
        llc_is_write = np.zeros(llc_addresses.size, dtype=bool)
        llc_is_write[np.cumsum(events)[writeback] - 1] = True
        llc = simulate_batch(LLC_CONFIG, llc_addresses, llc_is_write)
        assert llc.stats == ref_llc

        trace, t_batch = _timed(
            lambda: simulate_llc_traffic(workload, N_ACCESSES))
        assert trace.llc_reads == ref_reads == int(miss_positions.size)
        assert trace.llc_writes == ref_writes == int(
            np.count_nonzero(writeback))
        assert trace.llc_hits == ref_llc.hits

        # --- speedup baseline: the seed pipeline this PR replaced --------
        (seed_reads, seed_writes, _, _), t_seed = _timed(
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
    RESULTS["rows"] = rows
    RESULTS["totals"] = totals

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


@pytest.mark.skipif(bool(os.environ.get("CI")),
                    reason="wall-clock speedup is asserted locally only")
def test_batch_speedup_over_seed_pipeline():
    assert RESULTS, "parity test must run first (same file, file order)"
    totals = RESULTS["totals"]
    assert totals["speedup_vs_seed"] >= 10.0, (
        f"batch pipeline only {totals['speedup_vs_seed']}x faster than the "
        f"seed pipeline (batch {totals['batch_s']}s vs seed "
        f"{totals['seed_pipeline_s']}s)"
    )
