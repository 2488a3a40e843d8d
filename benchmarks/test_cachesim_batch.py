"""Cache-sim batch engine bench: exact parity with the reference simulator.

On the full 200k-access synthetic suite, the vectorized batch engine's
(``repro.cachesim.batch``) L2 and LLC ``CacheStats`` equal the reference
one-access-at-a-time simulator's field-for-field on identical streams,
and ``simulate_llc_traffic`` reports the same LLC reads, writes and hits.

The >=10x speedup over the seed pipeline is a wall-clock claim, so it is
asserted outside tier-1, in ``speedup_cachesim_batch.py`` (run it by
naming the file: ``pytest benchmarks/speedup_cachesim_batch.py``).
"""

import numpy as np

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


def test_batch_parity():
    for workload in SYNTHETIC_SUITE:
        addresses, is_write = workload.batch(N_ACCESSES, seed=1)
        ref_reads, ref_writes, ref_l2, ref_llc = _dict_pipeline(
            zip(addresses.tolist(), is_write.tolist()))

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

        trace = simulate_llc_traffic(workload, N_ACCESSES)
        assert trace.llc_reads == ref_reads == int(miss_positions.size)
        assert trace.llc_writes == ref_writes == int(
            np.count_nonzero(writeback))
        assert trace.llc_hits == ref_llc.hits
