"""Cache simulator and address stream tests."""

from collections import Counter

import numpy as np
import pytest

from repro.cachesim import (
    SYNTHETIC_SUITE,
    Cache,
    CacheConfig,
    WorkloadModel,
    sequential_batch,
    simulate_llc_traffic,
    strided_batch,
    zipfian_batch,
)
from repro.errors import ConfigError
from repro.units import kb, mb


class TestCacheConfig:
    def test_geometry(self):
        config = CacheConfig(capacity_bytes=kb(64), line_bytes=64, associativity=4)
        assert config.n_lines == 1024
        assert config.n_sets == 256

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(capacity_bytes=1000, line_bytes=64)  # not a multiple
        with pytest.raises(ConfigError):
            CacheConfig(capacity_bytes=0)
        with pytest.raises(ConfigError):
            CacheConfig(capacity_bytes=kb(1), line_bytes=64, associativity=32)


class TestCacheBehaviour:
    def _tiny(self) -> Cache:
        return Cache(CacheConfig(capacity_bytes=4 * 64, line_bytes=64, associativity=2))

    def test_cold_miss_then_hit(self):
        cache = self._tiny()
        assert cache.access(0) is False
        assert cache.access(0) is True
        assert cache.stats.read_misses == 1
        assert cache.stats.read_hits == 1

    def test_same_line_offsets_hit(self):
        cache = self._tiny()
        cache.access(0)
        assert cache.access(63) is True  # same 64 B line
        assert cache.access(64) is False  # next line

    def test_lru_eviction(self):
        cache = self._tiny()  # 2 sets x 2 ways
        set_stride = 2 * 64  # addresses mapping to set 0
        cache.access(0 * set_stride)
        cache.access(1 * set_stride)
        cache.access(2 * set_stride)  # evicts line 0 (LRU)
        assert cache.access(0 * set_stride) is False
        assert cache.stats.evictions >= 1

    def test_lru_refresh_on_hit(self):
        cache = self._tiny()
        s = 2 * 64
        cache.access(0 * s)
        cache.access(1 * s)
        cache.access(0 * s)  # refresh 0 -> 1 becomes LRU
        cache.access(2 * s)  # should evict 1, not 0
        assert cache.access(0 * s) is True

    def test_writeback_counts_dirty_evictions(self):
        cache = self._tiny()
        s = 2 * 64
        cache.access(0 * s, is_write=True)
        cache.access(1 * s)
        cache.access(2 * s)  # evicts dirty line 0
        assert cache.stats.dirty_evictions == 1

    def test_clean_eviction_not_counted_dirty(self):
        cache = self._tiny()
        s = 2 * 64
        cache.access(0 * s)
        cache.access(1 * s)
        cache.access(2 * s)
        assert cache.stats.dirty_evictions == 0
        assert cache.stats.evictions == 1

    def test_dirty_lines_resident(self):
        cache = self._tiny()
        cache.access(0, is_write=True)
        cache.access(64, is_write=True)
        assert cache.dirty_lines() == 2

    def test_run_replays_stream(self):
        cache = self._tiny()
        stats = cache.run([(0, False), (0, True), (64, False)])
        assert stats.accesses == 3
        assert stats.hits == 1

    def test_miss_rate(self):
        cache = self._tiny()
        cache.access(0)
        cache.access(0)
        assert cache.stats.miss_rate == pytest.approx(0.5)


class TestStreams:
    def test_sequential_addresses(self):
        addresses, _ = sequential_batch(5, stride_bytes=64)
        assert addresses.tolist() == [0, 64, 128, 192, 256]

    def test_strided_wraps(self):
        addresses, _ = strided_batch(4, 64, working_set_bytes=128)
        assert addresses.tolist() == [0, 64, 0, 64]

    def test_zipfian_respects_working_set(self):
        addresses, _ = zipfian_batch(500, working_set_bytes=kb(4))
        assert ((addresses >= 0) & (addresses < kb(4))).all()

    def test_write_fraction_approximate(self):
        _, is_write = zipfian_batch(5000, kb(64), write_fraction=0.3)
        assert 0.2 < np.count_nonzero(is_write) / 5000 < 0.4

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            zipfian_batch(10, kb(4), skew=1.0)
        with pytest.raises(ConfigError):
            sequential_batch(10, write_fraction=1.5)

    def test_workload_model_mixes_deterministically(self):
        model = WorkloadModel("m", working_set_bytes=kb(64), write_fraction=0.2)
        addresses, is_write = model.batch(1000, seed=5)
        again_addresses, again_is_write = model.batch(1000, seed=5)
        np.testing.assert_array_equal(addresses, again_addresses)
        np.testing.assert_array_equal(is_write, again_is_write)
        assert len(addresses) == len(is_write) == 1000
        assert addresses.dtype == np.int64
        assert is_write.dtype == bool

    def test_zipfian_hottest_lines_are_lowest_ranks(self):
        """The modulo-wrap fix: heat decreases monotonically with the line
        number instead of aliasing the tail onto arbitrary lines."""
        addresses, _ = zipfian_batch(
            20_000, working_set_bytes=kb(64), skew=1.3)
        counts = Counter(addresses.tolist())
        assert counts.most_common(1)[0][0] == 0
        top_eight = sum(counts[line * 64] for line in range(8))
        assert top_eight > 0.4 * 20_000

    def test_workload_batch_interleaves_both_streams(self):
        model = WorkloadModel("m", working_set_bytes=mb(4),
                              write_fraction=0.0, streaming_fraction=0.5)
        addresses, _ = model.batch(2000, seed=1)
        zipf_addresses, _ = zipfian_batch(
            1000, mb(4), skew=model.locality_skew, write_fraction=0.0, seed=1)
        scan_addresses, _ = sequential_batch(1000, write_fraction=0.0, seed=2)
        assert Counter(addresses.tolist()) == \
            Counter(zipf_addresses.tolist()) + Counter(scan_addresses.tolist())


class TestLLCDerivation:
    def test_cache_friendly_workload_misses_less(self):
        friendly = WorkloadModel("friendly", working_set_bytes=kb(256),
                                 write_fraction=0.2, locality_skew=2.0,
                                 streaming_fraction=0.0)
        hostile = WorkloadModel("hostile", working_set_bytes=mb(64),
                                write_fraction=0.2, locality_skew=1.05,
                                streaming_fraction=0.6)
        t_friendly = simulate_llc_traffic(friendly, n_accesses=20_000)
        t_hostile = simulate_llc_traffic(hostile, n_accesses=20_000)
        assert t_hostile.read_mpki > t_friendly.read_mpki

    def test_trace_to_traffic(self):
        model = WorkloadModel("m", working_set_bytes=mb(4), write_fraction=0.25)
        trace = simulate_llc_traffic(model, n_accesses=10_000)
        traffic = trace.traffic()
        assert traffic.access_bytes == 64
        assert traffic.reads_per_second >= 0

    def test_synthetic_suite_spans_behaviour(self):
        suite = [simulate_llc_traffic(w, n_accesses=15_000).traffic()
                 for w in SYNTHETIC_SUITE]
        assert len(suite) == 4
        rates = sorted(p.reads_per_second for p in suite)
        assert rates[-1] > 3 * rates[0]
