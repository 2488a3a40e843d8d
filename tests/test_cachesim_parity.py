"""Batch cache-simulation engine: parity with the reference simulator.

The batch engine must be *indistinguishable* from the reference
:class:`repro.cachesim.cache.Cache` — same ``CacheStats`` field-for-field,
same per-access hit/eviction/dirty-writeback flags, same resident dirty
lines — on any geometry and any stream.  Property-based tests drive random
cache geometries x random access streams through both.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cachesim.batch as batch_module
from repro.cachesim import (
    Cache,
    CacheConfig,
    LLCTrace,
    WorkloadModel,
    simulate_batch,
    simulate_llc_traffic,
)
from repro.errors import ConfigError
from repro.runtime import LLCTraceCache, trace_fingerprint
from repro.units import kb


def reference_replay(config, addresses, is_write):
    """Per-access outcomes from the reference simulator."""
    cache = Cache(config)
    hits, evictions, dirty_evictions = [], [], []
    for address, write in zip(addresses, is_write):
        before_e = cache.stats.evictions
        before_d = cache.stats.dirty_evictions
        hits.append(cache.access(int(address), bool(write)))
        evictions.append(cache.stats.evictions > before_e)
        dirty_evictions.append(cache.stats.dirty_evictions > before_d)
    return cache, hits, evictions, dirty_evictions


def assert_parity(config, addresses, is_write):
    reference, hits, evictions, dirty_evictions = reference_replay(
        config, addresses, is_write)
    result = simulate_batch(config, addresses, is_write)
    assert result.stats == reference.stats
    assert result.dirty_lines == reference.dirty_lines()
    assert result.hit.tolist() == hits
    assert result.eviction.tolist() == evictions
    assert result.dirty_eviction.tolist() == dirty_evictions


@st.composite
def geometries(draw):
    line_bytes = draw(st.sampled_from([16, 32, 64]))
    associativity = draw(st.integers(min_value=1, max_value=8))
    n_sets = draw(st.sampled_from([1, 2, 4, 8, 16]))
    return CacheConfig(
        capacity_bytes=line_bytes * associativity * n_sets,
        line_bytes=line_bytes,
        associativity=associativity,
    )


@st.composite
def streams(draw):
    n = draw(st.integers(min_value=0, max_value=200))
    addresses = draw(st.lists(
        st.integers(min_value=0, max_value=4096), min_size=n, max_size=n))
    is_write = draw(st.one_of(
        st.just([True] * n),
        st.lists(st.booleans(), min_size=n, max_size=n),
    ))
    return addresses, is_write


def _parity_with_tail_width(config, stream, tail_width):
    """Run the parity check with the serial-tail cutover pinned.

    ``tail_width=0`` keeps every round on the vectorized matrix-LRU path,
    a huge value forces the serial dict tail for everything; the default
    mixes both depending on geometry.
    """
    saved = batch_module._TAIL_MIN_WIDTH
    batch_module._TAIL_MIN_WIDTH = tail_width
    try:
        addresses, is_write = stream
        assert_parity(config, np.asarray(addresses, dtype=np.int64),
                      np.asarray(is_write, dtype=bool))
    finally:
        batch_module._TAIL_MIN_WIDTH = saved


class TestBatchParity:
    @given(config=geometries(), stream=streams())
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_simulator(self, config, stream):
        """Default settings (vector rounds + serial tail, as dispatched)."""
        addresses, is_write = stream
        assert_parity(config, np.asarray(addresses, dtype=np.int64),
                      np.asarray(is_write, dtype=bool))

    @given(config=geometries(), stream=streams())
    @settings(max_examples=60, deadline=None)
    def test_pure_matrix_rounds(self, config, stream):
        """Every round through the vectorized matrix-LRU path."""
        _parity_with_tail_width(config, stream, tail_width=0)

    @given(config=geometries(), stream=streams())
    @settings(max_examples=60, deadline=None)
    def test_forced_serial_tail(self, config, stream):
        """Everything through the serial dict-tail fallback."""
        _parity_with_tail_width(config, stream, tail_width=1 << 30)

    @given(stream=streams())
    @settings(max_examples=60, deadline=None)
    def test_fully_associative_write_only_path(self, stream):
        """The single-set write-only dispatch (write-buffer coalescing)."""
        addresses, _ = stream
        config = CacheConfig(capacity_bytes=4 * 64, line_bytes=64,
                             associativity=4)
        assert_parity(config, np.asarray(addresses, dtype=np.int64),
                      np.ones(len(addresses), dtype=bool))

    def test_workload_stream_through_both_engines(self):
        model = WorkloadModel("parity", working_set_bytes=kb(512),
                              write_fraction=0.3)
        addresses, is_write = model.batch(20_000, seed=3)
        config = CacheConfig(capacity_bytes=kb(64), associativity=8)
        assert_parity(config, addresses, is_write)

    def test_empty_stream(self):
        config = CacheConfig(capacity_bytes=kb(4), associativity=4)
        result = simulate_batch(config, [], None)
        assert result.stats.accesses == 0
        assert result.dirty_lines == 0
        assert result.n_accesses == 0

    def test_length_mismatch_rejected(self):
        config = CacheConfig(capacity_bytes=kb(4), associativity=4)
        with pytest.raises(ConfigError):
            simulate_batch(config, [0, 64], [True])

    def test_negative_addresses_rejected(self):
        config = CacheConfig(capacity_bytes=kb(4), associativity=4)
        with pytest.raises(ConfigError):
            simulate_batch(config, [-64], [True])


class TestLLCTraceCache:
    def _workload(self):
        return WorkloadModel("cached", working_set_bytes=kb(256),
                             write_fraction=0.3, locality_skew=1.4)

    def test_second_run_loads_persisted_trace(self, tmp_path, monkeypatch):
        workload = self._workload()
        first = simulate_llc_traffic(workload, n_accesses=5_000,
                                     cache_dir=tmp_path)
        assert len(LLCTraceCache(tmp_path)) == 1

        # A cached re-run must not regenerate the stream at all.
        def boom(*args, **kwargs):
            raise AssertionError("stream regenerated despite cache hit")

        monkeypatch.setattr(WorkloadModel, "batch", boom)
        second = simulate_llc_traffic(workload, n_accesses=5_000,
                                      cache_dir=tmp_path)
        assert second == first

    def test_uncached_run_matches_cached(self, tmp_path):
        workload = self._workload()
        cached = simulate_llc_traffic(workload, n_accesses=5_000,
                                      cache_dir=tmp_path)
        plain = simulate_llc_traffic(workload, n_accesses=5_000)
        assert plain == cached

    def test_parameters_participate_in_fingerprint(self, tmp_path):
        workload = self._workload()
        simulate_llc_traffic(workload, n_accesses=5_000, cache_dir=tmp_path)
        simulate_llc_traffic(workload, n_accesses=6_000, cache_dir=tmp_path)
        simulate_llc_traffic(workload, n_accesses=5_000, seed=2,
                             cache_dir=tmp_path)
        assert len(LLCTraceCache(tmp_path)) == 3

    def test_interrupted_suite_resumes(self, tmp_path):
        """A partially-populated cache re-simulates only what is missing."""
        from repro.cachesim.llc import SYNTHETIC_SUITE

        simulate_llc_traffic(SYNTHETIC_SUITE[0], n_accesses=2_000,
                             cache_dir=tmp_path)
        cache = LLCTraceCache(tmp_path)
        assert len(cache) == 1

        for workload in SYNTHETIC_SUITE:
            simulate_llc_traffic(workload, n_accesses=2_000,
                                 cache_dir=tmp_path)
        resumed = LLCTraceCache(tmp_path)
        assert len(resumed) == len(SYNTHETIC_SUITE)
        # The pre-existing entry was loaded, not re-stored.
        for workload in SYNTHETIC_SUITE:
            fingerprint = trace_fingerprint(
                workload, n_accesses=2_000, l2_kb=512, llc_mb=16,
                instructions_per_access=25.0, clock_hz=4.0e9, ipc=2.0, seed=1)
            assert resumed.load(fingerprint) is not None

    def test_corrupt_entry_recomputed(self, tmp_path):
        workload = self._workload()
        first = simulate_llc_traffic(workload, n_accesses=5_000,
                                     cache_dir=tmp_path)
        cache = LLCTraceCache(tmp_path)
        [fingerprint] = list(cache.fingerprints())
        [pack] = tmp_path.glob("*.v3")
        pack.write_text("{not json")
        again = simulate_llc_traffic(workload, n_accesses=5_000,
                                     cache_dir=tmp_path)
        assert again == first
        # The corrupt pack was quarantined and the recomputed store wrote
        # it afresh under the same name.
        assert (tmp_path / "quarantine" / pack.name).read_text() == "{not json"
        assert LLCTraceCache(tmp_path).load(fingerprint) == first

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        workload = self._workload()
        trace = simulate_llc_traffic(workload, n_accesses=5_000,
                                     cache_dir=tmp_path)
        stale = LLCTraceCache(tmp_path, schema_tag="llc-trace-v0")
        [fingerprint] = list(stale.fingerprints())
        assert stale.load(fingerprint) is None
        assert stale.misses == 1
        assert LLCTraceCache(tmp_path).load(fingerprint) == trace

    def test_trace_roundtrips_through_payload(self):
        trace = LLCTrace(name="t", llc_reads=10, llc_writes=4,
                         instructions=1e6, duration=0.25, llc_hits=3)
        assert LLCTrace.from_dict(trace.to_dict()) == trace
