"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cachesim import Cache, CacheConfig
from repro.cells import CellTechnology, TechnologyClass
from repro.core.pareto import pareto_front
from repro.faults.encodings import (
    cells_to_bits,
    from_bit_array,
    slice_into_cells,
    to_bit_array,
)
from repro.faults.injection import inject_bits
from repro.nvsim.organization import candidate_organizations
from repro.results import ResultTable
from repro.tech import horowitz
from repro.traffic import TrafficPattern

# --- strategies -------------------------------------------------------------

positive_small = st.floats(min_value=1e-12, max_value=1e3,
                           allow_nan=False, allow_infinity=False)

cell_strategy = st.builds(
    CellTechnology,
    name=st.just("hypothesis-cell"),
    tech_class=st.sampled_from([TechnologyClass.RRAM, TechnologyClass.STT,
                                TechnologyClass.PCM]),
    area_f2=st.floats(min_value=1.0, max_value=200.0),
    read_voltage=st.floats(min_value=0.05, max_value=2.0),
    read_current=st.floats(min_value=1e-7, max_value=1e-3),
    read_pulse=st.floats(min_value=1e-10, max_value=1e-6),
    write_voltage=st.floats(min_value=0.1, max_value=5.0),
    set_current=st.floats(min_value=1e-8, max_value=1e-3),
    reset_current=st.floats(min_value=1e-8, max_value=1e-3),
    set_pulse=st.floats(min_value=1e-10, max_value=1e-4),
    reset_pulse=st.floats(min_value=1e-10, max_value=1e-4),
    r_on=st.floats(min_value=1e2, max_value=1e5),
)


class TestCellProperties:
    @given(cell=cell_strategy)
    def test_energies_always_positive(self, cell):
        assert cell.read_energy_per_bit > 0
        assert cell.write_energy_per_bit > 0
        assert cell.write_pulse == max(cell.set_pulse, cell.reset_pulse)

    @given(cell=cell_strategy, feature=st.sampled_from([7e-9, 22e-9, 65e-9]))
    def test_dimensions_multiply_to_area(self, cell, feature):
        w, h = cell.cell_dimensions(feature)
        assert math.isclose(w * h, cell.cell_area(feature), rel_tol=1e-9)


class TestEncodingProperties:
    @given(st.lists(st.integers(min_value=-128, max_value=127),
                    min_size=1, max_size=64))
    def test_bit_roundtrip(self, values):
        arr = np.array(values, dtype=np.int8)
        assert np.array_equal(from_bit_array(to_bit_array(arr), arr.shape), arr)

    @given(
        st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=128),
        st.integers(min_value=1, max_value=4),
    )
    def test_cell_slicing_roundtrip(self, bits, bpc):
        arr = np.array(bits, dtype=np.uint8)
        levels = slice_into_cells(arr, bpc)
        back = cells_to_bits(levels, bpc, arr.size)
        assert np.array_equal(back, arr)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.0, max_value=0.3),
        st.sampled_from([1, 2]),
    )
    @settings(max_examples=30)
    def test_injection_preserves_length_and_alphabet(self, seed, rate, bpc):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=256).astype(np.uint8)
        out = inject_bits(bits, rate, bpc, rng)
        assert out.shape == bits.shape
        assert set(np.unique(out)) <= {0, 1}


class TestTrafficProperties:
    @given(
        reads=st.floats(min_value=0, max_value=1e12),
        writes=st.floats(min_value=0, max_value=1e12),
        access=st.sampled_from([1, 8, 64, 512]),
    )
    def test_bandwidth_consistency(self, reads, writes, access):
        t = TrafficPattern("p", reads, writes, access_bytes=access)
        assert math.isclose(t.read_bandwidth, reads * access)
        assert 0.0 <= t.read_fraction <= 1.0

    @given(
        reads=st.floats(min_value=1e-3, max_value=1e9),
        writes=st.floats(min_value=1e-3, max_value=1e9),
        factor=st.floats(min_value=0.0, max_value=2.0),
    )
    def test_scaling_is_linear(self, reads, writes, factor):
        t = TrafficPattern("p", reads, writes)
        scaled = t.scaled(write_factor=factor)
        assert math.isclose(scaled.writes_per_second, writes * factor)
        assert scaled.reads_per_second == reads


class TestOrganizationProperties:
    @given(
        capacity_mb=st.sampled_from([1, 2, 4, 8]),
        access_bits=st.sampled_from([8, 64, 512]),
        bpc=st.sampled_from([1, 2]),
    )
    @settings(max_examples=20, deadline=None)
    def test_candidates_always_cover_capacity(self, capacity_mb, access_bits, bpc):
        capacity_bits = capacity_mb * 1024 * 1024 * 8
        orgs = list(candidate_organizations(capacity_bits, access_bits, bpc))
        assert orgs
        for org in orgs:
            assert org.total_bits >= capacity_bits
            assert org.active_subarrays * org.bits_per_activation >= access_bits
            assert 1 <= org.concurrency <= 16


class TestHorowitzProperties:
    @given(ramp=positive_small, tau=positive_small)
    def test_delay_at_least_step_response(self, ramp, tau):
        assert horowitz(ramp, tau) >= horowitz(0.0, tau) * (1 - 1e-9)

    @given(tau=positive_small)
    def test_monotone_in_ramp(self, tau):
        assert horowitz(2e-9, tau) >= horowitz(1e-9, tau)


class TestCacheProperties:
    @given(
        addresses=st.lists(st.integers(min_value=0, max_value=2**20),
                           min_size=1, max_size=300),
        writes=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_counter_consistency(self, addresses, writes):
        cache = Cache(CacheConfig(capacity_bytes=8 * 64, line_bytes=64,
                                  associativity=2))
        for addr in addresses:
            cache.access(addr, is_write=writes)
        stats = cache.stats
        assert stats.accesses == len(addresses)
        assert stats.hits + stats.misses == stats.accesses
        assert stats.dirty_evictions <= stats.evictions
        assert 0.0 <= stats.miss_rate <= 1.0

    @given(addresses=st.lists(st.integers(min_value=0, max_value=2**16),
                              min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_repeat_access_hits(self, addresses):
        cache = Cache(CacheConfig(capacity_bytes=64 * 64, line_bytes=64,
                                  associativity=64))  # fully associative, big
        assume(len(set(a // 64 for a in addresses)) <= 64)
        for addr in addresses:
            cache.access(addr)
        cache.reset_stats()
        for addr in addresses:
            assert cache.access(addr) is True


class TestParetoProperties:
    @given(
        st.lists(
            st.fixed_dictionaries(
                {"x": st.floats(min_value=0, max_value=100),
                 "y": st.floats(min_value=0, max_value=100)}
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=40)
    def test_front_is_mutually_nondominated(self, records):
        front = pareto_front(records, ["x", "y"])
        assert front  # at least one record survives
        for a in front:
            for b in front:
                strictly_better = (
                    a["x"] <= b["x"] and a["y"] <= b["y"]
                    and (a["x"] < b["x"] or a["y"] < b["y"])
                )
                assert not strictly_better or (a is b) or (
                    a["x"] == b["x"] and a["y"] == b["y"]
                )

    @given(
        st.lists(
            st.fixed_dictionaries({"x": st.floats(0, 10), "y": st.floats(0, 10)}),
            min_size=1, max_size=20,
        )
    )
    @settings(max_examples=40)
    def test_front_members_come_from_input(self, records):
        front = pareto_front(records, ["x", "y"])
        for record in front:
            assert {"x": record["x"], "y": record["y"]} in [
                {"x": r["x"], "y": r["y"]} for r in records
            ]


class TestResultTableProperties:
    @given(
        st.lists(
            st.fixed_dictionaries(
                {"k": st.sampled_from(["a", "b", "c"]),
                 "v": st.floats(min_value=-1e6, max_value=1e6)}
            ),
            max_size=50,
        )
    )
    def test_csv_roundtrip(self, records):
        table = ResultTable(records)
        back = ResultTable.from_csv(table.to_csv())
        assert len(back) == len(table)
        for original, parsed in zip(table, back):
            assert parsed["k"] == original["k"]
            assert math.isclose(parsed["v"], original["v"], rel_tol=1e-9, abs_tol=1e-9)

    @given(
        st.lists(
            st.fixed_dictionaries({"v": st.integers(-1000, 1000)}),
            min_size=1, max_size=50,
        )
    )
    def test_sort_by_orders(self, records):
        table = ResultTable(records).sort_by("v")
        values = table.column("v")
        assert values == sorted(values)
