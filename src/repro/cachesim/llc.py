"""Regenerating LLC traffic tables with the cache simulator.

The SPEC characterization table (:mod:`repro.traffic.spec`) ships fixed
numbers; this module shows the same numbers can be *derived*: run a
parameterized synthetic workload through an L2+LLC hierarchy and read the
LLC's miss/writeback rates off the counters.  The studies accept traffic
from either source.

Simulation runs on the vectorized batch engine
(:mod:`repro.cachesim.batch`): the workload's whole address array goes
through the L2 at once, and the L2's per-access miss / dirty-writeback
flags are expanded into the LLC's access stream.  Pass ``cache_dir`` to
persist regenerated traces in the content-addressed runtime cache
(:class:`repro.runtime.cache.LLCTraceCache`), keyed by a fingerprint of
the workload and simulation parameters, so repeated study runs skip
simulation entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional, Union

import numpy as np

from repro.cachesim.batch import simulate_batch
from repro.cachesim.cache import CacheConfig
from repro.cachesim.streams import WorkloadModel
from repro.traffic.base import TrafficPattern
from repro.units import mb


@dataclass(frozen=True)
class LLCTrace:
    """LLC-level access statistics extracted from a simulation."""

    name: str
    llc_reads: int  # LLC lookups from L2 misses
    llc_writes: int  # dirty writebacks arriving from L2
    instructions: float  # modeled instruction count
    duration: float  # modeled execution time, seconds
    llc_hits: int = 0  # LLC lookups served without going to memory

    @property
    def read_mpki(self) -> float:
        return 1000.0 * self.llc_reads / self.instructions

    @property
    def llc_hit_rate(self) -> float:
        accesses = self.llc_reads + self.llc_writes
        return self.llc_hits / accesses if accesses else 0.0

    def traffic(self, line_bytes: int = 64) -> TrafficPattern:
        return TrafficPattern.from_totals(
            name=self.name,
            total_reads=self.llc_reads,
            total_writes=self.llc_writes,
            duration=self.duration,
            access_bytes=line_bytes,
            metadata={"kind": "cachesim-llc"},
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-able payload for the persistent trace cache."""
        return {
            "name": self.name,
            "llc_reads": self.llc_reads,
            "llc_writes": self.llc_writes,
            "instructions": self.instructions,
            "duration": self.duration,
            "llc_hits": self.llc_hits,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "LLCTrace":
        return cls(
            name=str(payload["name"]),
            llc_reads=int(payload["llc_reads"]),
            llc_writes=int(payload["llc_writes"]),
            instructions=float(payload["instructions"]),
            duration=float(payload["duration"]),
            llc_hits=int(payload.get("llc_hits", 0)),
        )


def simulate_llc_traffic(
    workload: WorkloadModel,
    n_accesses: int = 200_000,
    l2_kb: int = 512,
    llc_mb: int = 16,
    instructions_per_access: float = 25.0,
    clock_hz: float = 4.0e9,
    ipc: float = 2.0,
    seed: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    cache=None,
) -> LLCTrace:
    """Drive a workload through L2 -> LLC and extract LLC traffic.

    The address stream models one core's L1-miss traffic; accesses that
    miss in the (private) L2 look up the LLC, and L2 dirty evictions write
    back into it — matching the paper's non-inclusive write-back L2 over an
    inclusive write-back LLC.

    With ``cache_dir`` set (or an :class:`~repro.runtime.cache.\
LLCTraceCache` passed as ``cache`` — handy when the caller wants to read
    hit/store counters afterwards), the resulting trace is persisted
    under a fingerprint of ``(workload, simulation parameters)`` and
    re-runs load it instead of re-simulating.
    """
    fingerprint = None
    if cache is None and cache_dir is not None:
        from repro.runtime.cache import LLCTraceCache

        cache = LLCTraceCache(cache_dir)
    if cache is not None:
        from repro.runtime.fingerprint import trace_fingerprint

        fingerprint = trace_fingerprint(
            workload,
            n_accesses=n_accesses,
            l2_kb=l2_kb,
            llc_mb=llc_mb,
            instructions_per_access=instructions_per_access,
            clock_hz=clock_hz,
            ipc=ipc,
            seed=seed,
        )
        cached = cache.load(fingerprint)
        if cached is not None:
            return cached

    addresses, is_write = workload.batch(n_accesses, seed=seed)
    l2 = simulate_batch(
        CacheConfig(capacity_bytes=l2_kb * 1024, associativity=8),
        addresses, is_write,
    )

    # Expand the L2 outcome flags into the LLC's access stream: each miss
    # becomes an LLC read of the missing line, immediately followed by a
    # writeback when that miss evicted a dirty L2 line (dirty evictions
    # only ever happen on misses).
    miss_positions = np.flatnonzero(~l2.hit)
    writeback = l2.dirty_eviction[miss_positions]
    events_per_miss = 1 + writeback.astype(np.int64)
    llc_addresses = np.repeat(addresses[miss_positions], events_per_miss)
    llc_is_write = np.zeros(llc_addresses.size, dtype=bool)
    llc_is_write[np.cumsum(events_per_miss)[writeback] - 1] = True
    llc = simulate_batch(
        CacheConfig(capacity_bytes=mb(llc_mb), associativity=16),
        llc_addresses, llc_is_write,
    )

    instructions = n_accesses * instructions_per_access
    duration = instructions / (clock_hz * ipc)
    trace = LLCTrace(
        name=workload.name,
        llc_reads=int(miss_positions.size),
        llc_writes=int(np.count_nonzero(writeback)),
        instructions=instructions,
        duration=duration,
        llc_hits=llc.stats.hits,
    )
    if cache is not None:
        cache.store(fingerprint, trace)
    return trace


#: A small synthetic suite spanning memory-bound to compute-bound behaviour,
#: mirroring the spread of the SPEC2017 characterization table.
SYNTHETIC_SUITE: tuple[WorkloadModel, ...] = (
    WorkloadModel("synthetic-membound", working_set_bytes=mb(256), write_fraction=0.30,
                  locality_skew=1.05, streaming_fraction=0.5),
    WorkloadModel("synthetic-mixed", working_set_bytes=mb(64), write_fraction=0.25,
                  locality_skew=1.3, streaming_fraction=0.2),
    WorkloadModel("synthetic-cachey", working_set_bytes=mb(8), write_fraction=0.20,
                  locality_skew=1.8, streaming_fraction=0.05),
    WorkloadModel("synthetic-compute", working_set_bytes=mb(2), write_fraction=0.10,
                  locality_skew=2.2, streaming_fraction=0.02),
)

