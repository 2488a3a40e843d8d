"""Synthetic memory-address streams.

Generators for the access patterns that drive the cache simulator:
streaming (sequential), strided, zipfian-random (pointer chasing over a
skewed working set), and a mixed model parameterized like a real workload
(working-set size, write fraction, locality skew).

Every pattern is a ``*_batch`` function that materializes the whole
``(addresses, is_write)`` pair as numpy arrays in one shot, the form
consumed by :mod:`repro.cachesim.batch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import ConfigError

#: Working sets up to this many lines sample the truncated zipf by inverse
#: CDF (the table is cached per (n_lines, skew): ~8 B/line); larger ones
#: fall back to rejection resampling of ``rng.zipf`` draws.
_ZIPF_CDF_MAX_LINES = 1 << 22
#: Safety cap on zipf rejection-resampling rounds; any draw still outside
#: the working set afterwards is clipped to the coldest line.
_ZIPF_RESAMPLE_ROUNDS = 64


@lru_cache(maxsize=8)
def _zipf_cdf(n_lines: int, skew: float) -> np.ndarray:
    """CDF of the zipf distribution truncated to ranks ``1..n_lines``."""
    cdf = np.cumsum(np.arange(1, n_lines + 1, dtype=np.float64) ** -skew)
    cdf /= cdf[-1]
    return cdf


def sequential_batch(
    n_accesses: int,
    stride_bytes: int = 64,
    write_fraction: float = 0.0,
    seed: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """A streaming scan as arrays: address grows by ``stride_bytes``."""
    _check(n_accesses, write_fraction)
    addresses = np.arange(n_accesses, dtype=np.int64) * stride_bytes
    rng = np.random.default_rng(seed)
    return addresses, rng.random(n_accesses) < write_fraction


def strided_batch(
    n_accesses: int,
    stride_bytes: int,
    working_set_bytes: int,
    write_fraction: float = 0.0,
    seed: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """A strided sweep wrapping a fixed working set, as arrays."""
    _check(n_accesses, write_fraction)
    if working_set_bytes <= 0 or stride_bytes <= 0:
        raise ConfigError("stride and working set must be positive")
    addresses = (np.arange(n_accesses, dtype=np.int64) * stride_bytes
                 % working_set_bytes)
    rng = np.random.default_rng(seed)
    return addresses, rng.random(n_accesses) < write_fraction


def zipfian_batch(
    n_accesses: int,
    working_set_bytes: int,
    line_bytes: int = 64,
    skew: float = 1.1,
    write_fraction: float = 0.2,
    seed: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Zipf-distributed accesses over a working set, as arrays.

    Rank ``r`` maps monotonically to line ``r - 1``, so the hottest lines
    are the lowest-numbered ones.  The distribution is the zipf truncated
    to the working set (draws beyond it are redistributed over all lines
    in proportion), not the old modulo wrap, which aliased the heavy tail
    onto arbitrary mid-working-set lines.
    """
    _check(n_accesses, write_fraction)
    if skew <= 1.0:
        raise ConfigError("zipf skew must be > 1")
    n_lines = max(1, working_set_bytes // line_bytes)
    rng = np.random.default_rng(seed)
    if n_lines <= _ZIPF_CDF_MAX_LINES:
        lines = np.searchsorted(
            _zipf_cdf(n_lines, skew), rng.random(n_accesses), side="right"
        ).astype(np.int64)
    else:
        ranks = rng.zipf(skew, size=n_accesses)
        for _ in range(_ZIPF_RESAMPLE_ROUNDS):
            outside = ranks > n_lines
            n_outside = int(np.count_nonzero(outside))
            if not n_outside:
                break
            ranks[outside] = rng.zipf(skew, size=n_outside)
        lines = np.minimum(ranks, n_lines).astype(np.int64) - 1
    writes = rng.random(n_accesses) < write_fraction
    return lines * line_bytes, writes


@dataclass(frozen=True)
class WorkloadModel:
    """A parameterized synthetic workload for LLC-trace regeneration."""

    name: str
    working_set_bytes: int
    write_fraction: float
    locality_skew: float = 1.2  # >1; higher = more cache-friendly
    streaming_fraction: float = 0.2  # fraction of sequential scan traffic

    def batch(
        self, n_accesses: int, seed: int = 1
    ) -> tuple[np.ndarray, np.ndarray]:
        """The whole mixed stream as ``(addresses, is_write)`` arrays.

        Zipfian pointer traffic and streaming scans are interleaved at a
        uniformly random set of positions (each stream keeps its internal
        order) — the same distribution as drawing the next access from
        either stream with probability proportional to its remaining
        length, without the per-access RNG call.
        """
        n_stream = int(n_accesses * self.streaming_fraction)
        n_zipf = n_accesses - n_stream
        zipf_addr, zipf_w = zipfian_batch(
            n_zipf,
            self.working_set_bytes,
            skew=self.locality_skew,
            write_fraction=self.write_fraction,
            seed=seed,
        )
        seq_addr, seq_w = sequential_batch(
            n_stream, write_fraction=self.write_fraction, seed=seed + 1
        )
        rng = np.random.default_rng(seed + 2)
        zipf_slots = np.zeros(n_accesses, dtype=bool)
        zipf_slots[rng.permutation(n_accesses)[:n_zipf]] = True
        addresses = np.empty(n_accesses, dtype=np.int64)
        is_write = np.empty(n_accesses, dtype=bool)
        addresses[zipf_slots] = zipf_addr
        is_write[zipf_slots] = zipf_w
        addresses[~zipf_slots] = seq_addr
        is_write[~zipf_slots] = seq_w
        return addresses, is_write



def _check(n_accesses: int, write_fraction: float) -> None:
    if n_accesses < 0:
        raise ConfigError("n_accesses must be non-negative")
    if not 0.0 <= write_fraction <= 1.0:
        raise ConfigError("write_fraction must be in [0, 1]")
