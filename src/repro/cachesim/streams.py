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
#: CDF; larger ones fall back to rejection resampling of ``rng.zipf`` draws.
#: The CDF is streamed (see :func:`_zipf_lines`), so the cap no longer bounds
#: memory; moving it would change which sampler, and so which trace, a
#: working set gets.
_ZIPF_CDF_MAX_LINES = 1 << 22
#: Safety cap on zipf rejection-resampling rounds; any draw still outside
#: the working set afterwards is clipped to the coldest line.
_ZIPF_RESAMPLE_ROUNDS = 64
#: Ranks per slice of the streamed CDF (2 MiB of float64).  A working set of
#: at most one slice builds its whole CDF in one pass.
_ZIPF_SLICE_LINES = 1 << 18
#: Ranks per block: the memo keeps one running weight sum per block, and the
#: second pass rebuilds only the blocks that hold draws.
_ZIPF_BLOCK_LINES = 128


def _weight_sums(ranks: np.ndarray, skew: float, carry) -> np.ndarray:
    """Running sums of the zipf weights ``ranks ** -skew`` along the last
    axis, each row continued from its ``carry``; computed in ``ranks``.

    ``cumsum`` adds sequentially, so a row that starts from the sum of all
    earlier ranks equals, bit for bit, the same positions of one ``cumsum``
    over every rank from 1.
    """
    np.power(ranks, -skew, out=ranks)
    ranks[..., 0] += carry
    return np.cumsum(ranks, axis=-1, out=ranks)


@lru_cache(maxsize=8)
def _zipf_block_sums(n_lines: int, skew: float) -> np.ndarray:
    """Running zipf weight sum at the last rank of every block (pass 1).

    Ranks ``1..n_lines`` are streamed one slice at a time; the last entry
    is the total weight that normalizes the CDF.
    """
    block = _ZIPF_BLOCK_LINES
    ends = np.empty(-(-n_lines // block))
    carry = 0.0
    for start in range(0, n_lines, _ZIPF_SLICE_LINES):
        stop = min(start + _ZIPF_SLICE_LINES, n_lines)
        sums = _weight_sums(np.arange(start + 1, stop + 1, dtype=np.float64), skew, carry)
        carry = sums[-1]
        block_ends = sums[block - 1 :: block]
        ends[start // block : start // block + block_ends.size] = block_ends
    ends[-1] = carry  # a partial last block ends at the last rank
    return ends


def _zipf_lines(n_lines: int, skew: float, draws: np.ndarray) -> np.ndarray:
    """Line index of each uniform draw under the zipf truncated to ``n_lines``.

    Equal to ``np.searchsorted(cdf, draws, side="right")`` over the
    normalized CDF of ranks ``1..n_lines``, without holding that CDF when
    it spans more than one slice: pass 1 memoizes each block's end sum,
    and pass 2 rebuilds only the blocks that hold draws, a slice's worth
    of them at a time, searching the sorted draws block by block.
    """
    if n_lines <= _ZIPF_SLICE_LINES:
        cdf = _weight_sums(np.arange(1, n_lines + 1, dtype=np.float64), skew, 0.0)
        cdf /= cdf[-1]
        return np.searchsorted(cdf, draws, side="right")
    block = _ZIPF_BLOCK_LINES
    ends = _zipf_block_sums(n_lines, skew)
    total = ends[-1]
    order = np.argsort(draws)
    drawn = draws[order]
    # Every rank of the blocks before a draw's block is at most the draw.
    held = np.searchsorted(ends / total, drawn, side="right")
    firsts = np.flatnonzero(np.diff(held, prepend=-1))  # first draw of each held block
    blocks = held[firsts]
    del held
    lines = np.empty(draws.size, dtype=np.int64)
    per_group = _ZIPF_SLICE_LINES // block
    offsets = np.arange(block, dtype=np.float64)
    for start in range(0, blocks.size, per_group):
        stop = start + per_group
        lo = firsts[start]
        hi = firsts[stop] if stop < blocks.size else draws.size
        group = blocks[start:stop]
        # Ranks past the working set only extend the last block; no draw
        # reaches them, as the CDF is already 1 at the last rank.
        cdf = _weight_sums(
            np.add.outer(group * block + 1.0, offsets),
            skew,
            np.where(group > 0, ends[group - 1], 0.0),
        )
        cdf /= total
        # A draw's position in the flattened rows, shifted to its line.
        at = np.searchsorted(cdf.ravel(), drawn[lo:hi], side="right")
        del cdf
        at += ((group - np.arange(group.size)) * block)[at // block]
        lines[order[lo:hi]] = at
    return lines


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
        lines = _zipf_lines(n_lines, skew, rng.random(n_accesses)).astype(np.int64, copy=False)
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
