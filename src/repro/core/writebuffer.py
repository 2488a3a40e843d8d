"""Write-buffering what-if analysis (Section V-D, Figure 14).

A small, fast write buffer (SRAM or STT) in front of an eNVM can

* **mask write latency** — the application sees the buffer's latency while
  the buffer drains to the eNVM in the background, and
* **reduce write traffic** — in-place updates coalesce multiple writes to
  the same address before they reach the eNVM, which also extends lifetime.

Rather than simulate cycle-accurately, the paper (and this module) asks the
analytical what-if question: *if* buffering masked X% of write latency and
coalescing removed Y% of write traffic, which additional eNVMs become
viable?  :func:`coalescing_factor` additionally estimates Y for a given
buffer size from an address stream via :mod:`repro.cachesim`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.metrics import SystemEvaluation, evaluate
from repro.errors import EvaluationError
from repro.nvsim.result import ArrayCharacterization
from repro.traffic.base import TrafficPattern


@dataclass(frozen=True)
class WriteBufferConfig:
    """One write-buffering scenario.

    ``mask_fraction`` of the eNVM's write latency is hidden from the
    application; ``traffic_reduction`` of the write accesses never reach
    the eNVM (coalesced in the buffer).
    """

    mask_fraction: float = 0.0
    traffic_reduction: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.mask_fraction <= 1.0:
            raise EvaluationError("mask_fraction must be in [0, 1]")
        if not 0.0 <= self.traffic_reduction < 1.0:
            raise EvaluationError("traffic_reduction must be in [0, 1)")
        if not self.label:
            object.__setattr__(
                self,
                "label",
                f"mask={self.mask_fraction:.0%},reduce={self.traffic_reduction:.0%}",
            )


#: The scenarios Figure 14 sweeps: masking and coalescing as separate axes,
#: plus their combination.
DEFAULT_SCENARIOS: tuple[WriteBufferConfig, ...] = (
    WriteBufferConfig(0.0, 0.0, label="no-buffer"),
    WriteBufferConfig(1.0, 0.0, label="mask-only"),
    WriteBufferConfig(0.0, 0.25, label="reduce25"),
    WriteBufferConfig(0.0, 0.50, label="reduce50"),
    WriteBufferConfig(1.0, 0.50, label="mask+reduce50"),
)


def buffered_traffic(
    traffic: TrafficPattern, config: WriteBufferConfig
) -> TrafficPattern:
    """The eNVM-visible traffic once the buffer coalesces writes."""
    reduced = traffic.scaled(write_factor=1.0 - config.traffic_reduction)
    return reduced.renamed(f"{traffic.name}+wb[{config.label}]")


def evaluate_with_buffer(
    array: ArrayCharacterization,
    traffic: TrafficPattern,
    config: WriteBufferConfig,
) -> SystemEvaluation:
    """Evaluate an array behind a write buffer."""
    return evaluate(
        array,
        buffered_traffic(traffic, config),
        write_latency_mask=config.mask_fraction,
    )


def coalescing_factor(
    addresses,
    buffer_lines: int,
    line_bytes: int = 64,
) -> float:
    """Measured write-traffic reduction for a buffer of ``buffer_lines``.

    Replays a write-address stream (any integer sequence or array) through
    a small fully-associative write-back buffer on the vectorized batch
    engine (:func:`repro.cachesim.batch.simulate_batch`) and reports the
    fraction of writes absorbed by in-place updates.
    """
    import numpy as np

    from repro.cachesim.batch import simulate_batch
    from repro.cachesim.cache import CacheConfig

    if buffer_lines <= 0:
        raise EvaluationError("buffer must have at least one line")
    addresses = np.asarray(addresses, dtype=np.int64)
    total_writes = int(addresses.size)
    if total_writes == 0:
        return 0.0
    config = CacheConfig(
        capacity_bytes=buffer_lines * line_bytes,
        line_bytes=line_bytes,
        associativity=buffer_lines,  # fully associative
    )
    result = simulate_batch(
        config, addresses, np.ones(total_writes, dtype=bool))
    # Writes that reached the backing store = dirty evictions (+ dirty lines
    # still resident would eventually drain; count them too).
    drained = result.stats.dirty_evictions + result.dirty_lines
    return max(0.0, 1.0 - drained / total_writes)
