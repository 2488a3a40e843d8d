"""Explicit two-level heterogeneous memory hierarchy evaluation.

Section V-D reasons about a write buffer analytically; this module makes
the hierarchy explicit so co-design studies can size it: a small fast
front array (SRAM or STT) absorbing a measured or assumed fraction of the
traffic, backed by a large eNVM array.  The evaluation composes the two
arrays' power/latency/lifetime into system-level numbers, which is the
"technologically-heterogeneous memory systems" direction the paper's
conclusion points at.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.metrics import SystemEvaluation, evaluate
from repro.errors import EvaluationError
from repro.nvsim.result import ArrayCharacterization
from repro.traffic.base import TrafficPattern


@dataclass(frozen=True)
class HierarchyEvaluation:
    """Composed metrics of a front buffer + backing eNVM."""

    front: SystemEvaluation
    backing: SystemEvaluation
    total_power: float
    memory_latency_per_second: float
    lifetime_seconds: float | None

    @property
    def label(self) -> str:
        return (
            f"{self.front.array.cell.name}+{self.backing.array.cell.name}"
            f" x {self.backing.traffic.name}"
        )

    @property
    def lifetime_years(self) -> float | None:
        if self.lifetime_seconds is None:
            return None
        return self.lifetime_seconds / (365.25 * 86400.0)


def split_traffic(
    traffic: TrafficPattern,
    read_hit_rate: float,
    write_coalescing: float,
) -> tuple[TrafficPattern, TrafficPattern]:
    """(front traffic, backing traffic) under hit/coalescing fractions.

    The front absorbs its read hits and all writes (it is an explicitly
    managed buffer, not a lookup filter); the backing level sees the read
    misses plus the uncoalesced write-backs.
    """
    if not 0.0 <= read_hit_rate <= 1.0:
        raise EvaluationError("read_hit_rate must be in [0, 1]")
    if not 0.0 <= write_coalescing < 1.0:
        raise EvaluationError("write_coalescing must be in [0, 1)")
    front = traffic.scaled(read_factor=read_hit_rate).renamed(
        f"{traffic.name}@front"
    )
    backing = traffic.scaled(
        read_factor=1.0 - read_hit_rate,
        write_factor=1.0 - write_coalescing,
    ).renamed(f"{traffic.name}@backing")
    return front, backing


def evaluate_hierarchy(
    front_array: ArrayCharacterization,
    backing_array: ArrayCharacterization,
    traffic: TrafficPattern,
    read_hit_rate: float = 0.0,
    write_coalescing: float = 0.5,
) -> HierarchyEvaluation:
    """Evaluate a front buffer in front of a backing eNVM.

    The application's visible latency is the front's on hits plus the
    backing's on the residual traffic; power adds both levels; lifetime is
    the backing array's under its reduced write load (the front is assumed
    endurance-unlimited — size it with SRAM or STT).
    """
    if front_array.capacity_bytes >= backing_array.capacity_bytes:
        raise EvaluationError("front buffer should be smaller than the backing array")
    front_traffic, backing_traffic = split_traffic(
        traffic, read_hit_rate, write_coalescing
    )
    front_ev = evaluate(front_array, front_traffic)
    backing_ev = evaluate(backing_array, backing_traffic)
    total_power = front_ev.total_power + backing_ev.total_power
    latency = (
        front_ev.memory_latency_per_second + backing_ev.memory_latency_per_second
    )
    return HierarchyEvaluation(
        front=front_ev,
        backing=backing_ev,
        total_power=total_power,
        memory_latency_per_second=latency,
        lifetime_seconds=backing_ev.lifetime_seconds,
    )
