"""Cross-stack evaluation: metrics, intermittent model, write buffers, DSE."""

from repro.core.engine import DSEEngine, SweepSpec
from repro.core.intermittent import (
    IntermittentEvaluation,
    crossover_rate,
    evaluate_intermittent,
    wake_energy,
    wake_latency,
)
from repro.core.metrics import (
    CONTROLLER_POWER_PER_BYTE,
    SystemEvaluation,
    array_record,
    evaluate,
    evaluation_record,
    lifetime_seconds,
    retention_ok,
)
from repro.core.hierarchy import (
    HierarchyEvaluation,
    evaluate_hierarchy,
    split_traffic,
)
from repro.core.pareto import pareto_front
from repro.core.retention import (
    DeploymentCheck,
    deployment_check,
    max_unpowered_interval,
    scrub_energy_per_pass,
    scrub_power,
)
from repro.core.writebuffer import (
    DEFAULT_SCENARIOS,
    WriteBufferConfig,
    buffered_traffic,
    coalescing_factor,
    evaluate_with_buffer,
)

__all__ = [
    "DSEEngine",
    "SweepSpec",
    "array_record",
    "evaluation_record",
    "SystemEvaluation",
    "evaluate",
    "lifetime_seconds",
    "retention_ok",
    "CONTROLLER_POWER_PER_BYTE",
    "IntermittentEvaluation",
    "evaluate_intermittent",
    "crossover_rate",
    "wake_energy",
    "wake_latency",
    "WriteBufferConfig",
    "DEFAULT_SCENARIOS",
    "buffered_traffic",
    "evaluate_with_buffer",
    "coalescing_factor",
    "pareto_front",
    "HierarchyEvaluation",
    "evaluate_hierarchy",
    "split_traffic",
    "DeploymentCheck",
    "deployment_check",
    "max_unpowered_interval",
    "scrub_power",
    "scrub_energy_per_pass",
]
