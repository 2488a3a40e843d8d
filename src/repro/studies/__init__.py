"""The paper's case studies, one module per section/figure family."""

from repro.studies.arrays import (
    ENVM_NODE_NM,
    SRAM_NODE_NM,
    ValidationResult,
    dnn_buffer_arrays,
    llc_arrays,
    optimization_target_study,
    tentpole_validation,
)
from repro.studies.codesign import (
    area_efficiency_study,
    back_gated_fefet_study,
    efficiency_of_latency_extremes,
    low_efficiency_latency_advantage,
)
from repro.studies.dnn_study import (
    INTERMITTENT_WORKLOADS,
    PreferredChoice,
    continuous_study,
    fefet_stt_crossover,
    intermittent_study,
    intermittent_sweep,
    preferred_technologies,
)
from repro.studies.graph_study import (
    SCRATCHPAD_BYTES,
    best_lifetime_technology,
    graph_study,
    lowest_power_technology,
    worst_lifetime_technology,
)
from repro.studies.hierarchy_study import hierarchy_study, measured_coalescing
from repro.studies.llc_study import feasible, llc_study, winner_per_benchmark
from repro.studies.retention_study import retention_study, scrub_burdened_technologies
from repro.studies.mlc_study import ACCURACY_TOLERANCE, acceptable, mlc_study
from repro.studies.writebuffer_study import performant_technologies, writebuffer_study
from repro.studies.pipeline import (
    REGISTRY,
    StudyOutcome,
    StudySpec,
    get_study,
    run_study,
)
from repro.runtime.options import RuntimeOptions

__all__ = [
    "ENVM_NODE_NM",
    "SRAM_NODE_NM",
    "optimization_target_study",
    "tentpole_validation",
    "ValidationResult",
    "dnn_buffer_arrays",
    "llc_arrays",
    "continuous_study",
    "intermittent_study",
    "intermittent_sweep",
    "fefet_stt_crossover",
    "preferred_technologies",
    "PreferredChoice",
    "INTERMITTENT_WORKLOADS",
    "graph_study",
    "lowest_power_technology",
    "best_lifetime_technology",
    "worst_lifetime_technology",
    "SCRATCHPAD_BYTES",
    "llc_study",
    "feasible",
    "winner_per_benchmark",
    "back_gated_fefet_study",
    "area_efficiency_study",
    "low_efficiency_latency_advantage",
    "efficiency_of_latency_extremes",
    "mlc_study",
    "acceptable",
    "ACCURACY_TOLERANCE",
    "writebuffer_study",
    "performant_technologies",
    "retention_study",
    "scrub_burdened_technologies",
    "hierarchy_study",
    "measured_coalescing",
    "REGISTRY",
    "RuntimeOptions",
    "StudyOutcome",
    "StudySpec",
    "get_study",
    "run_study",
]
