"""Array-level studies: Figures 3, 4, 5 and 10.

* :func:`optimization_target_study` — Figure 3: iso-capacity (4 MB) arrays
  for every validated technology under a sweep of optimization targets,
  against 16 nm SRAM.
* :func:`tentpole_validation` — Figure 4: tentpole STT arrays bracket a
  published 1 MB STT-MRAM macro.
* :func:`dnn_buffer_arrays` — Figure 5: 2 MB arrays (the NVDLA buffer) —
  read characteristics and storage density.
* :func:`llc_arrays` — Figure 10: 16 MB arrays with 64 B line accesses.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Optional

from repro.cells import STUDY_TECHNOLOGIES, sram_cell, study_cells
from repro.cells.base import TechnologyClass
from repro.cells.database import survey_entries
from repro.core.engine import DSEEngine, SweepSpec
from repro.nvsim.result import DEFAULT_TARGET_SWEEP, OptimizationTarget
from repro.results.table import ResultTable
from repro.runtime.options import RuntimeOptions
from repro.units import mb

#: eNVM implementation node / SRAM comparison node used throughout.
ENVM_NODE_NM = 22
SRAM_NODE_NM = 16


def optimization_target_study(
    capacity_bytes: int = mb(4),
    technologies=STUDY_TECHNOLOGIES,
    runtime: Optional[RuntimeOptions] = None,
) -> ResultTable:
    """Figure 3: array metrics under various optimization targets."""
    cells = study_cells(tuple(technologies)) + [sram_cell(SRAM_NODE_NM)]
    spec = SweepSpec(
        cells=cells,
        capacities_bytes=[capacity_bytes],
        node_nm=ENVM_NODE_NM,
        sram_node_nm=SRAM_NODE_NM,
        optimization_targets=DEFAULT_TARGET_SWEEP,
    )
    return DSEEngine(runtime).run(spec)


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of the Figure 4 tentpole-coverage exercise for one metric."""

    metric: str
    optimistic: float
    pessimistic: float
    published: float

    @property
    def covered(self) -> bool:
        """Does [optimistic, pessimistic] bracket the published value?"""
        lo = min(self.optimistic, self.pessimistic)
        hi = max(self.optimistic, self.pessimistic)
        return lo <= self.published <= hi

    @property
    def within_order_of_magnitude(self) -> bool:
        """The paper's weaker criterion: similar in magnitude."""
        ref = self.published
        return all(
            ref / 10.0 <= v <= ref * 10.0 for v in (self.optimistic, self.pessimistic)
        )


def tentpole_validation(
    tech: TechnologyClass = TechnologyClass.STT,
    capacity_bytes: int = mb(1),
) -> list[ValidationResult]:
    """Figure 4: tentpole arrays vs. the published ISSCC 2018 1 MB STT macro.

    Characterizes iso-capacity optimistic/pessimistic arrays and compares
    read latency / write latency / read energy against the survey entry's
    reported numbers.
    """
    from repro.cells import tentpoles_for

    published = next(
        e for e in survey_entries(tech=tech) if e.name == "isscc2018-stt-1mb-2.8ns"
    )
    tent = tentpoles_for(tech)
    optimistic, pessimistic = DSEEngine().arrays(SweepSpec(
        cells=[tent.optimistic, tent.pessimistic], capacities_bytes=[capacity_bytes],
        node_nm=28, optimization_targets=(OptimizationTarget.READ_LATENCY,),
    ))
    results = []
    checks = [
        ("read_latency", "read_latency", lambda a: a.read_latency),
        ("write_latency", "write_latency", lambda a: a.write_latency),
        ("read_energy_pj", "read_energy_pj", lambda a: a.read_energy_per_bit / 1e-12),
    ]
    for metric, field_name, extract in checks:
        reference = getattr(published, field_name)
        if reference is None:
            continue
        results.append(
            ValidationResult(
                metric=metric,
                optimistic=extract(optimistic),
                pessimistic=extract(pessimistic),
                published=float(reference),
            )
        )
    return results


def dnn_buffer_arrays(
    capacity_bytes: int = mb(2),
    runtime: Optional[RuntimeOptions] = None,
) -> ResultTable:
    """Figure 5: 2 MB arrays provisioned to replace the NVDLA buffer."""
    cells = study_cells(STUDY_TECHNOLOGIES) + [sram_cell(SRAM_NODE_NM)]
    spec = SweepSpec(
        cells=cells,
        capacities_bytes=[capacity_bytes],
        node_nm=ENVM_NODE_NM,
        sram_node_nm=SRAM_NODE_NM,
        optimization_targets=(OptimizationTarget.READ_EDP,),
        access_bits=512,
    )
    return DSEEngine(runtime).run(spec)


def llc_arrays(
    capacity_bytes: int = mb(16),
    runtime: Optional[RuntimeOptions] = None,
) -> ResultTable:
    """Figure 10: 16 MB LLC-candidate arrays (64 B line access)."""
    cells = study_cells(STUDY_TECHNOLOGIES) + [sram_cell(SRAM_NODE_NM)]
    spec = SweepSpec(
        cells=cells,
        capacities_bytes=[capacity_bytes],
        node_nm=ENVM_NODE_NM,
        sram_node_nm=SRAM_NODE_NM,
        optimization_targets=(
            OptimizationTarget.READ_EDP,
            OptimizationTarget.WRITE_EDP,
        ),
        access_bits=512,
    )
    return DSEEngine(runtime).run(spec)
