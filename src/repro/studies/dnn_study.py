"""The DNN inference accelerator case study (Section IV-A).

Three artifacts:

* :func:`continuous_study` — Figure 6 (left): total operating power of 2 MB
  arrays under the four NVDLA traffic scenarios at 60 FPS, with infeasible
  candidates (can't sustain 60 FPS / fail accuracy) excluded.
* :func:`intermittent_study` — Figure 6 (right): memory energy per
  inference for wake-per-inference deployment, weights held on-chip.
* :func:`intermittent_sweep` — Figure 7: total daily energy vs. wake-up
  frequency; :func:`fefet_stt_crossover` locates the headline crossover.
* :func:`preferred_technologies` — Table II: the preferred eNVM per use
  case / task / priority, under optimistic and pessimistic cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.cells import STUDY_TECHNOLOGIES, CellTechnology, sram_cell, tentpoles_for
from repro.cells.base import TechnologyClass
from repro.core.engine import DSEEngine, SweepSpec
from repro.core.intermittent import crossover_rate, evaluate_intermittent
from repro.nvsim.result import OptimizationTarget
from repro.results.table import ResultTable
from repro.runtime.options import RuntimeOptions
from repro.studies.arrays import ENVM_NODE_NM, SRAM_NODE_NM
from repro.traffic.dnn import (
    ALBERT,
    ALBERT_EMBEDDINGS,
    MULTI_TASK_IMAGE,
    MULTI_TASK_NLP,
    RESNET26,
    DNNWorkload,
    continuous_scenarios,
)
from repro.units import SECONDS_PER_DAY, mb

#: Latency target per frame at 60 FPS: the memory must not slow the
#: pipeline (aggregate access latency under 1 s per second of execution).
LATENCY_TARGET_S_PER_S = 1.0

#: The DNN study additionally evaluates CTT (Table II lists it as the
#: high-density alternative under pessimistic assumptions): its second-rank
#: density matters for read-dominated inference where its slow writes do
#: not disqualify it.
DNN_STUDY_TECHNOLOGIES = tuple(STUDY_TECHNOLOGIES) + (TechnologyClass.CTT,)


def _study_cells(flavor: str) -> list[CellTechnology]:
    cells = []
    for tech in DNN_STUDY_TECHNOLOGIES:
        tent = tentpoles_for(tech)
        cells.append(tent.optimistic if flavor == "optimistic" else tent.pessimistic)
    return cells


def _all_cells() -> list[CellTechnology]:
    cells = []
    for tech in DNN_STUDY_TECHNOLOGIES:
        cells.extend(tentpoles_for(tech).labelled())
    return [cell for _, cell in cells]


def continuous_study(
    buffer_mb: float = 2.0,
    runtime: Optional[RuntimeOptions] = None,
) -> ResultTable:
    """Figure 6 (left): operating power under continuous 60 FPS traffic.

    Rows that cannot meet the frame-rate (slowdown > 1) are marked
    infeasible, mirroring the paper's exclusion of candidates that cannot
    support 60 FPS.
    """
    cells = _all_cells() + [sram_cell(SRAM_NODE_NM)]
    spec = SweepSpec(
        cells=cells,
        capacities_bytes=[mb(buffer_mb)],
        traffic=continuous_scenarios(mb(buffer_mb)),
        node_nm=ENVM_NODE_NM,
        sram_node_nm=SRAM_NODE_NM,
        optimization_targets=(OptimizationTarget.READ_EDP,),
        access_bits=512,
    )
    table = DSEEngine(runtime).run(spec)
    return table.with_column(
        "meets_fps",
        lambda r: bool(r["feasible"]) and r["memory_latency_s_per_s"] <= LATENCY_TARGET_S_PER_S,
    )


#: Figure 6 (right) / Table II intermittent workloads and their on-chip
#: weight-storage capacity.
INTERMITTENT_WORKLOADS: tuple[tuple[DNNWorkload, int], ...] = (
    (RESNET26, mb(2)),
    (MULTI_TASK_IMAGE, mb(16)),
    (ALBERT_EMBEDDINGS, mb(8)),
    (ALBERT, mb(32)),
    (MULTI_TASK_NLP, mb(32)),
)


def intermittent_study(
    inferences_per_day: float = SECONDS_PER_DAY,  # 1 inference per second
    runtime: Optional[RuntimeOptions] = None,
) -> ResultTable:
    """Figure 6 (right): energy per inference, weights resident in eNVM."""
    spec = SweepSpec(
        cells=_all_cells(),
        capacities_bytes=list(dict.fromkeys(c for _, c in INTERMITTENT_WORKLOADS)),
        node_nm=ENVM_NODE_NM,
        access_bits=512,
    )
    arrays = {(a.cell, a.capacity_bytes): a for a in DSEEngine(runtime).arrays(spec)}
    table = ResultTable()
    for workload, capacity in INTERMITTENT_WORKLOADS:
        for tech in DNN_STUDY_TECHNOLOGIES:
            for flavor, cell in tentpoles_for(tech).labelled():
                array = arrays.get((cell, capacity))
                if array is None:  # dropped under on_error="skip"
                    continue
                ev = evaluate_intermittent(array, workload, inferences_per_day)
                table.append(
                    {
                        "workload": workload.name,
                        "capacity_mb": capacity / mb(1),
                        "tech": tech.value,
                        "flavor": flavor,
                        "cell": cell.name,
                        "density_mbit_mm2": array.density_mbit_per_mm2,
                        "energy_per_inference_uj": ev.energy_per_inference * 1e6,
                        "energy_per_day_j": ev.energy_per_day,
                        "sleep_uw": ev.sleep_power * 1e6,
                    }
                )
    return table


def intermittent_sweep(
    workload: DNNWorkload,
    capacity_bytes: int,
    rates_per_day: Sequence[float] = (1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7),
    flavor: str = "optimistic",
) -> ResultTable:
    """Figure 7: daily energy vs. inferences per day."""
    spec = SweepSpec(
        cells=_study_cells(flavor), capacities_bytes=[capacity_bytes],
        node_nm=ENVM_NODE_NM, access_bits=512,
    )
    table = ResultTable()
    for array in DSEEngine().arrays(spec):
        for rate in rates_per_day:
            ev = evaluate_intermittent(array, workload, rate)
            table.append(
                {
                    "workload": workload.name,
                    "tech": array.cell.tech_class.value,
                    "cell": array.cell.name,
                    "inferences_per_day": rate,
                    "energy_per_day_j": ev.energy_per_day,
                    "energy_per_inference_uj": ev.energy_per_inference * 1e6,
                }
            )
    return table


def fefet_stt_crossover(
    workload: DNNWorkload = ALBERT, capacity_bytes: int = mb(32)
) -> float:
    """Inferences/day where optimistic STT overtakes optimistic FeFET."""
    fefet, stt = DSEEngine().arrays(SweepSpec(
        cells=[tentpoles_for(TechnologyClass.FEFET).optimistic,
               tentpoles_for(TechnologyClass.STT).optimistic],
        capacities_bytes=[capacity_bytes], node_nm=ENVM_NODE_NM, access_bits=512,
    ))
    a = evaluate_intermittent(fefet, workload, 1.0)
    b = evaluate_intermittent(stt, workload, 1.0)
    return crossover_rate(a, b)


@dataclass(frozen=True)
class PreferredChoice:
    """One Table II row: the winning technology for a use case."""

    use_case: str
    workload: str
    priority: str
    optimistic_winner: str
    pessimistic_winner: str


def preferred_technologies(
    continuous: ResultTable, intermittent: ResultTable
) -> list[PreferredChoice]:
    """Table II: preferred eNVM per use case / storage / priority.

    Reads the two Figure 6 tables, ``continuous`` from
    :func:`continuous_study` and ``intermittent`` from
    :func:`intermittent_study` (the suite's ``fig06_dnn_continuous`` and
    ``fig06_dnn_intermittent``).  "Low power" (continuous) and "low
    energy per inference" (intermittent) pick the minimum-power/energy
    feasible candidate; "high density" picks the densest feasible
    candidate.  A flavor with no feasible candidate wins ``"none"``.
    """
    use_cases = (
        ("continuous", continuous, "low-power", "total_power_mw",
         lambda r: r["tech"] != "SRAM" and r["meets_fps"]),
        ("intermittent", intermittent, "low-energy-per-inf",
         "energy_per_inference_uj", lambda r: True),
    )
    choices: list[PreferredChoice] = []
    for use_case, table, low_priority, low_column, feasible in use_cases:
        for workload in table.unique("workload"):
            rows = table.where(workload=workload).filter(feasible)
            for priority, column, best in (
                (low_priority, low_column, ResultTable.min_by),
                ("high-density", "density_mbit_mm2", ResultTable.max_by),
            ):
                optimistic, pessimistic = (
                    best(flavored, column)["tech"] if flavored else "none"
                    for flavored in (rows.where(flavor="optimistic"),
                                     rows.where(flavor="pessimistic"))
                )
                choices.append(
                    PreferredChoice(
                        use_case=use_case,
                        workload=str(workload),
                        priority=priority,
                        optimistic_winner=optimistic,
                        pessimistic_winner=pessimistic,
                    )
                )
    return choices
