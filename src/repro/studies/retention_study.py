"""Retention-aware intermittent deployment study (an extension).

Cross-checks the intermittent DNN use case (Section IV-A2) against each
technology's retention: at very low wake-up rates — exactly where the dense
FeFET/RRAM candidates win on energy — short-retention cells must add scrub
wake-ups, which costs energy and endurance.  The study quantifies how the
Figure 7 picture changes once retention is enforced.
"""

from __future__ import annotations

from typing import Optional

from repro.cells import tentpoles_for
from repro.core.engine import DSEEngine, SweepSpec
from repro.core.retention import deployment_check, max_unpowered_interval
from repro.results.table import ResultTable
from repro.runtime.options import RuntimeOptions
from repro.studies.arrays import ENVM_NODE_NM
from repro.studies.dnn_study import DNN_STUDY_TECHNOLOGIES
from repro.units import SECONDS_PER_DAY, mb


def retention_study(
    capacity_bytes: int = mb(8),
    inferences_per_day=(1.0, 10.0, 1e3, 1e5),
    runtime: Optional[RuntimeOptions] = None,
) -> ResultTable:
    """Scrubbing requirements across technologies and wake-up rates."""
    spec = SweepSpec(
        cells=[
            cell
            for tech in DNN_STUDY_TECHNOLOGIES
            for _, cell in tentpoles_for(tech).labelled()
        ],
        capacities_bytes=[capacity_bytes],
        node_nm=ENVM_NODE_NM,
        access_bits=512,
    )
    arrays = {a.cell: a for a in DSEEngine(runtime).arrays(spec)}
    table = ResultTable()
    for tech in DNN_STUDY_TECHNOLOGIES:
        for flavor, cell in tentpoles_for(tech).labelled():
            array = arrays.get(cell)
            if array is None:  # dropped under on_error="skip"
                continue
            limit = max_unpowered_interval(array)
            for rate in inferences_per_day:
                wake_interval = SECONDS_PER_DAY / rate
                check = deployment_check(array, wake_interval)
                table.append(
                    {
                        "tech": tech.value,
                        "flavor": flavor,
                        "cell": cell.name,
                        "retention_s": array.retention_seconds,
                        "max_unpowered_s": limit,
                        "inferences_per_day": rate,
                        "wake_interval_s": wake_interval,
                        "needs_scrubbing": check.needs_scrubbing,
                        "scrub_power_uw": check.scrub_power_watts * 1e6,
                        "sleep_power_uw": array.sleep_power * 1e6,
                        "scrub_dominates_sleep": (
                            check.needs_scrubbing
                            and check.scrub_power_watts > array.sleep_power
                        ),
                    }
                )
    return table


def scrub_burdened_technologies(table: ResultTable, rate: float) -> set[str]:
    """Technologies needing scrubbing at the given wake-up rate."""
    rows = table.where(inferences_per_day=rate)
    return {r["tech"] for r in rows if r["needs_scrubbing"]}
