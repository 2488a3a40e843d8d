"""The MLC reliability study (Section V-C, Figure 13).

SLC vs. 2-bit MLC storage of DNN weights across the fault-modelled
technologies (RRAM, CTT, FeFET): characterize the arrays (MLC doubles
density and pays program-verify costs) and fault-inject the weights to get
task accuracy, then filter to the configurations that keep accuracy within
the application's tolerance — reproducing "MLC RRAM is denser and more
performant than SLC RRAM, while MLC FeFET is only sufficiently reliable for
larger cell sizes".
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.cells import tentpoles_for
from repro.cells.base import CellTechnology, TechnologyClass
from repro.core.engine import DSEEngine, SweepSpec
from repro.core.metrics import array_record
from repro.dnn.proxies import trained_proxy
from repro.faults.models import FAULT_MODELLED_TECHNOLOGIES, fault_model_for
from repro.results.table import ResultTable
from repro.runtime.options import RuntimeOptions, ensure_runtime
from repro.studies.arrays import ENVM_NODE_NM
from repro.units import mb

#: Accuracy must stay within this of the clean baseline to be acceptable.
ACCURACY_TOLERANCE = 0.01

#: FeFET cell sizes swept in Figure 13 (small cells fail MLC reliability).
FEFET_AREA_SWEEP_F2 = (2.0, 16.0, 40.0, 103.0)


def _fefet_at_area(area_f2: float) -> CellTechnology:
    base = tentpoles_for(TechnologyClass.FEFET).optimistic
    return replace(base, name=f"FeFET-{area_f2:g}F2", area_f2=area_f2)


def mlc_study(
    capacities=(mb(8), mb(16)),
    workload: str = "resnet18",
    trials: int = 3,
    runtime: Optional[RuntimeOptions] = None,
) -> ResultTable:
    """Figure 13: density/performance vs. fault-injected accuracy."""
    runtime = ensure_runtime(runtime)
    engine = DSEEngine(runtime)
    proxy = trained_proxy(workload)
    table = ResultTable()

    cells: list[CellTechnology] = []
    for tech in FAULT_MODELLED_TECHNOLOGIES:
        if tech is TechnologyClass.FEFET:
            cells.extend(_fefet_at_area(a) for a in FEFET_AREA_SWEEP_F2)
        else:
            cells.append(tentpoles_for(tech).optimistic)

    arrays = {
        (a.cell, a.capacity_bytes, a.bits_per_cell): a
        for bits in (1, 2)
        for a in engine.arrays(SweepSpec(
            cells=cells, capacities_bytes=capacities, node_nm=ENVM_NODE_NM,
            bits_per_cell=bits,
        ))
    }
    for cell in cells:
        for bits in (1, 2):
            model = fault_model_for(cell, bits)
            accuracy = proxy.accuracy_under_model(
                model, trials=trials, seed=runtime.seed_or(0)
            )
            for capacity in capacities:
                array = arrays.get((cell, capacity, bits))
                if array is None:  # dropped under on_error="skip"
                    continue
                row = array_record(array)
                row.update(
                    {
                        "workload": workload,
                        "cell_error_rate": model.cell_error_rate,
                        "accuracy": accuracy,
                        "baseline_accuracy": proxy.baseline_accuracy,
                        "accuracy_ok": accuracy
                        >= proxy.baseline_accuracy - ACCURACY_TOLERANCE,
                    }
                )
                table.append(row)
    return table


def acceptable(table: ResultTable) -> ResultTable:
    """The paper's filter: only accuracy-preserving configurations."""
    return table.filter(lambda r: r["accuracy_ok"])
