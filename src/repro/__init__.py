"""NVMExplorer reproduction: cross-stack DSE for embedded non-volatile memory.

The package mirrors the paper's three-stage flow:

1. **Configure** — pick cells (:mod:`repro.cells`), system parameters
   (capacity, node, optimization target), and application traffic
   (:mod:`repro.traffic`), either directly or through JSON configs
   (:mod:`repro.config`).
2. **Evaluate** — characterize memory arrays (:mod:`repro.nvsim`), run the
   cross-stack analytical models (:mod:`repro.core`), and optionally inject
   faults into application data (:mod:`repro.faults`, :mod:`repro.dnn`).
3. **Explore** — filter/aggregate results (:mod:`repro.results`) and render
   them (:mod:`repro.viz`); the paper's case studies live in
   :mod:`repro.studies`.
"""

import os

# Every entry point imports this package before numpy, so the default
# reaches OpenBLAS while it loads (it reads the variable only then).  The
# suite is serial and its GEMMs are small: on a 2-core box a 96-wide
# float32 matmul takes 0.03-0.3 ms on one thread, but handing it to a
# second OpenBLAS thread often stalls about 8 ms, which made the 75 DNN
# dense-layer calls of one suite run cost 0.35 s instead of 0.015 s.
# ``setdefault`` keeps a value the user has set.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from repro.cells import (  # noqa: E402
    CellTechnology,
    TechnologyClass,
    back_gated_fefet,
    reference_rram,
    sram_cell,
    study_cells,
    tentpoles_for,
)
from repro.errors import ReproError  # noqa: E402
from repro.nvsim import ArrayCharacterization, OptimizationTarget, characterize  # noqa: E402
from repro.runtime import CharacterizationCache, ProgressEvent, SweepTelemetry  # noqa: E402

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "CellTechnology",
    "TechnologyClass",
    "tentpoles_for",
    "study_cells",
    "sram_cell",
    "reference_rram",
    "back_gated_fefet",
    "characterize",
    "ArrayCharacterization",
    "OptimizationTarget",
    "CharacterizationCache",
    "ProgressEvent",
    "SweepTelemetry",
]
