"""Array characterization engine (the NVSim reimplementation).

Public entry points:

* :func:`characterize` — one cell + capacity + optimization target -> one
  :class:`ArrayCharacterization`.
* :func:`characterize_sweep` — many cells x many targets (Figure 3).
* :func:`all_organizations` — the full organization cloud (Figure 12).

All three run on the structure-of-arrays batch engine
(:mod:`repro.nvsim.batch` — :func:`enumerate_soa`, :func:`evaluate_soa`,
:func:`evaluate_many`), which is bit-identical to the scalar model
(:func:`repro.nvsim.model.evaluate_organization`, the parity oracle).
"""

from repro.nvsim.batch import (
    BatchNumbers,
    OrganizationSoA,
    enumerate_soa,
    evaluate_many,
    evaluate_soa,
)
from repro.nvsim.characterize import (
    DEFAULT_ACCESS_BITS,
    all_organizations,
    characterize,
    characterize_sweep,
    clear_characterization_caches,
    warm_lanes,
)
from repro.nvsim.stacking import characterize_stacked, stacking_sweep
from repro.nvsim.organization import ArrayOrganization, candidate_organizations
from repro.nvsim.result import (
    DEFAULT_TARGET_SWEEP,
    ArrayCharacterization,
    OptimizationTarget,
)

__all__ = [
    "DEFAULT_ACCESS_BITS",
    "DEFAULT_TARGET_SWEEP",
    "ArrayCharacterization",
    "ArrayOrganization",
    "BatchNumbers",
    "OrganizationSoA",
    "OptimizationTarget",
    "all_organizations",
    "candidate_organizations",
    "characterize",
    "characterize_sweep",
    "characterize_stacked",
    "clear_characterization_caches",
    "enumerate_soa",
    "evaluate_many",
    "evaluate_soa",
    "stacking_sweep",
    "warm_lanes",
]
