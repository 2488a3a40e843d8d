"""Cell technology substrate: survey database, tentpoles, and presets."""

from repro.cells.base import (
    AccessDevice,
    CellTechnology,
    SurveyEntry,
    TechnologyClass,
    TechnologyRange,
)
from repro.cells.database import (
    PUBLICATION_COUNTS,
    SURVEY_YEARS,
    all_entries,
    parameter_ranges,
    publication_counts,
    survey_entries,
    total_publications,
)
from repro.cells.envelopes import (
    ENVELOPES,
    STUDY_TECHNOLOGIES,
    VALIDATED_TECHNOLOGIES,
    ElectricalEnvelope,
    envelope_for,
)
from repro.cells.export import (
    cell_from_dict,
    cell_to_dict,
)
from repro.cells.presets import (
    back_gated_fefet,
    edram_cell,
    reference_rram,
    sram_cell,
)
from repro.cells.tentpole import (
    TentpoleSet,
    all_tentpoles,
    build_tentpole_cell,
    study_cells,
    tentpoles_for,
)

__all__ = [
    "AccessDevice",
    "CellTechnology",
    "SurveyEntry",
    "TechnologyClass",
    "TechnologyRange",
    "ElectricalEnvelope",
    "ENVELOPES",
    "envelope_for",
    "STUDY_TECHNOLOGIES",
    "VALIDATED_TECHNOLOGIES",
    "PUBLICATION_COUNTS",
    "SURVEY_YEARS",
    "all_entries",
    "survey_entries",
    "publication_counts",
    "parameter_ranges",
    "total_publications",
    "sram_cell",
    "edram_cell",
    "reference_rram",
    "back_gated_fefet",
    "TentpoleSet",
    "tentpoles_for",
    "all_tentpoles",
    "build_tentpole_cell",
    "study_cells",
    "cell_to_dict",
    "cell_from_dict",
]
