"""Cell and survey-database import/export.

The artifact ships its cell database as files users can extend; this module
provides the equivalent round-trip: cells to/from plain dicts (JSON-ready)
and the survey database to CSV, so externally curated definitions can flow
into sweeps and survey snapshots can be diffed across releases.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, fields
from typing import Any, Iterable, Mapping, Optional

from repro.cells.base import AccessDevice, CellTechnology, SurveyEntry, TechnologyClass
from repro.cells.database import all_entries
from repro.errors import CellDefinitionError

_CELL_FIELDS = {f.name for f in fields(CellTechnology)}


def cell_to_dict(cell: CellTechnology) -> dict[str, Any]:
    """A JSON-serializable representation of a cell definition."""
    data = {f.name: getattr(cell, f.name) for f in fields(cell)}
    data["tech_class"] = cell.tech_class.value
    data["access_device"] = cell.access_device.value
    return data


def cell_from_dict(data: Mapping[str, Any]) -> CellTechnology:
    """Rebuild a cell from :func:`cell_to_dict` output (or hand-written JSON).

    Unknown keys are rejected so typos in user files fail loudly.
    """
    payload = dict(data)
    unknown = set(payload) - _CELL_FIELDS
    if unknown:
        raise CellDefinitionError(f"unknown cell fields: {sorted(unknown)}")
    if "tech_class" not in payload or "name" not in payload:
        raise CellDefinitionError("cell definitions need 'name' and 'tech_class'")
    payload["tech_class"] = TechnologyClass.from_string(str(payload["tech_class"]))
    if "access_device" in payload and not isinstance(
        payload["access_device"], AccessDevice
    ):
        raw = str(payload["access_device"])
        try:
            payload["access_device"] = AccessDevice(raw)
        except ValueError:
            raise CellDefinitionError(f"unknown access device: {raw!r}") from None
    try:
        return CellTechnology(**payload)
    except TypeError as exc:
        raise CellDefinitionError(str(exc)) from exc


def cells_roundtrip(cells: Iterable[CellTechnology]) -> list[CellTechnology]:
    """Serialize and rebuild (used by tests; also a handy sanity check)."""
    return [cell_from_dict(cell_to_dict(c)) for c in cells]


_SURVEY_COLUMNS = [f.name for f in fields(SurveyEntry)]


def survey_to_csv(entries: Optional[Iterable[SurveyEntry]] = None) -> str:
    """The survey database as CSV (one row per publication)."""
    rows = entries if entries is not None else all_entries()
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_SURVEY_COLUMNS)
    writer.writeheader()
    for entry in rows:
        record = asdict(entry)
        record["tech_class"] = entry.tech_class.value
        writer.writerow(record)
    return buffer.getvalue()


def survey_from_csv(text: str) -> list[SurveyEntry]:
    """Parse a survey CSV back into entries."""
    reader = csv.DictReader(io.StringIO(text))
    entries = []
    for row in reader:
        kwargs: dict[str, Any] = {}
        for key, value in row.items():
            if key not in _SURVEY_COLUMNS:
                raise CellDefinitionError(f"unknown survey column: {key!r}")
            if value in ("", None):
                kwargs[key] = None
                continue
            if key == "tech_class":
                kwargs[key] = TechnologyClass.from_string(value)
            elif key in ("name", "venue", "notes"):
                kwargs[key] = value
            elif key == "mlc_demonstrated":
                kwargs[key] = value == "True"
            elif key in ("year", "node_nm"):
                kwargs[key] = int(float(value))
            else:
                kwargs[key] = float(value)
        entries.append(SurveyEntry(**kwargs))
    return entries
