"""Cell definitions to and from plain dicts.

The artifact ships its cell database as files users can extend; this module
provides the equivalent round-trip: cells to/from plain dicts (JSON-ready),
which the cache fingerprints and characterization records are built on.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Mapping

from repro.cells.base import AccessDevice, CellTechnology, TechnologyClass
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

