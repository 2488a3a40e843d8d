"""Client request resolution: submit payloads → study requests.

The service accepts two payload shapes, mirroring the two things the
CLI can run, and resolves both to one
:class:`~repro.studies.pipeline.StudyRequest`:

* a **study payload** — ``{"study": <registry name>, "params": {...},
  "seed": N}`` — resolved against the registry via
  :func:`repro.studies.pipeline.resolve_study_request`;
* a **sweep payload** — ``{"sweep": {<raw sweep config>}}`` — the same
  JSON document ``nvmexplorer <config.json>`` takes, minus the
  ``runtime`` section (execution options belong to the server) and
  ``output_csv`` (results come back over HTTP, not the server's disk).
  It becomes a request over an unregistered
  :class:`~repro.studies.pipeline.StudySpec` whose builder,
  :func:`repro.config.loader.run_sweep`, parses and runs the config
  (``params={"config": raw}``).

So every job runs through ``StudySpec.run`` and is keyed by
:func:`~repro.runtime.shard.study_fingerprint`; ``kind`` and
``describe()`` tell the two shapes apart in job statuses.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.config.loader import run_sweep
from repro.config.schema import parse_config
from repro.errors import ReproError
from repro.studies.pipeline import StudyRequest, StudySpec, resolve_study_request

#: Keys a sweep payload's config may NOT carry (server-controlled).
_SWEEP_RESERVED = ("runtime", "output_csv")


def resolve_request(payload: Mapping[str, Any]) -> StudyRequest:
    """Validate one submit payload into a runnable request.

    Raises :class:`~repro.errors.ReproError` (or a subclass, e.g.
    :class:`~repro.errors.ConfigError` from sweep validation) on any
    invalid payload — the HTTP layer maps that to a 400.
    """
    if not isinstance(payload, Mapping):
        raise ReproError("submit payload must be an object")
    if "sweep" not in payload:
        return resolve_study_request(payload)
    unknown = sorted(set(payload) - {"sweep"})
    if unknown:
        raise ReproError(f"sweep request: unknown keys {', '.join(unknown)}")
    sweep = payload["sweep"]
    if not isinstance(sweep, Mapping):
        raise ReproError("sweep request: 'sweep' must be a config object")
    reserved = [key for key in _SWEEP_RESERVED if key in sweep]
    if reserved:
        raise ReproError(
            f"sweep request: {', '.join(reserved)} not allowed "
            "(execution options and outputs are server-controlled)"
        )
    raw = dict(sweep)
    config = parse_config(raw)  # validate now; run_sweep re-parses cheaply
    return StudyRequest(
        StudySpec(
            name=config.name,
            builder=run_sweep,
            figure="sweep",
            description="config sweep",
            params={"config": raw},
        )
    )
