"""Client request resolution: submit payloads → runnable, fingerprinted work.

The service accepts two request shapes, mirroring the two things the
CLI can run:

* a **study request** — ``{"study": <registry name>, "params": {...},
  "seed": N}`` — resolved against the registry via
  :func:`repro.studies.pipeline.resolve_study_request`;
* a **sweep request** — ``{"sweep": {<raw sweep config>}}`` — the same
  JSON document ``nvmexplorer <config.json>`` takes, minus the
  ``runtime`` section (execution options belong to the server) and
  ``output_csv`` (results come back over HTTP, not the server's disk).

Both resolve to a query object with one uniform surface: ``kind``,
``name``, ``fingerprint()`` (a stable content key covering the inputs,
the cache schema tags, and the source revision — the coalescing and
memoization key), and ``run(runtime)`` returning a
:class:`~repro.studies.pipeline.StudyOutcome`.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Union

from repro.config.schema import parse_config
from repro.core.engine import DSEEngine, SweepSpec
from repro.errors import ReproError
from repro.results.table import ResultTable
from repro.runtime import canonical_json, schema_tags
from repro.runtime.options import RuntimeOptions, ensure_runtime
from repro.runtime.shard import source_digest
from repro.runtime.telemetry import SweepTelemetry
from repro.studies.pipeline import StudyOutcome, StudyRequest, resolve_study_request

#: Keys a sweep payload's config may NOT carry (server-controlled).
_SWEEP_RESERVED = ("runtime", "output_csv")


@dataclass(frozen=True)
class StudyQuery:
    """A registry-study submission (wraps :class:`StudyRequest`)."""

    request: StudyRequest

    kind = "study"

    @property
    def name(self) -> str:
        return self.request.name

    def fingerprint(self) -> str:
        return self.request.fingerprint()

    def run(self, runtime: Optional[RuntimeOptions] = None) -> StudyOutcome:
        return self.request.run(runtime)

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "study": self.request.name,
            "params": dict(self.request.params),
            "seed": self.request.seed,
        }


@dataclass(frozen=True)
class SweepQuery:
    """A raw-sweep submission (the ``nvmexplorer <config.json>`` shape)."""

    raw: Mapping[str, Any]  # validated, reserved keys stripped

    kind = "sweep"

    @property
    def name(self) -> str:
        return str(self.raw.get("name", "unnamed-sweep"))

    def fingerprint(self) -> str:
        """Content key over the canonical config + schema tags + source.

        The raw config (not the parsed form) is hashed: two textually
        different configs that parse identically still coalesce at the
        point level through the engine's own caches, while keeping this
        key cheap and obviously stable.
        """
        payload = {
            "sweep": json.loads(canonical_json(dict(self.raw))),
            "schema_tags": schema_tags(),
            "source": source_digest(),
        }
        return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()

    def run(self, runtime: Optional[RuntimeOptions] = None) -> StudyOutcome:
        """Run the sweep through the engine under the server's runtime."""
        runtime = ensure_runtime(runtime)
        config = parse_config(self.raw)
        spec = SweepSpec(
            cells=config.cells,
            capacities_bytes=config.capacities_bytes,
            traffic=config.traffic,
            node_nm=config.node_nm,
            sram_node_nm=config.sram_node_nm,
            optimization_targets=config.optimization_targets,
            access_bits=config.access_bits,
            bits_per_cell=config.bits_per_cell,
        )
        telemetry = SweepTelemetry(runtime.progress)
        start = time.perf_counter()
        table: Optional[ResultTable] = None
        error: Optional[str] = None
        try:
            table = DSEEngine(runtime.with_progress(telemetry.emit)).run(spec)
        except ReproError as exc:
            if runtime.on_error != "skip":
                raise
            error = str(exc)
        return StudyOutcome(
            name=self.name,
            table=table,
            telemetry=telemetry,
            elapsed_s=time.perf_counter() - start,
            error=error,
        )

    def describe(self) -> dict:
        return {"kind": self.kind, "sweep": self.name}


ServiceQuery = Union[StudyQuery, SweepQuery]


def resolve_request(payload: Mapping[str, Any]) -> ServiceQuery:
    """Validate one submit payload into a runnable query.

    Raises :class:`~repro.errors.ReproError` (or a subclass, e.g.
    :class:`~repro.errors.ConfigError` from sweep validation) on any
    invalid payload — the HTTP layer maps that to a 400.
    """
    if not isinstance(payload, Mapping):
        raise ReproError("submit payload must be an object")
    if "sweep" in payload:
        unknown = sorted(set(payload) - {"sweep"})
        if unknown:
            raise ReproError(
                f"sweep request: unknown keys {', '.join(unknown)}"
            )
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
        parse_config(raw)  # validate now; run() re-parses cheaply
        return SweepQuery(raw=raw)
    return StudyQuery(request=resolve_study_request(payload))
