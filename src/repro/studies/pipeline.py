"""The unified study pipeline: a registry of uniformly-runnable studies.

Every paper study is described by one :class:`StudySpec` — its builder,
default parameters, report options, and the figure it reproduces — and
**every** spec runs the same way: ``spec.run(RuntimeOptions(...))``.
The shared :class:`~repro.runtime.options.RuntimeOptions` (cache_dir,
on_error, progress, seed) is threaded down through
:class:`~repro.core.engine.DSEEngine` by every builder, so the
persistent characterization / evaluation / trace caches work
identically across the whole suite — no signature probing, no per-study
shims.

The registry is the single source of truth for the study CLI
(``nvmexplorer run-study <name>`` and ``list-studies``), the summary
driver (``nvmexplorer summary``), and the service; a study has no
config-file form, its defaults live here only.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Optional

from repro.errors import ReproError
from repro.results.table import ResultTable
from repro.runtime.options import RuntimeOptions, ensure_runtime
from repro.runtime.telemetry import SweepTelemetry
from repro.studies.arrays import dnn_buffer_arrays, llc_arrays, optimization_target_study
from repro.studies.codesign import area_efficiency_study, back_gated_fefet_study
from repro.studies.dnn_study import continuous_study, intermittent_study
from repro.studies.graph_study import graph_study
from repro.studies.hierarchy_study import hierarchy_study
from repro.studies.llc_study import llc_study
from repro.studies.mlc_study import mlc_study
from repro.studies.retention_study import retention_study
from repro.studies.writebuffer_study import writebuffer_study


@dataclass(frozen=True)
class StudyOutcome:
    """One study run: its table, aggregated telemetry, and timing.

    An *incremental* outcome (``cached=True``) records a study the
    summary skipped because its manifest entry was up to date: there is
    no table (the artifacts already exist on disk), the telemetry is
    empty, and ``rows`` reports the prior run's row count.
    """

    name: str
    table: Optional[ResultTable]
    telemetry: SweepTelemetry
    elapsed_s: float
    error: Optional[str] = None
    cached: bool = False
    cached_rows: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def rows(self) -> int:
        if self.table is None:
            return self.cached_rows if self.cached else 0
        return len(self.table)

    @property
    def poisoned(self) -> int:
        """Always ``0``: no sweep point is retried or set aside.

        It stays only because ``perfbench/child.py`` reads it, and
        ``perfbench/`` may change only in a change to the benchmark
        itself; delete it together with that read.
        """
        return 0

    @property
    def status(self) -> str:
        """Manifest-vocabulary status: ``ok`` / ``cached`` / ``failed``."""
        if not self.ok:
            return "failed"
        return "cached" if self.cached else "ok"


@dataclass(frozen=True)
class StudySpec:
    """One registered study: builder, defaults, and reporting metadata."""

    name: str
    builder: Callable[..., ResultTable]
    figure: str  # paper figure/table tag, e.g. "Fig. 9"
    description: str
    params: Mapping[str, Any] = field(default_factory=dict)
    report: Mapping[str, Any] = field(default_factory=dict)  # study_report kwargs

    def run(
        self,
        runtime: Optional[RuntimeOptions] = None,
        **overrides: Any,
    ) -> StudyOutcome:
        """Run the study under shared runtime options.

        ``overrides`` replace the spec's default parameters.  The
        outcome's telemetry is the one counter of the events of every
        engine the builder creates; each event is still forwarded to
        ``runtime.progress``.  Under
        ``on_error="skip"`` a framework error becomes a failed outcome
        instead of an exception.
        """
        runtime = ensure_runtime(runtime)
        telemetry = SweepTelemetry(runtime.progress)
        kwargs = {**self.params, **overrides}
        start = time.perf_counter()
        table = None
        error = None
        try:
            table = self.builder(**kwargs, runtime=runtime.with_progress(telemetry.emit))
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


def _registry(*specs: StudySpec) -> dict[str, StudySpec]:
    out: dict[str, StudySpec] = {}
    for spec in specs:
        if spec.name in out:
            raise ValueError(f"duplicate study name {spec.name!r}")
        out[spec.name] = spec
    return out


#: Every paper study, keyed by registry name (the CLI/summary interface).
REGISTRY: dict[str, StudySpec] = _registry(
    StudySpec(
        name="fig03_array_targets",
        builder=optimization_target_study,
        figure="Fig. 3",
        description="Iso-capacity arrays across optimization targets vs. SRAM.",
        report={"winner_column": None},
    ),
    StudySpec(
        name="fig05_dnn_arrays",
        builder=dnn_buffer_arrays,
        figure="Fig. 5",
        description="2 MB NVDLA-buffer replacement arrays.",
        report={"winner_column": None},
    ),
    StudySpec(
        name="fig06_dnn_continuous",
        builder=continuous_study,
        figure="Fig. 6 (left)",
        description="Operating power under continuous 60 FPS DNN traffic.",
    ),
    StudySpec(
        name="fig06_dnn_intermittent",
        builder=intermittent_study,
        figure="Fig. 6 (right)",
        description="Energy per inference with weights resident in eNVM.",
        report={"winner_column": "energy_per_inference_uj"},
    ),
    StudySpec(
        name="fig08_graph",
        builder=graph_study,
        figure="Fig. 8",
        description="Graph-kernel traffic envelopes on 8 MB scratchpads.",
        params={"points_per_axis": 3},
    ),
    StudySpec(
        name="fig09_spec_llc",
        builder=llc_study,
        figure="Fig. 9",
        description="SPEC CPU2017 traffic against 16 MB LLC candidates.",
    ),
    StudySpec(
        name="fig10_llc_arrays",
        builder=llc_arrays,
        figure="Fig. 10",
        description="16 MB LLC-candidate arrays (64 B line access).",
        report={"winner_column": None},
    ),
    StudySpec(
        name="fig11_bg_fefet",
        builder=back_gated_fefet_study,
        figure="Fig. 11",
        description="Back-gated FeFET co-design vs. standard FeFETs.",
        params={"points_per_axis": 2},
    ),
    StudySpec(
        name="fig12_area_efficiency",
        builder=area_efficiency_study,
        figure="Fig. 12",
        description="Organization cloud annotated with area efficiency.",
        params={"traffic_points": 2},
        report={"winner_column": None},
    ),
    StudySpec(
        name="fig13_mlc",
        builder=mlc_study,
        figure="Fig. 13",
        description="SLC vs. MLC density and fault-injected accuracy.",
        params={"trials": 2},
        report={"winner_column": None},
    ),
    StudySpec(
        name="fig14_writebuffer",
        builder=writebuffer_study,
        figure="Fig. 14",
        description="Write-buffer masking/coalescing what-if scenarios.",
    ),
    StudySpec(
        name="ext_retention",
        builder=retention_study,
        figure="extension",
        description="Retention-enforced scrubbing costs for intermittent DNN.",
        report={"winner_column": None},
    ),
    StudySpec(
        name="ext_hierarchy",
        builder=hierarchy_study,
        figure="extension",
        description="STT-front two-level hierarchies over backing eNVMs.",
        report={"winner_column": None},
    ),
    StudySpec(
        name="ext_synthetic_llc",
        builder=llc_study,
        figure="Fig. 9 (regenerated)",
        description=(
            "LLC study on cache-simulator-regenerated traffic "
            "(exercises the persistent trace cache)."
        ),
        params={"source": "synthetic", "n_accesses": 60_000},
    ),
)


def describe_registry() -> str:
    """One aligned line per registered study (the ``list-studies`` output)."""
    return "\n".join(
        f"{name:26s} {spec.figure:20s} {spec.description}"
        for name, spec in REGISTRY.items()
    )


def get_study(name: str) -> StudySpec:
    """The spec for ``name``; raises :class:`ReproError` when unknown."""
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(REGISTRY)
        raise ReproError(f"unknown study {name!r} (known: {known})") from None


@dataclass(frozen=True)
class StudyRequest:
    """One resolved query: spec + effective inputs.

    The unit the serving layer works in: a request carries everything
    that determines a study's artifacts (spec, parameter overrides, seed
    override), so :meth:`fingerprint` is a stable content key — two
    clients asking for the same study with the same inputs hash
    identically and can share one computation and one cached answer.
    A request over an unregistered spec is a config sweep (see
    :func:`repro.service.requests.resolve_request`).
    """

    spec: StudySpec
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def kind(self) -> str:
        """``"study"`` for a registered spec, ``"sweep"`` otherwise."""
        return "study" if REGISTRY.get(self.spec.name) is self.spec else "sweep"

    def describe(self) -> dict:
        """The request as a job status reports it."""
        if self.kind == "sweep":
            return {"kind": "sweep", "sweep": self.name}
        return {
            "kind": "study",
            "study": self.name,
            "params": dict(self.params),
            "seed": self.seed,
        }

    def fingerprint(self) -> str:
        """Content key covering params, seed, and the source revision
        (:func:`~repro.runtime.shard.study_fingerprint`)."""
        # Imported lazily: the manifest module builds on the runtime
        # package only, but keeping pipeline import-light preserves the
        # existing layering.
        from repro.runtime.shard import study_fingerprint

        return study_fingerprint(self.spec, overrides=self.params, seed=self.seed)

    def run(self, runtime: Optional[RuntimeOptions] = None) -> StudyOutcome:
        """Run the request under ``runtime`` (its seed beats the runtime's)."""
        runtime = ensure_runtime(runtime)
        if self.seed is not None:
            runtime = replace(runtime, seed=int(self.seed))
        return self.spec.run(runtime, **self.params)


def parse_seed(value: Any) -> int:
    """An outside seed value as an ``int``.

    Integers, integral floats (``3.0``) and integer strings pass; a bool
    or a non-integral number raises ``ValueError("seed must be an
    integer, got ...")`` instead of being truncated.
    """
    message = f"seed must be an integer, got {value!r}"
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(message)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(message) from None


#: Keys a study-request payload may carry.
_REQUEST_KEYS = frozenset({"study", "params", "seed"})


def resolve_study_request(payload: Mapping[str, Any]) -> StudyRequest:
    """Validate a client's study-request payload into a :class:`StudyRequest`.

    The payload is the service's submit body (already JSON-decoded), and
    ``run-study`` builds the same shape from its arguments::

        {"study": "fig09_spec_llc", "params": {...}, "seed": 7}

    Raises :class:`~repro.errors.ReproError` on an unknown study, unknown
    payload keys, parameters the study's builder does not accept, or a
    ``runtime`` parameter (execution options belong to whoever runs the
    request — the server, or ``run-study``'s flags — not the request).
    """
    if not isinstance(payload, Mapping):
        raise ReproError("study request must be an object")
    unknown = sorted(set(payload) - _REQUEST_KEYS)
    if unknown:
        raise ReproError(
            f"unknown request keys: {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted(_REQUEST_KEYS))})"
        )
    if "study" not in payload:
        raise ReproError("study request needs a 'study' key")
    spec = get_study(str(payload["study"]))
    params = payload.get("params") or {}
    if not isinstance(params, Mapping):
        raise ReproError(f"study {spec.name!r}: params must be an object")
    if "runtime" in params:
        raise ReproError(
            f"study {spec.name!r}: 'runtime' is not a study parameter "
            "(execution options belong to the runner: CLI flags or the "
            "server's config)"
        )
    try:
        inspect.signature(spec.builder).bind_partial(**params)
    except TypeError as exc:
        raise ReproError(f"study {spec.name!r}: bad params ({exc})") from None
    seed = payload.get("seed")
    if seed is not None:
        try:
            seed = parse_seed(seed)
        except ValueError as exc:
            raise ReproError(f"study {spec.name!r}: {exc}") from None
    return StudyRequest(spec=spec, params=dict(params), seed=seed)


def run_study(
    name: str,
    runtime: Optional[RuntimeOptions] = None,
    **overrides: Any,
) -> ResultTable:
    """Run one registered study and return its table.

    The single-study convenience wrapper used by the CLI; failures raise
    regardless of ``on_error`` (a lone study has nothing to keep going
    for — pass ``on_error="skip"`` to :meth:`StudySpec.run` and inspect
    the outcome to tolerate them).
    """
    outcome = get_study(name).run(runtime, **overrides)
    if outcome.table is None:
        raise ReproError(f"study {name!r} failed: {outcome.error}")
    return outcome.table
