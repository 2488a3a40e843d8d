"""JSON configuration schema (the paper's ``config/*.json`` interface).

A config describes one design sweep::

    {
      "name": "main_dnn_study",
      "cells": {
        "technologies": ["STT", "RRAM", "FeFET", "PCM"],
        "flavors": ["optimistic", "pessimistic"],
        "include_sram": true,
        "custom": [ { "name": "my-cell", "tech_class": "RRAM", ... } ]
      },
      "system": {
        "capacities_mb": [2, 8],
        "node_nm": 22,
        "sram_node_nm": 16,
        "optimization_targets": ["ReadEDP"],
        "access_bits": 512,
        "bits_per_cell": 1
      },
      "traffic": {
        "kind": "dnn-continuous" | "dnn-intermittent" | "graph-generic"
                | "graph-kernels" | "spec2017" | "generic",
        ... kind-specific parameters ...
      },
      "runtime": {
        "cache_dir": ".nvmcache",
        "trace_cache_dir": null,
        "on_error": "raise" | "skip",
        "seed": null,
        "point_shard_index": 0,
        "point_shard_count": 1,
        "chaos": { "seed": 0, "cache_corrupt_rate": 0.1 }  // testing only
      },
      "output_csv": "results.csv"
    }

The optional ``runtime`` section controls sweep execution (see
:mod:`repro.runtime`; sweeps always run serially in-process): the
persistent cache root (characterizations, evaluation blocks, and LLC
traces live under it), an optional trace-cache override, whether a
failing design point aborts the sweep or is skipped with telemetry, a
seed override for stochastic components, intra-study point sharding
(run only the deterministic 1/``point_shard_count`` slice of every
sweep's fingerprinted point space), and cache-corruption chaos for
failure-handling tests.  Any other key is a :class:`ConfigError`.

A second config shape describes one *registered study* instead of a raw
sweep (the ``config/studies/*.json`` stubs)::

    {
      "study": "fig09_spec_llc",
      "params": { "capacity_bytes": 16777216 },
      "runtime": { "cache_dir": ".nvmcache" },
      "output_csv": "output/results/fig09_spec_llc.csv",
      "report_md": "output/reports/fig09_spec_llc.md"
    }

A third config shape describes one *suite run* — a (possibly sharded,
incremental) pass over the study registry, the config-file form of
``python -m repro.studies.summary``::

    {
      "suite": {
        "only": ["fig09_spec_llc", "fig14_writebuffer"],   // optional
        "output_dir": "output",
        "shard_index": 0,
        "shard_count": 3,
        "point_shard_index": 0,      // optional intra-study sharding
        "point_shard_count": 1,
        "incremental": true
      },
      "runtime": { "cache_dir": ".nvmcache" }
    }

:func:`parse_config` validates a sweep dict into a :class:`ParsedConfig`,
:func:`parse_study_config` a study dict into a :class:`StudyConfig`, and
:func:`parse_suite_config` a suite dict into a :class:`SuiteConfig`;
:func:`repro.config.loader.run_config` /
:func:`repro.config.loader.run_study_config` /
:func:`repro.config.loader.run_suite_config` execute them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from repro.cells import CellTechnology, sram_cell, tentpoles_for
from repro.cells.base import TechnologyClass
from repro.errors import ConfigError
from repro.nvsim.result import OptimizationTarget
from repro.runtime.chaos import ChaosOptions
from repro.runtime.options import RuntimeOptions
from repro.traffic.base import TrafficPattern
from repro.traffic.dnn import DNN_WORKLOADS, NVDLAPerformanceModel, continuous_scenarios
from repro.traffic.generic import generic_sweep, graph_envelope_sweep, log_spaced
from repro.traffic.graph import facebook_bfs_traffic, graph_kernel_suite, wikipedia_bfs_traffic
from repro.traffic.spec import spec2017_suite
from repro.units import mb

_VALID_FLAVORS = ("optimistic", "pessimistic", "reference")


@dataclass(frozen=True)
class ParsedConfig:
    """A validated configuration ready to run."""

    name: str
    cells: Sequence[CellTechnology]
    capacities_bytes: Sequence[int]
    node_nm: int
    sram_node_nm: int
    optimization_targets: Sequence[OptimizationTarget]
    access_bits: int
    bits_per_cell: int
    traffic: Sequence[TrafficPattern]
    output_csv: Optional[str] = None
    cache_dir: Optional[str] = None
    trace_cache_dir: Optional[str] = None
    on_error: str = "raise"
    seed: Optional[int] = None
    point_shard_index: int = 0
    point_shard_count: int = 1

    def runtime_options(self, progress=None) -> RuntimeOptions:
        """The sweep's runtime section as shared :class:`RuntimeOptions`."""
        return RuntimeOptions(
            cache_dir=self.cache_dir,
            trace_cache_dir=self.trace_cache_dir,
            on_error=self.on_error,
            progress=progress,
            seed=self.seed,
            point_shard_index=self.point_shard_index,
            point_shard_count=self.point_shard_count,
        )


@dataclass(frozen=True)
class StudyConfig:
    """A validated registered-study configuration ready to run."""

    study: str
    params: Mapping[str, Any]
    runtime: RuntimeOptions
    output_csv: Optional[str] = None
    report_md: Optional[str] = None


@dataclass(frozen=True)
class SuiteConfig:
    """A validated suite-run configuration (sharded/incremental summary).

    ``point_shard_index`` / ``point_shard_count`` are ``None`` when the
    suite section leaves intra-study sharding to the runtime section.
    """

    only: Optional[Sequence[str]]
    output_dir: str
    shard_index: int
    shard_count: int
    incremental: bool
    runtime: RuntimeOptions
    point_shard_index: Optional[int] = None
    point_shard_count: Optional[int] = None


@dataclass(frozen=True)
class ServiceConfig:
    """A validated serving configuration (``config/service.json``).

    ``workers`` is the number of job slots: how many studies run
    concurrently, each on its own thread and each serially within it;
    ``rate_limit_rps``/``rate_limit_burst`` parameterize the per-client
    submit token bucket (``rps <= 0`` disables limiting);
    ``warm_studies`` names registry studies the warm-keeper pre-computes
    whenever their fingerprints change.  A failing job is recorded as
    failed at once; resubmitting it starts a fresh job.
    """

    host: str = "127.0.0.1"
    port: int = 8177
    workers: int = 2
    rate_limit_rps: float = 20.0
    rate_limit_burst: int = 40
    warm_studies: tuple = ()
    warm_interval_s: float = 300.0
    drain_timeout_s: float = 30.0
    runtime: RuntimeOptions = RuntimeOptions()


def _require(mapping: Mapping[str, Any], key: str, context: str) -> Any:
    if key not in mapping:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _parse_cells(section: Mapping[str, Any]) -> list[CellTechnology]:
    cells: list[CellTechnology] = []
    technologies = section.get("technologies", [])
    flavors = section.get("flavors", ["optimistic", "pessimistic"])
    for flavor in flavors:
        if flavor not in _VALID_FLAVORS:
            raise ConfigError(f"cells.flavors: unknown flavor {flavor!r}")
    for tech_name in technologies:
        tech = TechnologyClass.from_string(str(tech_name))
        tent = tentpoles_for(tech)
        for flavor, cell in tent.labelled():
            if flavor in flavors:
                cells.append(cell)
    if section.get("include_sram", False):
        cells.append(sram_cell(int(section.get("sram_node_nm", 16))))
    for custom in section.get("custom", []):
        cells.append(_parse_custom_cell(custom))
    if not cells:
        raise ConfigError("cells: configuration selects no cells")
    return cells


def _parse_custom_cell(raw: Mapping[str, Any]) -> CellTechnology:
    data = dict(raw)
    name = _require(data, "name", "cells.custom")
    tech = TechnologyClass.from_string(str(_require(data, "tech_class", "cells.custom")))
    data.pop("name")
    data.pop("tech_class")
    try:
        return CellTechnology(name=str(name), tech_class=tech, **data)
    except TypeError as exc:
        raise ConfigError(f"cells.custom[{name}]: {exc}") from exc


def _parse_traffic(section: Optional[Mapping[str, Any]]) -> list[TrafficPattern]:
    if not section:
        return []
    kind = str(_require(section, "kind", "traffic"))
    if kind == "generic":
        reads = section.get("reads_per_second") or log_spaced(
            float(section.get("min_reads", 1e5)),
            float(section.get("max_reads", 1e9)),
            int(section.get("points", 5)),
        )
        writes = section.get("writes_per_second") or log_spaced(
            float(section.get("min_writes", 1e4)),
            float(section.get("max_writes", 1e7)),
            int(section.get("points", 5)),
        )
        return generic_sweep(
            [float(r) for r in reads],
            [float(w) for w in writes],
            access_bytes=int(section.get("access_bytes", 8)),
        )
    if kind == "graph-generic":
        return graph_envelope_sweep(points_per_axis=int(section.get("points", 4)))
    if kind == "graph-kernels":
        return [facebook_bfs_traffic(), wikipedia_bfs_traffic(),
                *graph_kernel_suite()]
    if kind == "spec2017":
        return spec2017_suite()
    if kind == "dnn-continuous":
        buffer_mb = float(section.get("buffer_mb", 2))
        return continuous_scenarios(mb(buffer_mb))
    if kind == "dnn-intermittent":
        workload_name = str(section.get("workload", "resnet26"))
        try:
            workload = DNN_WORKLOADS[workload_name]
        except KeyError:
            raise ConfigError(
                f"traffic: unknown DNN workload {workload_name!r} "
                f"(known: {sorted(DNN_WORKLOADS)})"
            ) from None
        capacity = mb(float(section.get("capacity_mb", 8)))
        model = NVDLAPerformanceModel(capacity)
        rate = float(section.get("inferences_per_second", 1.0))
        return [model.intermittent_traffic(workload, rate)]
    raise ConfigError(f"traffic: unknown kind {kind!r}")


def parse_config(raw: Mapping[str, Any]) -> ParsedConfig:
    """Validate a raw config dict."""
    if not isinstance(raw, Mapping):
        raise ConfigError("config root must be an object")
    name = str(raw.get("name", "unnamed-sweep"))
    cells = _parse_cells(_require(raw, "cells", "config"))

    system = raw.get("system", {})
    capacities_mb = system.get("capacities_mb", [4])
    if not capacities_mb:
        raise ConfigError("system.capacities_mb must be non-empty")
    capacities = [mb(float(c)) for c in capacities_mb]
    targets = [
        OptimizationTarget.from_string(str(t))
        for t in system.get("optimization_targets", ["ReadEDP"])
    ]
    if not targets:
        raise ConfigError("system.optimization_targets must be non-empty")

    bits = int(system.get("bits_per_cell", 1))
    if bits < 1:
        raise ConfigError("system.bits_per_cell must be >= 1")

    runtime = _parse_runtime(raw.get("runtime", {}))

    return ParsedConfig(
        name=name,
        cells=cells,
        capacities_bytes=capacities,
        node_nm=int(system.get("node_nm", 22)),
        sram_node_nm=int(system.get("sram_node_nm", 16)),
        optimization_targets=targets,
        access_bits=int(system.get("access_bits", 64)),
        bits_per_cell=bits,
        traffic=_parse_traffic(raw.get("traffic")),
        output_csv=raw.get("output_csv"),
        cache_dir=runtime.cache_dir,
        trace_cache_dir=runtime.trace_cache_dir,
        on_error=runtime.on_error,
        seed=runtime.seed,
        point_shard_index=runtime.point_shard_index,
        point_shard_count=runtime.point_shard_count,
    )


def _validate_point_shard(index: int, count: int, context: str) -> None:
    if count < 1:
        raise ConfigError(f"{context}.point_shard_count must be >= 1")
    if not 0 <= index < count:
        raise ConfigError(
            f"{context}.point_shard_index must be in [0, {count}), got {index}"
        )


#: Keys a ``runtime`` section may hold.
_RUNTIME_KEYS = frozenset({
    "cache_dir", "trace_cache_dir", "on_error", "seed",
    "point_shard_index", "point_shard_count", "chaos",
})


def _parse_runtime(section: Any) -> RuntimeOptions:
    """Validate a ``runtime`` section into :class:`RuntimeOptions`."""
    if not isinstance(section, Mapping):
        raise ConfigError("runtime section must be an object")
    unknown = sorted(set(section) - _RUNTIME_KEYS)
    if unknown:
        raise ConfigError(
            f"unknown runtime option(s) {unknown}; known options: "
            f"{sorted(_RUNTIME_KEYS)}"
        )
    on_error = str(section.get("on_error", "raise"))
    if on_error not in ("raise", "skip"):
        raise ConfigError("runtime.on_error must be 'raise' or 'skip'")
    cache_dir = section.get("cache_dir")
    trace_cache_dir = section.get("trace_cache_dir")
    seed = section.get("seed")
    point_shard_index = int(section.get("point_shard_index", 0))
    point_shard_count = int(section.get("point_shard_count", 1))
    _validate_point_shard(point_shard_index, point_shard_count, "runtime")
    chaos_section = section.get("chaos")
    chaos = None
    if chaos_section is not None:
        chaos = ChaosOptions.from_mapping(chaos_section)
    return RuntimeOptions(
        cache_dir=None if cache_dir is None else str(cache_dir),
        trace_cache_dir=None if trace_cache_dir is None else str(trace_cache_dir),
        on_error=on_error,
        seed=None if seed is None else int(seed),
        point_shard_index=point_shard_index,
        point_shard_count=point_shard_count,
        chaos=chaos,
    )


def is_study_config(raw: Mapping[str, Any]) -> bool:
    """Does this raw config describe a registered study (vs. a raw sweep)?"""
    return isinstance(raw, Mapping) and "study" in raw


def is_suite_config(raw: Mapping[str, Any]) -> bool:
    """Does this raw config describe a (sharded) suite run?"""
    return isinstance(raw, Mapping) and "suite" in raw


def is_service_config(raw: Mapping[str, Any]) -> bool:
    """Does this raw config describe a serving deployment?"""
    return isinstance(raw, Mapping) and "service" in raw


def parse_service_config(raw: Mapping[str, Any]) -> ServiceConfig:
    """Validate a raw service config dict (``{"service": {...}, "runtime": {...}}``)."""
    if not isinstance(raw, Mapping):
        raise ConfigError("config root must be an object")
    section = _require(raw, "service", "config")
    if not isinstance(section, Mapping):
        raise ConfigError("service section must be an object")
    port = int(section.get("port", 8177))
    if not 0 <= port <= 65535:
        raise ConfigError(f"service.port must be in [0, 65535], got {port}")
    workers = int(section.get("workers", 2))
    if workers < 1:
        raise ConfigError("service.workers must be >= 1")
    rate_limit_rps = float(section.get("rate_limit_rps", 20.0))
    rate_limit_burst = int(section.get("rate_limit_burst", 40))
    if rate_limit_rps > 0 and rate_limit_burst < 1:
        raise ConfigError("service.rate_limit_burst must be >= 1")
    warm_studies = section.get("warm_studies", [])
    if not isinstance(warm_studies, Sequence) or isinstance(warm_studies, str):
        raise ConfigError("service.warm_studies must be a list of study names")
    if warm_studies:
        # Imported lazily, exactly like parse_study_config: service parsing
        # should not drag the engine stack into sweep-only usage.
        from repro.errors import ReproError
        from repro.studies.pipeline import get_study

        try:
            for name in warm_studies:
                get_study(str(name))
        except ReproError as exc:
            raise ConfigError(str(exc)) from None
    warm_interval_s = float(section.get("warm_interval_s", 300.0))
    if warm_interval_s <= 0:
        raise ConfigError("service.warm_interval_s must be > 0")
    drain_timeout_s = float(section.get("drain_timeout_s", 30.0))
    if drain_timeout_s < 0:
        raise ConfigError("service.drain_timeout_s must be >= 0")
    return ServiceConfig(
        host=str(section.get("host", "127.0.0.1")),
        port=port,
        workers=workers,
        rate_limit_rps=rate_limit_rps,
        rate_limit_burst=rate_limit_burst,
        warm_studies=tuple(str(name) for name in warm_studies),
        warm_interval_s=warm_interval_s,
        drain_timeout_s=drain_timeout_s,
        runtime=_parse_runtime(raw.get("runtime", {})),
    )


def parse_suite_config(raw: Mapping[str, Any]) -> SuiteConfig:
    """Validate a raw suite-run config dict."""
    if not isinstance(raw, Mapping):
        raise ConfigError("config root must be an object")
    section = _require(raw, "suite", "config")
    if not isinstance(section, Mapping):
        raise ConfigError("suite section must be an object")
    only = section.get("only")
    if only is not None:
        if not isinstance(only, Sequence) or isinstance(only, str):
            raise ConfigError("suite.only must be a list of study names")
        # Imported lazily, exactly like parse_study_config: suite parsing
        # should not drag the engine stack into sweep-only usage.
        from repro.errors import ReproError
        from repro.studies.pipeline import get_study

        try:
            for name in only:
                get_study(str(name))
        except ReproError as exc:
            raise ConfigError(str(exc)) from None
        only = tuple(str(name) for name in only)
    shard_index = int(section.get("shard_index", 0))
    shard_count = int(section.get("shard_count", 1))
    if shard_count < 1:
        raise ConfigError("suite.shard_count must be >= 1")
    if not 0 <= shard_index < shard_count:
        raise ConfigError(
            f"suite.shard_index must be in [0, {shard_count}), got {shard_index}"
        )
    point_shard_index = section.get("point_shard_index")
    point_shard_count = section.get("point_shard_count")
    if point_shard_index is not None or point_shard_count is not None:
        point_shard_index = int(point_shard_index or 0)
        point_shard_count = int(
            point_shard_count if point_shard_count is not None else 1
        )
        _validate_point_shard(point_shard_index, point_shard_count, "suite")
    return SuiteConfig(
        only=only,
        output_dir=str(section.get("output_dir", "output")),
        shard_index=shard_index,
        shard_count=shard_count,
        incremental=bool(section.get("incremental", True)),
        runtime=_parse_runtime(raw.get("runtime", {})),
        point_shard_index=point_shard_index,
        point_shard_count=point_shard_count,
    )


def parse_study_config(raw: Mapping[str, Any]) -> StudyConfig:
    """Validate a raw registered-study config dict."""
    if not isinstance(raw, Mapping):
        raise ConfigError("config root must be an object")
    study = str(_require(raw, "study", "config"))
    # Imported lazily: the study registry imports the engine stack, which
    # plain sweep parsing never needs.  The registry owns the membership
    # check (and its error message); we only retype it for config callers.
    from repro.errors import ReproError
    from repro.studies.pipeline import get_study

    try:
        get_study(study)
    except ReproError as exc:
        raise ConfigError(str(exc)) from None
    params = raw.get("params", {})
    if not isinstance(params, Mapping):
        raise ConfigError("params section must be an object")
    output_csv = raw.get("output_csv")
    report_md = raw.get("report_md")
    return StudyConfig(
        study=study,
        params=dict(params),
        runtime=_parse_runtime(raw.get("runtime", {})),
        output_csv=None if output_csv is None else str(output_csv),
        report_md=None if report_md is None else str(report_md),
    )
