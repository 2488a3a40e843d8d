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
        "on_error": "raise" | "skip",
        "seed": null
      },
      "output_csv": "results.csv"
    }

The optional ``runtime`` section controls sweep execution (see
:mod:`repro.runtime`; sweeps always run serially in-process): the
persistent cache root (characterizations, evaluation blocks, and LLC
traces live under it), whether a failing design point aborts the sweep
or is skipped with telemetry, and a seed override for stochastic
components.  Any other ``runtime`` key is a :class:`ConfigError`, and so
is any top-level key not shown above (``description`` is also allowed),
a section that is not an object, and a ``cells``, ``system``,
``traffic`` or ``runtime`` value that does not convert to the type it
needs (``"seed": "abc"``).

:func:`parse_config` validates a sweep dict into a :class:`ParsedConfig`
(its :class:`~repro.core.engine.SweepSpec` plus the run options) and
:func:`parse_service_config` a ``{"service": ...}`` dict into a
:class:`ServiceConfig`.  A sweep runs through
``DSEEngine(runtime).run(config.sweep)`` wherever it comes from:
:func:`repro.config.loader.run_config` for a file, and the service for a
``{"sweep": ...}`` submission, which it runs as a study request over an
unregistered spec (:func:`repro.service.requests.resolve_request`).
Registered studies have no config shape: run them with ``nvmexplorer
run-study`` or ``nvmexplorer summary``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from repro.cells import CellTechnology, sram_cell, tentpoles_for
from repro.cells.base import TechnologyClass
from repro.core.engine import SweepSpec
from repro.errors import ConfigError
from repro.nvsim.result import OptimizationTarget
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
    """A validated configuration ready to run: its sweep and run options."""

    name: str
    sweep: SweepSpec
    output_csv: Optional[str] = None
    runtime: RuntimeOptions = RuntimeOptions()


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


def _section(raw: Mapping[str, Any], key: str) -> Mapping[str, Any]:
    """The ``key`` section of a config (empty when absent), checked to be an object."""
    section = raw.get(key) or {}
    if not isinstance(section, Mapping):
        raise ConfigError(f"{key} section must be an object")
    return section


def _parse_cells(section: Mapping[str, Any]) -> list[CellTechnology]:
    cells: list[CellTechnology] = []
    try:
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
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cells: {exc}") from None
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


def _parse_traffic(section: Mapping[str, Any]) -> list[TrafficPattern]:
    if not section:
        return []
    kind = str(_require(section, "kind", "traffic"))
    try:
        return _traffic_of_kind(kind, section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"traffic: {exc}") from None


def _traffic_of_kind(kind: str, section: Mapping[str, Any]) -> list[TrafficPattern]:
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


#: Keys a sweep config may hold at its top level.
_CONFIG_KEYS = frozenset(
    {"name", "description", "cells", "system", "traffic", "output_csv", "runtime"}
)


def parse_config(raw: Mapping[str, Any]) -> ParsedConfig:
    """Validate a raw config dict."""
    if not isinstance(raw, Mapping):
        raise ConfigError("config root must be an object")
    _require(raw, "cells", "config")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(
            f"config: unknown key(s) {unknown}; known keys: {sorted(_CONFIG_KEYS)}"
        )
    name = str(raw.get("name", "unnamed-sweep"))
    cells = _parse_cells(_section(raw, "cells"))

    system = _section(raw, "system")
    try:
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
        node_nm = int(system.get("node_nm", 22))
        sram_node_nm = int(system.get("sram_node_nm", 16))
        access_bits = int(system.get("access_bits", 64))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"system: {exc}") from None

    return ParsedConfig(
        name=name,
        sweep=SweepSpec(
            cells=cells,
            capacities_bytes=capacities,
            traffic=_parse_traffic(_section(raw, "traffic")),
            node_nm=node_nm,
            sram_node_nm=sram_node_nm,
            optimization_targets=targets,
            access_bits=access_bits,
            bits_per_cell=bits,
        ),
        output_csv=raw.get("output_csv"),
        runtime=_parse_runtime(raw.get("runtime", {})),
    )


#: Keys a ``runtime`` section may hold.
_RUNTIME_KEYS = frozenset({"cache_dir", "on_error", "seed"})


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
    cache_dir = section.get("cache_dir")
    seed = section.get("seed")
    try:
        if seed is not None:
            # Imported lazily: a sweep without a seed should not load the
            # studies stack.
            from repro.studies.pipeline import parse_seed

            seed = parse_seed(seed)
        return RuntimeOptions(
            cache_dir=None if cache_dir is None else str(cache_dir),
            on_error=str(section.get("on_error", "raise")),
            seed=seed,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"runtime: {exc}") from None


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
        # Imported lazily: service parsing should not drag the engine
        # stack into sweep-only usage.
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
