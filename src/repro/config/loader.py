"""Config execution: the programmatic ``run.py``.

``run_config`` accepts a path to a JSON file or an already-parsed dict,
builds the sweep, runs it through the DSE engine, optionally writes the CSV
the paper's artifact produces, and returns the result table.

``run_study_config`` does the same for registered-study configs (the
``config/studies/*.json`` stubs): it resolves the study in the registry,
runs it under the config's runtime options, and writes the CSV and/or
markdown report the config asks for.

``run_suite_config`` executes suite-run configs (``config/suite.json``):
a sharded, incremental pass over the study registry that records a run
manifest next to its outputs (see :mod:`repro.studies.summary`).
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from repro.config.schema import (
    ParsedConfig,
    ServiceConfig,
    StudyConfig,
    SuiteConfig,
    is_service_config,
    is_study_config,
    is_suite_config,
    parse_config,
    parse_service_config,
    parse_study_config,
    parse_suite_config,
)
from repro.core.engine import DSEEngine, SweepSpec
from repro.errors import ConfigError
from repro.results.table import ResultTable

ConfigSource = Union[str, Path, Mapping[str, Any]]


def _load_raw(source: ConfigSource) -> Mapping[str, Any]:
    if isinstance(source, Mapping):
        return source
    path = Path(source)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{path}: config root must be an object")
    return raw


def load_config(source: ConfigSource) -> ParsedConfig:
    """Load and validate a sweep config from a path or dict."""
    raw = _load_raw(source)
    if is_study_config(raw):
        raise ConfigError(
            "this is a registered-study config; run it with run_study_config "
            "(CLI: it is dispatched automatically)"
        )
    if is_suite_config(raw):
        raise ConfigError(
            "this is a suite-run config; run it with run_suite_config "
            "(CLI: it is dispatched automatically)"
        )
    if is_service_config(raw):
        raise ConfigError(
            "this is a service config; start it with `nvmexplorer serve`"
        )
    return parse_config(raw)


def load_study_config(source: ConfigSource) -> StudyConfig:
    """Load and validate a registered-study config from a path or dict."""
    return parse_study_config(_load_raw(source))


def load_service_config(source: Union[ConfigSource, ServiceConfig]) -> ServiceConfig:
    """Load and validate a serving config from a path or dict.

    An already-parsed :class:`ServiceConfig` passes through unchanged
    (the CLI validates once, applies flag overrides, and forwards it).
    """
    if isinstance(source, ServiceConfig):
        return source
    return parse_service_config(_load_raw(source))


def load_suite_config(source: Union[ConfigSource, SuiteConfig]) -> SuiteConfig:
    """Load and validate a suite-run config from a path or dict.

    An already-parsed :class:`SuiteConfig` passes through unchanged, so
    callers that need the parsed form themselves (e.g. the CLI, for
    ``output_dir``) can validate once and forward it.
    """
    if isinstance(source, SuiteConfig):
        return source
    return parse_suite_config(_load_raw(source))


def _override_runtime(
    runtime,
    cache_dir: Optional[str],
    trace_cache_dir: Optional[str],
    seed: Optional[int],
    progress,
    point_shard_index: Optional[int] = None,
    point_shard_count: Optional[int] = None,
    chaos=None,
):
    """Apply CLI-style overrides on top of a config's runtime options."""
    updates: dict[str, Any] = {"progress": progress}
    if cache_dir is not None:
        updates["cache_dir"] = cache_dir
    if trace_cache_dir is not None:
        updates["trace_cache_dir"] = trace_cache_dir
    if seed is not None:
        updates["seed"] = seed
    if point_shard_index is not None:
        updates["point_shard_index"] = point_shard_index
    if point_shard_count is not None:
        updates["point_shard_count"] = point_shard_count
    if chaos is not None:
        updates["chaos"] = chaos
    try:
        return dataclasses.replace(runtime, **updates)
    except ValueError as exc:
        raise ConfigError(f"runtime overrides: {exc}") from exc


def _destination(path: str) -> Path:
    """The output path, with its parent directory ensured."""
    out = Path(path)
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(table: ResultTable, destination: Optional[str]) -> None:
    if destination:
        table.to_csv(str(_destination(destination)))


def run_config(
    source: ConfigSource,
    cache_dir: Optional[str] = None,
    trace_cache_dir: Optional[str] = None,
    seed: Optional[int] = None,
    progress=None,
    point_shard_index: Optional[int] = None,
    point_shard_count: Optional[int] = None,
    chaos=None,
) -> ResultTable:
    """Execute a sweep configuration end to end.

    ``cache_dir``/``trace_cache_dir``/``seed``/
    ``point_shard_index``/``point_shard_count``/``chaos``
    override the config's ``runtime`` section (e.g. from CLI flags);
    ``progress`` receives one
    :class:`~repro.runtime.telemetry.ProgressEvent` per sweep point.
    """
    config = load_config(source)
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
    runtime = _override_runtime(
        config.runtime_options(), cache_dir, trace_cache_dir, seed,
        progress, point_shard_index, point_shard_count, chaos,
    )
    table = DSEEngine.from_options(runtime).run(spec)
    _write_csv(table, config.output_csv)
    return table


def run_study_config(
    source: ConfigSource,
    cache_dir: Optional[str] = None,
    trace_cache_dir: Optional[str] = None,
    seed: Optional[int] = None,
    progress=None,
    point_shard_index: Optional[int] = None,
    point_shard_count: Optional[int] = None,
    chaos=None,
) -> ResultTable:
    """Execute a registered-study configuration end to end.

    Overrides work exactly like :func:`run_config`.  Writes the CSV and
    markdown report the config asks for and returns the study's table.
    Under an active point shard the table (and artifacts) hold only this
    shard's slice of the study's sweep points.
    """
    config = load_study_config(source)
    # Imported lazily to keep sweep-only usage free of the studies stack.
    from repro.studies.pipeline import get_study
    from repro.viz.report import study_report

    spec = get_study(config.study)
    runtime = _override_runtime(
        config.runtime, cache_dir, trace_cache_dir, seed, progress,
        point_shard_index, point_shard_count, chaos,
    )
    # Validate params against the builder's signature up front, so a
    # TypeError raised deep inside a study is never misreported as a
    # config mistake.
    if "runtime" in config.params:
        raise ConfigError(
            f"study {config.study!r}: 'runtime' is not a study parameter "
            "(use the config's runtime section)"
        )
    try:
        inspect.signature(spec.builder).bind_partial(**config.params)
    except TypeError as exc:
        raise ConfigError(f"study {config.study!r}: bad params ({exc})") from exc
    outcome = spec.run(runtime, **config.params)
    if outcome.table is None:
        raise ConfigError(f"study {config.study!r} failed: {outcome.error}")
    _write_csv(outcome.table, config.output_csv)
    if config.report_md:
        _destination(config.report_md).write_text(study_report(
            title=config.study.replace("_", " "),
            table=outcome.table,
            description=spec.description,
            figure=spec.figure,
            **spec.report,
        ))
    return outcome.table


def run_suite_config(
    source: Union[ConfigSource, SuiteConfig],
    cache_dir: Optional[str] = None,
    trace_cache_dir: Optional[str] = None,
    seed: Optional[int] = None,
    progress=None,
    point_shard_index: Optional[int] = None,
    point_shard_count: Optional[int] = None,
    chaos=None,
):
    """Execute a suite-run configuration end to end.

    The config-file form of ``python -m repro.studies.summary``: runs the
    configured (possibly sharded) slice of the study registry under the
    config's runtime options, writes CSVs, reports, and the shard
    manifest under ``suite.output_dir``, and returns the
    :class:`~repro.studies.summary.SummaryRun`.  Overrides work exactly
    like :func:`run_config`; the suite section's point-shard keys beat
    the runtime section's, and explicit overrides beat both.
    """
    config = load_suite_config(source)
    # Imported lazily to keep sweep-only usage free of the studies stack.
    from repro.studies.summary import run_all

    if point_shard_index is None:
        point_shard_index = config.point_shard_index
    if point_shard_count is None:
        point_shard_count = config.point_shard_count
    runtime = _override_runtime(
        config.runtime, cache_dir, trace_cache_dir, seed, progress,
        point_shard_index, point_shard_count, chaos,
    )
    return run_all(
        config.output_dir,
        runtime=runtime,
        only=config.only,
        shard_index=config.shard_index,
        shard_count=config.shard_count,
        incremental=config.incremental,
    )
