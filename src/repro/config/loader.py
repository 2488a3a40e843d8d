"""Config execution: the programmatic ``run.py``.

``run_config`` accepts a path to a JSON file or an already-parsed dict,
builds the sweep, runs it through the DSE engine, optionally writes the CSV
the paper's artifact produces, and returns the result table.
``run_sweep`` runs a raw config under a caller's runtime options (the
service's sweep requests).
``load_service_config`` validates the serving config that
``nvmexplorer serve`` starts from.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from repro.config.schema import (
    ParsedConfig,
    ServiceConfig,
    is_service_config,
    parse_config,
    parse_service_config,
)
from repro.core.engine import DSEEngine
from repro.errors import ConfigError
from repro.results.table import ResultTable
from repro.runtime.options import RuntimeOptions

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
    if is_service_config(raw):
        raise ConfigError(
            "this is a service config; start it with `nvmexplorer serve`"
        )
    return parse_config(raw)


def load_service_config(source: Union[ConfigSource, ServiceConfig]) -> ServiceConfig:
    """Load and validate a serving config from a path or dict.

    An already-parsed :class:`ServiceConfig` passes through unchanged
    (the CLI validates once, applies flag overrides, and forwards it).
    """
    if isinstance(source, ServiceConfig):
        return source
    return parse_service_config(_load_raw(source))


def _write_csv(table: ResultTable, destination: Optional[str]) -> None:
    if destination:
        out = Path(destination)
        out.parent.mkdir(parents=True, exist_ok=True)
        table.to_csv(str(out))


def run_config(
    source: ConfigSource,
    cache_dir: Optional[str] = None,
    seed: Optional[int] = None,
    progress=None,
) -> ResultTable:
    """Execute a sweep configuration end to end.

    ``cache_dir``/``seed`` override the config's
    ``runtime`` section (e.g. from CLI flags);
    ``progress`` receives one
    :class:`~repro.runtime.telemetry.ProgressEvent` per sweep point.
    """
    config = load_config(source)
    overrides = {"cache_dir": cache_dir, "seed": seed}
    runtime = dataclasses.replace(
        config.runtime,
        progress=progress,
        **{key: value for key, value in overrides.items() if value is not None},
    )
    table = DSEEngine(runtime).run(config.sweep)
    _write_csv(table, config.output_csv)
    return table


def run_sweep(config: Mapping[str, Any], runtime: Optional[RuntimeOptions] = None) -> ResultTable:
    """Run a raw sweep config under ``runtime`` and return its table.

    The builder of a service sweep request: the config's own ``runtime``
    and ``output_csv`` do not apply (the server owns both).
    """
    return DSEEngine(runtime).run(parse_config(config).sweep)
