"""Configuration interface: JSON schema, loader, and CLI."""

from repro.config.loader import load_config, load_service_config, run_config
from repro.config.schema import (
    ParsedConfig,
    ServiceConfig,
    is_service_config,
    parse_config,
    parse_service_config,
)

__all__ = [
    "ParsedConfig",
    "ServiceConfig",
    "is_service_config",
    "load_config",
    "load_service_config",
    "parse_config",
    "parse_service_config",
    "run_config",
]
