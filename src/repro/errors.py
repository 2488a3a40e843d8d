"""Exception hierarchy for the NVMExplorer reproduction.

All errors raised by this package derive from :class:`ReproError` so callers
can catch framework-level failures with a single ``except`` clause while
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by ``repro``."""


class ConfigError(ReproError):
    """A user-supplied configuration file or dict is invalid."""


class CellDefinitionError(ReproError):
    """A memory cell definition is missing fields or physically inconsistent."""


class CharacterizationError(ReproError):
    """The array characterizer could not produce a valid design.

    Raised, for example, when no internal array organization satisfies the
    requested capacity and constraints.
    """


class TrafficError(ReproError):
    """A traffic pattern is inconsistent (negative rates, zero duration...)."""


class FaultModelError(ReproError):
    """A fault model is unavailable or its parameters are out of range."""


class EvaluationError(ReproError):
    """The cross-stack evaluation engine hit an unrecoverable condition."""


class UnknownTechnologyError(CellDefinitionError):
    """Requested a technology class that the framework does not know about."""
