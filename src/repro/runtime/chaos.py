"""Deterministic cache-corruption injection for end-to-end failure testing.

Every injection decision is a pure function of the chaos ``seed`` and
the cache entry's fingerprint, so two runs with the same seed damage
exactly the same entries and CI can assert recovery behaviour —
quarantined files, recomputed points, a warm cache afterwards — against
fixed expectations.

``cache_corrupt_rate``
    The cache loader corrupts the on-disk entry (truncation or ASCII
    bit-flip per ``corrupt_mode``) immediately before reading it, at
    most once per fingerprint per process.  Integrity checking must
    detect the damage, quarantine the file, and recompute — leaving the
    cache clean afterwards.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Dict, Mapping, Optional, Set, Tuple

from ..errors import ConfigError

__all__ = [
    "ChaosOptions",
    "parse_chaos_spec",
]


# Fingerprints already corrupted in this process, keyed by chaos seed.
# Corrupting an entry at most once per process lets the recovery path
# (quarantine -> recompute -> clean re-store) actually converge instead
# of chasing its own tail.
_CORRUPTED: Set[Tuple[int, str]] = set()

_CORRUPT_MODES = ("truncate", "bitflip")

# Short spec-string aliases accepted by ``parse_chaos_spec``.
_SPEC_ALIASES: Dict[str, str] = {
    "cache_corrupt": "cache_corrupt_rate",
}


def _roll(seed: int, kind: str, key: str) -> float:
    """Deterministic uniform draw in [0, 1) for one injection decision."""

    # The trailing ":0" keeps every seed's draws identical to the format
    # that also keyed per-attempt faults, so a seed damages the same entries.
    digest = hashlib.sha256(f"{seed}:{kind}:{key}:0".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class ChaosOptions:
    """Immutable cache-corruption configuration.

    ``cache_corrupt_rate`` is a probability in ``[0, 1]``; zero (the
    default) injects nothing.
    """

    seed: int = 0
    cache_corrupt_rate: float = 0.0
    corrupt_mode: str = "truncate"

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigError(f"chaos seed must be an int, got {self.seed!r}")
        rate = self.cache_corrupt_rate
        if not isinstance(rate, (int, float)) or isinstance(rate, bool):
            raise ConfigError(f"chaos cache_corrupt_rate must be a number, got {rate!r}")
        if not 0.0 <= float(rate) <= 1.0:
            raise ConfigError(f"chaos cache_corrupt_rate must be in [0, 1], got {rate!r}")
        if self.corrupt_mode not in _CORRUPT_MODES:
            raise ConfigError(
                f"chaos corrupt_mode must be one of {_CORRUPT_MODES}, "
                f"got {self.corrupt_mode!r}"
            )

    def maybe_corrupt_file(self, path: Path, key: str) -> bool:
        """Maybe corrupt the cache file at ``path`` before it is read.

        Returns True when the file was damaged.  Each fingerprint is
        corrupted at most once per process so the detect -> quarantine ->
        recompute cycle converges to a clean cache.
        """

        if self.cache_corrupt_rate <= 0:
            return False
        marker = (self.seed, key)
        if marker in _CORRUPTED:
            return False
        if _roll(self.seed, "cache", key) >= self.cache_corrupt_rate:
            return False
        try:
            data = path.read_bytes()
        except OSError:
            return False
        _CORRUPTED.add(marker)
        if self.corrupt_mode == "truncate":
            path.write_bytes(data[: len(data) // 2])
        else:  # bitflip — XOR with 0x01 keeps ASCII decodable but changes the byte
            if not data:
                return False
            position = int(_roll(self.seed, "flip", key) * len(data)) % len(data)
            flipped = bytearray(data)
            flipped[position] ^= 0x01
            path.write_bytes(bytes(flipped))
        return True

    @property
    def enabled(self) -> bool:
        """Whether any fault can actually fire."""

        return self.cache_corrupt_rate > 0

    # -- (de)serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {field.name: getattr(self, field.name) for field in fields(self)}

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, object]) -> "ChaosOptions":
        if not isinstance(mapping, Mapping):
            raise ConfigError(f"chaos section must be a mapping, got {mapping!r}")
        known = {field.name for field in fields(cls)}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ConfigError(
                f"unknown chaos option(s) {unknown}; known options: {sorted(known)}"
            )
        return cls(**dict(mapping))


def parse_chaos_spec(spec: str) -> Optional[ChaosOptions]:
    """Parse a ``--chaos`` command-line spec into :class:`ChaosOptions`.

    The spec is a comma-separated list of ``key=value`` pairs, e.g.
    ``"seed=11,cache_corrupt=0.3,corrupt_mode=bitflip"``.
    Keys accept both the dataclass field names and short aliases with
    the ``_rate`` suffix dropped.  ``"off"`` / empty disables chaos.
    """

    text = spec.strip()
    if not text or text.lower() == "off":
        return None
    options = ChaosOptions()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"chaos spec entry {part!r} is not key=value")
        raw_key, _, raw_value = part.partition("=")
        key = _SPEC_ALIASES.get(raw_key.strip(), raw_key.strip())
        if key not in {field.name for field in fields(ChaosOptions)}:
            raise ConfigError(
                f"unknown chaos spec key {raw_key.strip()!r}; known keys: "
                f"{sorted({f.name for f in fields(ChaosOptions)} | set(_SPEC_ALIASES))}"
            )
        value: object = raw_value.strip()
        if key == "seed":
            try:
                value = int(value)  # type: ignore[arg-type]
            except ValueError:
                raise ConfigError(f"chaos seed must be an int, got {raw_value!r}") from None
        elif key != "corrupt_mode":
            try:
                value = float(value)  # type: ignore[arg-type]
            except ValueError:
                raise ConfigError(
                    f"chaos {key} must be a number, got {raw_value!r}"
                ) from None
        options = replace(options, **{key: value})
    return options
