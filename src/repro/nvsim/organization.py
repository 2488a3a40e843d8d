"""Internal array organization: the design space the characterizer sweeps.

An :class:`ArrayOrganization` fixes the hierarchy NVSim explores: the memory
is a grid of identical subarrays; each subarray is ``rows x cols`` cells with
a column multiplexer of degree ``mux`` (so ``cols / mux`` sense amplifiers
resolve ``cols / mux`` cells per activation).  An access of ``access_bits``
data bits activates as many subarrays in parallel as needed; disjoint groups
of subarrays form independent banks that can pipeline accesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Iterator, Mapping

from repro.errors import CharacterizationError

#: Candidate subarray row counts (wordlines per subarray).
ROW_CHOICES: tuple[int, ...] = (128, 256, 512, 1024, 2048)
#: Candidate subarray column counts (bitlines per subarray).
COL_CHOICES: tuple[int, ...] = (256, 512, 1024, 2048, 4096)
#: Candidate column-mux degrees.
MUX_CHOICES: tuple[int, ...] = (1, 2, 4, 8, 16, 32)
#: Cap on exploitable bank-level concurrency.
MAX_CONCURRENCY = 16


@dataclass(frozen=True)
class ArrayOrganization:
    """One point in the internal-organization design space."""

    rows: int
    cols: int
    mux: int
    n_subarrays: int
    active_subarrays: int
    access_bits: int
    bits_per_cell: int = 1

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0 or self.mux <= 0:
            raise CharacterizationError("organization dimensions must be positive")
        if self.cols % self.mux != 0:
            raise CharacterizationError("mux degree must divide the column count")
        if self.active_subarrays > self.n_subarrays:
            raise CharacterizationError(
                "cannot activate more subarrays than the array has"
            )

    @property
    def cells_per_subarray(self) -> int:
        return self.rows * self.cols

    @property
    def bits_per_subarray(self) -> int:
        return self.cells_per_subarray * self.bits_per_cell

    @property
    def sense_amps_per_subarray(self) -> int:
        return self.cols // self.mux

    @property
    def bits_per_activation(self) -> int:
        """Data bits resolved by one subarray activation."""
        return self.sense_amps_per_subarray * self.bits_per_cell

    @property
    def total_bits(self) -> int:
        return self.n_subarrays * self.bits_per_subarray

    @property
    def concurrency(self) -> int:
        """Independent accesses the array can service simultaneously."""
        groups = self.n_subarrays // self.active_subarrays
        return max(1, min(MAX_CONCURRENCY, groups))

    @property
    def grid_shape(self) -> tuple[int, int]:
        """Near-square (nx, ny) placement of the subarrays."""
        nx = max(1, int(math.floor(math.sqrt(self.n_subarrays))))
        while self.n_subarrays % nx != 0:
            nx -= 1
        return nx, self.n_subarrays // nx

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable representation (for the on-disk cache)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ArrayOrganization":
        """Rebuild an organization from :meth:`to_dict` output."""
        try:
            return cls(**{k: int(v) for k, v in data.items()})
        except TypeError as exc:
            raise CharacterizationError(
                f"invalid organization payload: {exc}"
            ) from exc

    def describe(self) -> str:
        nx, ny = self.grid_shape
        return (
            f"{self.n_subarrays}x({self.rows}x{self.cols}) mux={self.mux} "
            f"grid={nx}x{ny} active={self.active_subarrays} "
            f"bpc={self.bits_per_cell}"
        )


def candidate_organizations(
    capacity_bits: int,
    access_bits: int,
    bits_per_cell: int = 1,
) -> Iterator[ArrayOrganization]:
    """Yield every sensible organization for the requested capacity.

    An organization is sensible when the subarray count is a positive whole
    number that covers the capacity, and a single access does not need more
    subarrays than exist.
    """
    if capacity_bits <= 0:
        raise CharacterizationError("capacity must be positive")
    if access_bits <= 0:
        raise CharacterizationError("access width must be positive")

    for rows in ROW_CHOICES:
        for cols in COL_CHOICES:
            bits_per_subarray = rows * cols * bits_per_cell
            n_subarrays = math.ceil(capacity_bits / bits_per_subarray)
            if n_subarrays < 1:
                continue
            # Avoid gross over-provisioning (>2x the capacity wasted).
            if n_subarrays * bits_per_subarray > 2 * capacity_bits + bits_per_subarray:
                continue
            for mux in MUX_CHOICES:
                if cols % mux != 0:
                    continue
                bits_per_activation = (cols // mux) * bits_per_cell
                active = math.ceil(access_bits / bits_per_activation)
                if active > n_subarrays:
                    continue
                yield ArrayOrganization(
                    rows=rows,
                    cols=cols,
                    mux=mux,
                    n_subarrays=n_subarrays,
                    active_subarrays=active,
                    access_bits=access_bits,
                    bits_per_cell=bits_per_cell,
                )
