"""Ambient spaces: the grid [n]^2 and the torus (Z/NZ)^2.

Grids use 1-based coordinates in [1, n]; tori use residues in [0, N-1].
This module needs no numpy, so the exact search and the CLI's start-up
can use it without loading the point-set model of `core`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapabilityError, ParameterError

GRID = "grid"
TORUS = "torus"

# Widest side of an ambient.  A set keeps one int64 offset per column, so
# this caps that array at 1 GiB, and every point key (x - lo) * size +
# (y - lo) fits in int64.  Plain sphere sets stay within MAX_POINTS up to
# side 105 413 503 (m = 6, d = 7), below this bound; wider bi-sphere sets
# are refused by it.
MAX_SIDE = 1 << 27


@dataclass(frozen=True)
class Ambient:
    """A square ambient space: the grid [n]^2 or the torus (Z/NZ)^2."""

    kind: str
    size: int

    def __post_init__(self) -> None:
        if self.kind not in (GRID, TORUS):
            raise ParameterError(f"unknown ambient kind {self.kind!r}")
        if self.size < 1:
            raise ParameterError(f"ambient size must be >= 1, got {self.size}")
        if self.size > MAX_SIDE:
            raise CapabilityError(
                f"ambient size {self.size} exceeds the limit {MAX_SIDE}"
            )

    @property
    def lo(self) -> int:
        return 1 if self.kind == GRID else 0

    @property
    def hi(self) -> int:
        return self.size if self.kind == GRID else self.size - 1

    def in_range(self, v: int) -> bool:
        return self.lo <= v <= self.hi

    def __str__(self) -> str:
        return f"{self.kind} {self.size}"


def grid(n: int) -> Ambient:
    return Ambient(GRID, n)


def torus(N: int) -> Ambient:
    return Ambient(TORUS, N)


def skewset_header(ambient: Ambient) -> str:
    """The two header lines of a `skewset 1` file in `ambient`; the "x y"
    point lines follow them."""
    return f"skewset 1\nambient {ambient.kind} {ambient.size}\n"
