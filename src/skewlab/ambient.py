"""Ambient spaces: the grid [n]^2 and the torus (Z/NZ)^2.

Grids use 1-based coordinates in [1, n]; tori use residues in [0, N-1].
This module needs no numpy, so the exact search and the CLI's start-up
can use it without loading the point-set model of `core`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError

GRID = "grid"
TORUS = "torus"


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
