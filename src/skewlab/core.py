"""Ambient spaces, the immutable point-set model, and its symmetry operations.

Grids [n]^2 use 1-based coordinates in [1, n]; tori (Z/NZ)^2 use residues
in [0, N-1].  Points are stored column-wise, since every algorithm in the
package iterates over vertical slices: a GridSet keeps compressed sparse
rows, one offsets array with an entry per column boundary and one array of
y-values sorted within each column.  This module is the only one that
knows that layout; the others go through `column`, `column_sizes`,
`nonempty_columns`, `points` and `indicator_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import CoordinateError, FormatError, ParameterError

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


@dataclass(frozen=True)
class Witness:
    """A skew-corner witness: (x, y), (x, y+d), (x+d, y') with d != 0."""

    x: int
    y: int
    y_prime: int
    d: int


@dataclass(frozen=True, eq=False)
class GridSet:
    """An immutable finite point set in a grid or torus ambient.

    Stored in compressed sparse rows: column x = i + lo holds the y-values
    `ys[offsets[i]:offsets[i + 1]]`, sorted and duplicate-free, so
    `offsets` has size + 1 entries starting at 0.  Both arrays are int64
    and read-only: sets are hashed and shared between callers, and a write
    through a column view would change a set behind its hash.  Safe to
    share between threads; all operations on it are pure.
    """

    ambient: Ambient
    offsets: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        for name in ("offsets", "ys"):
            arr = np.array(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.ambient.size + 1
        if self.offsets.shape != (n,) or self.offsets[-1] != self.ys.size:
            raise CoordinateError(f"expected {n} offsets ending at {self.ys.size}")

    def __len__(self) -> int:
        return int(self.offsets[-1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridSet):
            return NotImplemented
        return (
            self.ambient == other.ambient
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.ys, other.ys)
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self.offsets.tobytes(), self.ys.tobytes()))

    def __contains__(self, point: tuple[int, int]) -> bool:
        x, y = point
        if not (self.ambient.in_range(x) and self.ambient.in_range(y)):
            return False
        col = self._slice(x - self.ambient.lo)
        i = int(np.searchsorted(col, y))
        return bool(i < col.size and col[i] == y)

    def _slice(self, i: int) -> np.ndarray:
        return self.ys[self.offsets[i] : self.offsets[i + 1]]

    def column(self, x: int) -> tuple[int, ...]:
        """Vertical slice at x, in ambient coordinates."""
        return tuple(self._slice(x - self.ambient.lo).tolist())

    def nonempty_columns(self) -> Iterator[tuple[int, np.ndarray]]:
        """(i, ys) for every nonempty column x = i + lo, in increasing x;
        `ys` is the column's read-only sorted y-values."""
        for i in np.flatnonzero(np.diff(self.offsets)).tolist():
            yield i, self._slice(i)

    def _column_index(self) -> np.ndarray:
        """Column index x - lo of every point, aligned with `ys`."""
        return np.repeat(np.arange(self.ambient.size), self.column_sizes())

    def points(self) -> Iterator[tuple[int, int]]:
        xs = self._column_index() + self.ambient.lo
        return zip(xs.tolist(), self.ys.tolist())

    def column_sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def density(self) -> float:
        return len(self) / self.ambient.size**2

    def indicator_matrix(self, dtype=np.float64) -> np.ndarray:
        """Size x size matrix M with M[x - lo, y - lo] = 1 on points."""
        m = np.zeros((self.ambient.size, self.ambient.size), dtype=dtype)
        m[self._column_index(), self.ys - self.ambient.lo] = 1
        return m

    @staticmethod
    def from_arrays(xs: np.ndarray, ys: np.ndarray, ambient: Ambient) -> "GridSet":
        """Fast constructor from coordinate arrays (validated, deduplicated)."""
        xs = np.asarray(xs, dtype=np.int64)
        ys = np.asarray(ys, dtype=np.int64)
        bad = (
            (xs < ambient.lo) | (xs > ambient.hi)
            | (ys < ambient.lo) | (ys > ambient.hi)
        )
        if bad.any():
            j = int(np.flatnonzero(bad)[0])
            raise CoordinateError(f"point ({xs[j]}, {ys[j]}) outside {ambient}")
        return _build(ambient, xs - ambient.lo, ys)

    def __repr__(self) -> str:
        return f"GridSet({self.ambient}, {len(self)} points)"


def _build(ambient: Ambient, cols: np.ndarray, ys: np.ndarray) -> GridSet:
    """GridSet from in-range column indices x - lo and y-values, in any
    order and with repeats."""
    size = ambient.size
    key = np.sort(cols * size + (ys - ambient.lo))
    fresh = np.ones(key.size, dtype=bool)
    fresh[1:] = key[1:] != key[:-1]
    cols, ys = np.divmod(key[fresh], size)
    offsets = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=size), out=offsets[1:])
    return GridSet(ambient, offsets, ys + ambient.lo)


def make_grid_set(points: Iterable[tuple[int, int]], ambient: Ambient) -> GridSet:
    """Build a GridSet from coordinate pairs, deduplicating.

    Raises CoordinateError naming the first out-of-range point.
    """
    xy = np.array(list(points), dtype=np.int64).reshape(-1, 2)
    return GridSet.from_arrays(xy[:, 0], xy[:, 1], ambient)


def embed_torus(a: GridSet) -> GridSet:
    """Reinterpret a grid set in [n]^2 as a subset of the torus (Z/2nZ)^2.

    Coordinates are kept verbatim (values 1..n are valid residues mod 2n);
    any fixed shift would be a translation and hence irrelevant to
    skew-corner-freeness.
    """
    if a.ambient.kind != GRID:
        raise ParameterError("embed_torus expects a grid-ambient set")
    n = a.ambient.size
    # grid column x = i + 1 becomes residue x; residues n+1..2n-1 are empty
    offsets = np.concatenate(([0], a.offsets, np.full(n - 1, len(a))))
    return GridSet(torus(2 * n), offsets, a.ys)


TranslationMap = Union[int, Mapping[int, int], Sequence[int], Callable[[int], int]]


def _shift_of(v: TranslationMap, x: int) -> int:
    if isinstance(v, int):
        return v
    if isinstance(v, Mapping):
        return v.get(x, 0)
    if callable(v):
        return v(x)
    return v[x]


def translate(a: GridSet, h: int, v: TranslationMap) -> GridSet:
    """Torus translation (x, y) -> (x + h, y + v(x)) mod N.

    `v` gives an independent vertical shift per column (int for a uniform
    shift, or a mapping/sequence/callable keyed by the column x, consulted
    for the nonempty columns only).  These are exactly the symmetries under
    which skew-corner-freeness is invariant.
    """
    if a.ambient.kind != TORUS:
        raise ParameterError("translate expects a torus-ambient set")
    N = a.ambient.size
    sizes = a.column_sizes()
    nonempty = np.flatnonzero(sizes)
    shifts = np.array([_shift_of(v, x) % N for x in nonempty.tolist()], dtype=np.int64)
    xs = np.repeat((nonempty + h % N) % N, sizes[nonempty])
    ys = (a.ys + np.repeat(shifts, sizes[nonempty])) % N
    return _build(a.ambient, xs, ys)


def transpose(a: GridSet) -> GridSet:
    """Reflect (x, y) -> (y, x).  An involution; preserves cardinality."""
    lo = a.ambient.lo
    return _build(a.ambient, a.ys - lo, a._column_index() + lo)


# ---------------------------------------------------------------------------
# `skewset v1` file format: line 1 "skewset 1", line 2 "ambient grid <n>" or
# "ambient torus <N>", then one "x y" pair per line.  Text, UTF-8, LF.
# ---------------------------------------------------------------------------

def dumps_skewset(a: GridSet) -> str:
    lines = ["skewset 1", f"ambient {a.ambient.kind} {a.ambient.size}"]
    lines.extend(f"{x} {y}" for x, y in a.points())
    return "\n".join(lines) + "\n"


def save_skewset(a: GridSet, path: str | Path) -> None:
    Path(path).write_text(dumps_skewset(a), encoding="utf-8", newline="\n")


def loads_skewset(text: str) -> GridSet:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "skewset 1":
        raise FormatError("missing 'skewset 1' header")
    if len(lines) < 2:
        raise FormatError("missing ambient line")
    parts = lines[1].split()
    if len(parts) != 3 or parts[0] != "ambient" or parts[1] not in (GRID, TORUS):
        raise FormatError(f"bad ambient line {lines[1]!r}")
    try:
        amb = Ambient(parts[1], int(parts[2]))
    except ValueError as exc:
        raise FormatError(f"bad ambient size in {lines[1]!r}") from exc
    pts: list[tuple[int, int]] = []
    for ln in lines[2:]:
        toks = ln.split()
        if len(toks) != 2:
            raise FormatError(f"bad point line {ln!r}")
        try:
            pts.append((int(toks[0]), int(toks[1])))
        except ValueError as exc:
            raise FormatError(f"bad point line {ln!r}") from exc
    try:
        a = make_grid_set(pts, amb)
    except OverflowError:  # beyond int64, so certainly outside the ambient
        p = next(p for p in pts if not (amb.in_range(p[0]) and amb.in_range(p[1])))
        raise CoordinateError(f"point {p} outside {amb}") from None
    if len(a) < len(pts):  # some point repeats: name its first repeat
        seen: set[tuple[int, int]] = set()
        for p in pts:
            if p in seen:
                raise FormatError(f"duplicate point {p}")
            seen.add(p)
    return a


def load_skewset(path: str | Path) -> GridSet:
    return loads_skewset(Path(path).read_text(encoding="utf-8"))
