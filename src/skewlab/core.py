"""Ambient spaces, the immutable point-set model, and its symmetry operations.

Grids [n]^2 use 1-based coordinates in [1, n]; tori (Z/NZ)^2 use residues
in [0, N-1].  Points are stored column-wise, since every algorithm in the
package iterates over vertical slices: a GridSet keeps compressed sparse
rows, one offsets array with an entry per column boundary and one array of
y-values sorted within each column.  This module is the only one that
knows that layout; the others go through `column`, `column_sizes`,
`nonempty_columns`, `points`, `coordinates` and `indicator_matrix`.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NoReturn, Sequence, Union

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
            arr = getattr(self, name)
            if not _sealed(arr):
                arr = np.array(arr, dtype=np.int64)
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

    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """int64 coordinate arrays (xs, ys) in `points()` order; ys is read-only."""
        lo = self.ambient.lo
        xs = np.repeat(np.arange(lo, lo + self.ambient.size), self.column_sizes())
        return xs, self.ys

    def points(self) -> Iterator[tuple[int, int]]:
        xs, ys = self.coordinates()
        return zip(xs.tolist(), ys.tolist())

    def column_sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def density(self) -> float:
        return len(self) / self.ambient.size**2

    def indicator_matrix(
        self, dtype=np.float64, cols: np.ndarray | None = None
    ) -> np.ndarray:
        """Matrix M with M[j, y - lo] = 1 on the points of column cols[j] + lo,
        one row per index in `cols`; all size columns in order when None."""
        cols = np.arange(self.ambient.size) if cols is None else cols
        counts = self.column_sizes()[cols]
        rows = np.repeat(np.arange(counts.size), counts)
        # positions in `ys` of the chosen columns' points, column by column
        at = np.repeat(self.offsets[cols] - np.cumsum(counts) + counts, counts)
        at += np.arange(at.size)
        m = np.zeros((counts.size, self.ambient.size), dtype=dtype)
        m[rows, self.ys[at] - self.ambient.lo] = 1
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
    cols += 1  # column x's count lands in offsets[x + 1]
    offsets = np.bincount(cols, minlength=size + 1).astype(np.int64, copy=False)
    np.cumsum(offsets, out=offsets)
    ys += ambient.lo
    offsets.setflags(write=False)
    ys.setflags(write=False)
    return GridSet(ambient, offsets, ys)


def _sealed(arr: object) -> bool:
    """Whether `arr` is a read-only int64 array owning its data, which a
    GridSet can keep without a copy: no view can write into it."""
    return (
        isinstance(arr, np.ndarray)
        and arr.dtype == np.int64
        and arr.flags.owndata
        and not arr.flags.writeable
    )


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
    xs, ys = a.coordinates()
    return _build(a.ambient, ys - a.ambient.lo, xs)


# ---------------------------------------------------------------------------
# `skewset v1` file format: line 1 "skewset 1", line 2 "ambient grid <n>" or
# "ambient torus <N>", then one "x y" pair per line.  Read as UTF-8,
# written as ASCII with LF line ends.
# ---------------------------------------------------------------------------

_SPACE = " \t"
_POINT_LINE = re.compile(r"([+-]?[0-9]+)[ \t]+([+-]?[0-9]+)")
# every byte a point body may hold; numpy's reader is laxer outside them
_BODY_BYTES = b"0123456789+-\n" + _SPACE.encode()


# points per block of the writer: about 3 MiB of scratch at six-digit coordinates
_WRITE_CHUNK = 1 << 16


def _put_digits(out: np.ndarray, v: np.ndarray) -> None:
    """Write the nonnegative integers v in decimal into the rows of the
    uint8 array `out`, right-aligned; left of each leading digit stays 0."""
    out[:, -1] = v % 10 + 48  # the units digit, "0" for v = 0
    for j in range(out.shape[1] - 2, -1, -1):
        v = v // 10
        out[:, j] = (v % 10 + 48) * (v > 0)


def _skewset_chunks(a: GridSet) -> Iterator[bytes]:
    """The `skewset 1` text of `a` as ASCII bytes: the header, then the
    "x y" lines of at most _WRITE_CHUNK points at a time.  Each block is
    one uint8 array of digit, space and newline columns whose zero
    padding is dropped, so memory beyond the set stays O(chunk)."""
    amb = a.ambient
    yield f"skewset 1\nambient {amb.kind} {amb.size}\n".encode()
    for start in range(0, len(a), _WRITE_CHUNK):
        at = np.arange(start, min(start + _WRITE_CHUNK, len(a)))
        xs = np.searchsorted(a.offsets, at, side="right") - 1 + amb.lo
        ys = a.ys[start : start + at.size]
        wx, wy = len(str(xs[-1])), len(str(ys.max()))
        lines = np.zeros((at.size, wx + wy + 2), dtype=np.uint8)
        _put_digits(lines[:, :wx], xs)
        lines[:, wx] = ord(" ")
        _put_digits(lines[:, wx + 1 : -1], ys)
        lines[:, -1] = ord("\n")
        yield lines[lines != 0].tobytes()


def dumps_skewset(a: GridSet) -> str:
    return b"".join(_skewset_chunks(a)).decode("ascii")


def save_skewset(a: GridSet, path: str | Path) -> None:
    """Write `a` as a `skewset 1` file, streamed in O(chunk) memory."""
    with open(path, "wb") as fh:
        fh.writelines(_skewset_chunks(a))


def loads_skewset(text: str) -> GridSet:
    """Parse `skewset v1` text.  Lines end in LF, CRLF or CR; blank lines
    (spaces and tabs only) may appear anywhere; a point line is two tokens
    separated by spaces or tabs, each an optional sign and ASCII digits.

    The body is parsed in one vectorised call.  Only when that fails, or
    when a repeated point shortens the set, does `_first_error` walk the
    lines to name the first bad line, out-of-range point or repeat.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    head: list[str] = []
    pos = 0
    while len(head) < 2 and pos < len(text):
        end = text.find("\n", pos)
        end = len(text) if end < 0 else end
        if line := text[pos:end].strip(_SPACE):
            head.append(line)
        pos = end + 1
    if not head or head[0] != "skewset 1":
        raise FormatError("missing 'skewset 1' header")
    if len(head) < 2:
        raise FormatError("missing ambient line")
    parts = head[1].split()
    if len(parts) != 3 or parts[0] != "ambient" or parts[1] not in (GRID, TORUS):
        raise FormatError(f"bad ambient line {head[1]!r}")
    try:
        amb = Ambient(parts[1], int(parts[2]))
    except ValueError as exc:
        raise FormatError(f"bad ambient size in {head[1]!r}") from exc
    body = text[pos:]
    if not body.strip(_SPACE + "\n"):
        return make_grid_set((), amb)
    raw = body.encode("ascii", errors="replace")  # "?" for non-ASCII
    if raw.translate(None, _BODY_BYTES):
        _first_error(body, amb)
    try:
        xy = np.loadtxt(io.BytesIO(raw), dtype=np.int64, comments=None, ndmin=2)
    except (ValueError, OverflowError):  # a bad token or line, or beyond int64
        _first_error(body, amb)
    if xy.shape[1] != 2:
        _first_error(body, amb)
    a = GridSet.from_arrays(xy[:, 0], xy[:, 1], amb)
    if len(a) < xy.shape[0]:
        _first_error(body, amb)
    return a


def _first_error(body: str, amb: Ambient) -> NoReturn:
    """Raise for the first bad point line of `body`, else for the first
    point outside `amb`, else for the first repeated point."""
    pts = []
    for line in body.split("\n"):
        if not (line := line.strip(_SPACE)):
            continue
        m = _POINT_LINE.fullmatch(line)
        if m is None:
            raise FormatError(f"bad point line {line!r}")
        pts.append((int(m[1]), int(m[2])))
    for p in pts:
        if not (amb.in_range(p[0]) and amb.in_range(p[1])):
            raise CoordinateError(f"point {p} outside {amb}")
    seen: set[tuple[int, int]] = set()
    for p in pts:
        if p in seen:
            raise FormatError(f"duplicate point {p}")
        seen.add(p)
    # every line reads and every point is in range, yet numpy refused a
    # value: only an ambient wider than int64 gets here
    raise CoordinateError(f"a point of {amb} does not fit in int64")


def load_skewset(path: str | Path) -> GridSet:
    """Read a `skewset 1` file; a byte that is not UTF-8 becomes U+FFFD,
    which `loads_skewset` rejects like any other non-ASCII text."""
    return loads_skewset(Path(path).read_text(encoding="utf-8", errors="replace"))
