"""The immutable point-set model, its symmetry operations and its file format.

The ambient spaces (`Ambient`, `grid`, `torus`) live in `ambient`, which
needs no numpy; they are imported here too, so `from .core import Ambient`
still works.  Points are stored column-wise, since every algorithm in the
package iterates over vertical slices: a GridSet keeps compressed sparse
rows, one offsets array with an entry per column boundary and one array of
y-values sorted within each column.  This module is the only one that
knows that layout; the others go through `column`, `column_sizes`,
`nonempty_columns`, `points`, `coordinates` and `indicator_matrix`.
"""

from __future__ import annotations

import io
import itertools
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NoReturn, Sequence, Union

import numpy as np

from .ambient import GRID, TORUS, Ambient, grid, skewset_header, torus  # noqa: F401
from .errors import CapabilityError, CoordinateError, FormatError, ParameterError


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
        """Vertical slice at x, in ambient coordinates.

        Raises CoordinateError when x lies outside the ambient."""
        if not self.ambient.in_range(x):
            raise CoordinateError(f"column {x} outside {self.ambient}")
        return tuple(self._slice(x - self.ambient.lo).tolist())

    def nonempty_columns(self) -> Iterator[tuple[int, np.ndarray]]:
        """(i, ys) for every nonempty column x = i + lo, in increasing x;
        `ys` is the column's read-only sorted y-values."""
        for i in np.flatnonzero(self.offsets[1:] != self.offsets[:-1]).tolist():
            yield i, self._slice(i)

    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """int64 coordinate arrays (xs, ys) in `points()` order; ys is read-only."""
        lo = self.ambient.lo
        xs = np.repeat(np.arange(lo, lo + self.ambient.size), self.column_sizes())
        return xs, self.ys

    def points(self) -> Iterator[tuple[int, int]]:
        xs, ys = self.coordinates()
        return zip(xs.tolist(), ys.tolist())

    def column_sizes(self, out: np.ndarray | None = None) -> np.ndarray:
        """Points per column, in order; written into `out` when given, cast
        to its dtype, so a bool `out` marks the nonempty columns."""
        return np.subtract(
            self.offsets[1:], self.offsets[:-1], out=out, casting="unsafe"
        )

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
        if (err := _outside(xs, ys, ambient)) is not None:
            raise err
        return _from_keys(ambient, _keys(xs, ys, ambient))

    def __repr__(self) -> str:
        return f"GridSet({self.ambient}, {len(self)} points)"


def _outside(
    xs: np.ndarray, ys: np.ndarray, ambient: Ambient
) -> CoordinateError | None:
    """The error naming the first point (xs[j], ys[j]) outside `ambient`,
    or None when all are inside."""
    lo, hi = ambient.lo, ambient.hi
    if xs.size == 0 or lo <= min(xs.min(), ys.min()) <= max(xs.max(), ys.max()) <= hi:
        return None
    j = int(np.flatnonzero((xs < lo) | (xs > hi) | (ys < lo) | (ys > hi))[0])
    return CoordinateError(f"point ({xs[j]}, {ys[j]}) outside {ambient}")


def _keys(
    xs: np.ndarray, ys: np.ndarray, ambient: Ambient, out: np.ndarray | None = None
) -> np.ndarray:
    """The int64 keys (x - lo) * size + (y - lo) of in-range points, which
    sort column by column; written into `out` when given, else a new array."""
    key = np.multiply(xs, ambient.size, out=out)
    key += ys
    key -= ambient.lo * (ambient.size + 1)
    return key


# keys per chunk of `_from_keys`' column split
_OFFSET_CHUNK = 1 << 14


def _from_keys(ambient: Ambient, key: np.ndarray) -> GridSet:
    """GridSet from the `_keys` of in-range points, in any order and with
    repeats.  Sorts `key` in place; when no point repeats, `key` becomes the
    set's ys, otherwise the set is built from a deduplicated copy and `key`
    is left sorted, repeats included."""
    size = ambient.size
    key.sort()
    fresh = np.empty(key.size, dtype=bool)
    fresh[:1] = True
    np.not_equal(key[1:], key[:-1], out=fresh[1:])
    if not fresh.all():
        key = key[fresh]
    del fresh
    # offsets[x + 1] is 1 + the position of column x's last key, read a
    # chunk of keys at a time; empty columns repeat the offset before them
    offsets = np.zeros(size + 1, dtype=np.int64)
    for j in range(0, key.size, _OFFSET_CHUNK):
        cols = key[j : j + _OFFSET_CHUNK] // size
        last = np.append(cols[1:] != cols[:-1], True)
        offsets[cols[last] + 1] = np.flatnonzero(last) + j + 1
    np.maximum.accumulate(offsets, out=offsets)
    np.remainder(key, size, out=key)
    key += ambient.lo
    offsets.setflags(write=False)
    key.setflags(write=False)
    return GridSet(ambient, offsets, key)


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
    """Reinterpret a grid set in [n]^2 as a subset of the torus (Z/2nZ)^2;
    a torus set is returned unchanged.

    Coordinates are kept verbatim (values 1..n are valid residues mod 2n);
    any fixed shift would be a translation and hence irrelevant to
    skew-corner-freeness.
    """
    if a.ambient.kind == TORUS:
        return a
    n = a.ambient.size
    # refuses a side past MAX_SIDE before anything is built
    amb = torus(a.ambient.torus_side)
    # grid column x = i + 1 becomes residue x; residues n+1..2n-1 are empty
    offsets = np.concatenate(([0], a.offsets, np.full(n - 1, len(a))))
    return GridSet(amb, offsets, a.ys)


TranslationMap = Union[int, Mapping[int, int], Sequence[int]]


def _shift_of(v: TranslationMap, x: int) -> int:
    if isinstance(v, int):
        return v
    return v.get(x, 0) if isinstance(v, Mapping) else v[x]


def translate(a: GridSet, h: int, v: TranslationMap) -> GridSet:
    """Torus translation (x, y) -> (x + h, y + v(x)) mod N.

    `v` gives an independent vertical shift per column (int for a uniform
    shift, or a mapping or sequence keyed by the column x, consulted
    for the nonempty columns only).  These are exactly the symmetries under
    which skew-corner-freeness is invariant.
    """
    if a.ambient.kind != TORUS:
        raise ParameterError("translate expects a torus-ambient set")
    N = a.ambient.size
    sizes = a.column_sizes()
    nonempty = np.flatnonzero(sizes)
    counts = sizes[nonempty]
    shifts = np.array([_shift_of(v, x) % N for x in nonempty.tolist()], dtype=np.int64)
    key = np.repeat(shifts, counts)
    key += a.ys
    np.remainder(key, N, out=key)
    key += np.repeat((nonempty + h % N) % N * N, counts)
    return _from_keys(a.ambient, key)


def transpose(a: GridSet) -> GridSet:
    """Reflect (x, y) -> (y, x).  An involution; preserves cardinality."""
    xs, ys = a.coordinates()
    return _from_keys(a.ambient, _keys(ys, xs, a.ambient))


# ---------------------------------------------------------------------------
# `skewset v1` file format: line 1 "skewset 1", line 2 "ambient grid <n>" or
# "ambient torus <N>", then one "x y" pair per line.  Read as UTF-8,
# written as ASCII with LF line ends.
# ---------------------------------------------------------------------------

_POINT_LINE = re.compile(rb"([+-]?[0-9]+)[ \t]+([+-]?[0-9]+)")
_BLANK = re.compile(rb"[ \t\n]*")
# every byte a point body may hold; numpy's reader is laxer outside them
_BODY_BYTES = b"0123456789+-\n \t"

# bytes per block of the reader, cut after the block's last newline
_READ_CHUNK = 1 << 18
# the reader's key array grows by 1/_GROWTH of its size when it is full
_GROWTH = 4

# Largest point set a construction materializes or a reader loads.
MAX_POINTS = 50_000_000


# points per block of the writer: under 1 MiB of scratch at six-digit coordinates
_WRITE_CHUNK = 1 << 14


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
    yield skewset_header(amb).encode()
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

    The text is encoded a slice at a time and read by the block parser of
    `load_skewset`.
    """

    def chunks() -> Iterator[bytes]:
        for i in range(0, len(text), _READ_CHUNK):
            yield text[i : i + _READ_CHUNK].encode("utf-8", "surrogatepass")

    return _parse(chunks, "surrogatepass")


def load_skewset(path: str | Path) -> GridSet:
    """Read a `skewset 1` file in binary blocks of _READ_CHUNK bytes.

    Memory beyond one block is about once the set's 8 bytes per point: each
    block's keys are written into one array that grows in place, and that
    array is sorted in place into the set's ys.
    A byte that is not UTF-8 makes a bad point line, shown as U+FFFD.  When
    a point repeats, the file is read a second time to name the first
    repeat; a pipe, which cannot be, gets its smallest repeat named.
    """
    with open(path, "rb") as fh:

        def chunks() -> Iterator[bytes]:
            if fh.seekable():
                fh.seek(0)
            return iter(lambda: fh.read(_READ_CHUNK), b"")

        return _parse(chunks, "replace")


def _parse(source: Callable[[], Iterable[bytes]], errors: str) -> GridSet:
    """The block parser behind both readers.  `source()` yields the input's
    bytes in chunks, afresh on each call; `errors` is the UTF-8 error
    handler that decodes the header, and a bad line for its message.

    Each block of whole lines is parsed by one `np.loadtxt` call, range
    checked, and its int64 keys are written into one array that grows by
    1/_GROWTH of its size when full and is cut to the count at the end, so
    it owns its data and becomes the set's ys.  Errors name the first bad
    line, else the first point outside the ambient, else the first repeated
    point, without one Python object per point of the input.
    """
    amb, body = _body(source, errors)
    key = np.empty(0, dtype=np.int64)
    count = 0
    err: CoordinateError | None = None  # for the first point outside amb
    for block in body:
        xy = _points(block)
        if xy is None:
            outside = _diagnose(block, amb, errors)  # raises for a bad line
            err = err or outside
            continue
        start, count = count, count + len(xy)
        if count > MAX_POINTS:
            raise CapabilityError(f"more than {MAX_POINTS} points; refusing to load")
        if err is None and (err := _outside(xy[:, 0], xy[:, 1], amb)) is None:
            if count > key.size:
                # no view of `key` outlives a statement, so it may move
                key.resize(max(count, key.size + key.size // _GROWTH), refcheck=False)
            _keys(xy[:, 0], xy[:, 1], amb, out=key[start:count])
    if err is not None:
        raise err
    key.resize(count, refcheck=False)
    a = _from_keys(amb, key)
    if len(a) < key.size:
        _first_repeat(source, errors, amb, key)
    return a


def _line_blocks(chunks: Iterable[bytes]) -> Iterator[bytes]:
    """Regroup byte chunks into blocks of whole lines, with every CR read
    as LF: a block ends after the last newline of its chunks, and only the
    final block may end without one.  A CRLF becomes a blank line, which
    the format allows anywhere, also when a chunk ends between CR and LF."""
    parts: list[bytes | memoryview] = []
    for chunk in chunks:
        chunk = chunk.replace(b"\r", b"\n")
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            parts.append(chunk)
            continue
        parts.append(memoryview(chunk)[:cut])
        rest = chunk[cut:]
        block = b"".join(parts)
        del chunk, parts  # only the block stays alive while it is parsed
        parts = [rest]
        yield block
    if tail := b"".join(parts):
        yield tail


def _body(
    source: Callable[[], Iterable[bytes]], errors: str
) -> tuple[Ambient, Iterator[bytes]]:
    """Read the two header lines; return the ambient and the nonblank
    blocks of the body after them."""
    blocks = _line_blocks(source())
    head: list[str] = []
    for block in blocks:
        pos = 0
        while len(head) < 2 and pos < len(block):
            end = block.find(b"\n", pos)
            end = len(block) if end < 0 else end
            if line := block[pos:end].strip(b" \t"):
                head.append(line.decode("utf-8", errors))
            pos = end + 1
        if len(head) == 2:
            body = itertools.chain([block[pos:]], blocks)
            return _ambient(head), (b for b in body if not _BLANK.fullmatch(b))
    return _ambient(head), iter(())  # raises: fewer than two header lines


def _ambient(head: list[str]) -> Ambient:
    """The ambient of the header lines `head`; raises FormatError unless
    they are "skewset 1" and a valid ambient line."""
    if not head or head[0] != "skewset 1":
        raise FormatError("missing 'skewset 1' header")
    if len(head) < 2:
        raise FormatError("missing ambient line")
    parts = head[1].split()
    if len(parts) != 3 or parts[0] != "ambient" or parts[1] not in (GRID, TORUS):
        raise FormatError(f"bad ambient line {head[1]!r}")
    try:
        return Ambient(parts[1], int(parts[2]))
    except ValueError as exc:
        raise FormatError(f"bad ambient size in {head[1]!r}") from exc


def _points(block: bytes) -> np.ndarray | None:
    """The (k, 2) int64 points of a nonblank block of whole lines, or None
    when some line is not two int64 tokens."""
    if block.translate(None, _BODY_BYTES):
        return None
    try:
        xy = np.loadtxt(io.BytesIO(block), dtype=np.int64, comments=None, ndmin=2)
    except (ValueError, OverflowError):  # a bad token or line, or beyond int64
        return None
    return xy if xy.shape[1] == 2 else None


def _diagnose(block: bytes, amb: Ambient, errors: str) -> CoordinateError:
    """For a block `_points` refused: raise for its first bad line, else
    return the error for its first point outside `amb`.  numpy refuses
    only a bad line or a value beyond int64, which lies outside every
    ambient (their sides are at most MAX_SIDE), so one of the two is found."""
    first = None
    for line in block.split(b"\n"):
        if not (line := line.strip(b" \t")):
            continue
        m = _POINT_LINE.fullmatch(line)
        if m is None:
            raise FormatError(f"bad point line {line.decode('utf-8', errors)!r}")
        p = (int(m[1]), int(m[2]))
        if first is None and not (amb.in_range(p[0]) and amb.in_range(p[1])):
            first = CoordinateError(f"point {p} outside {amb}")
    return first


def _first_repeat(
    source: Callable[[], Iterable[bytes]], errors: str, amb: Ambient, key: np.ndarray
) -> NoReturn:
    """Raise for the first point of the input that repeats an earlier one.
    `key` holds the keys of all its points, sorted; a second pass over the
    blocks checks each point against the repeated keys alone.  When the
    input cannot be read again, its smallest repeated point is named."""
    rep = key[1:][key[1:] == key[:-1]]
    rep = rep[np.flatnonzero(np.diff(rep, prepend=-1))]  # each repeated key once
    seen = np.zeros(rep.size, dtype=bool)
    try:
        body = _body(source, errors)[1]
    except FormatError:  # a pipe reads empty the second time
        body = iter(())
    for block in body:
        if (xy := _points(block)) is None:
            continue  # the input changed since the first pass
        k = _keys(xy[:, 0], xy[:, 1], amb)
        at = np.minimum(np.searchsorted(rep, k), rep.size - 1)
        hit = np.flatnonzero(rep[at] == k)
        at = at[hit]
        again = np.ones(at.size, dtype=bool)
        again[np.unique(at, return_index=True)[1]] = False
        again |= seen[at]
        if again.any():
            p = tuple(xy[hit[np.argmax(again)]].tolist())
            raise FormatError(f"duplicate point {p}")
        seen[at] = True
    x, y = divmod(int(rep[0]), amb.size)
    raise FormatError(f"duplicate point {(x + amb.lo, y + amb.lo)}")
