"""Skew-corner detection and exact counting (naive oracle and FFT backend).

Counts are tuple counts over (x, y, y', d): the configuration is
(x, y), (x, y+d), (x+d, y'), trivial when d = 0.  On a torus of side N the
total equals N^4 times the trilinear counting form evaluated at the
indicator; on a grid all arithmetic stays in Z (no wraparound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .core import TORUS, Ambient, GridSet, Witness, embed_torus, transpose
from .errors import CapabilityError, ParameterError, PrecisionError

# Autocorrelation entries are integers <= N, so nearest-integer rounding of
# the float FFT path is exact as long as the residue stays tiny.
FFT_RESIDUE_TOL = 1e-3

# One side cap for every FFT and spectral path, read in one place: each
# path embeds its set through `fft_torus`, which refuses past the cap
# before anything of side N is built.  The paths on sets hold no N x N
# array; only the public dense helpers `TwoDFunction`, `row_transforms`
# and `lambda_form` do, so the cap is a time limit on sets.  Past it
# (embedded grids double n) the naive counter is the right tool.
MAX_FFT_SIDE = 4096

# Indicator rows are transformed in blocks of this many entries (512 KiB
# as complex).  Each block's temporaries are freed before the next block;
# kept this small, the allocator reuses their pages instead of returning
# them to the system and faulting them in again.  glibc raises its mmap
# and trim thresholds only after freeing a larger block, and the reader
# frees none: at 2^16 entries `count --method fft` on the torus 4096 at
# 1/50 took 93 000 page faults, at 2^15 7 000.
_BLOCK_ENTRIES = 1 << 15


def fft_torus(a: GridSet) -> GridSet:
    """`embed_torus(a)`, refused when its torus side N passes MAX_FFT_SIDE.
    Every FFT and spectral path embeds through here, so each refuses before
    it builds anything of side N."""
    N = a.ambient.torus_side
    if N > MAX_FFT_SIDE:
        raise CapabilityError(
            f"FFT and spectral paths are capped at side {MAX_FFT_SIDE}, "
            f"N={N} exceeds it (count_skew_corners_naive has no cap)"
        )
    return embed_torus(a)


@dataclass(frozen=True)
class CornerCount:
    """Tuple counts split into trivial (d = 0) and nontrivial parts."""

    trivial: int
    nontrivial: int

    @property
    def total(self) -> int:
        return self.trivial + self.nontrivial


# Column pairs are differenced in row blocks of at most this many entries
# (512 KiB of int64), so memory stays flat however tall a column is.  The
# blocks are written into one reused buffer: allocated afresh, glibc mapped
# and unmapped each one after a reader that frees no large array, and
# `count --method naive` on the torus 1024 at 1/2 took 78 000 page faults.
_PAIR_BLOCK = 1 << 16


def _lag_pad(ambient: Ambient) -> int:
    """Where column index 0 sits in a `_lagged_table`: 0 on a torus, 1 on
    a grid."""
    return 0 if ambient.kind == TORUS else 1


def _lagged_table(a: GridSet, dtype=np.int64) -> np.ndarray:
    """The column sizes as `dtype` (bool marks the nonempty columns), read
    at column i + d through `_lookup(a.ambient, table, i + d + _lag_pad)`
    for any |d| < size.  A torus table holds the N sizes and the lookup
    wraps.  A grid table has one zero on each side, size + 2 entries, and
    the lookup clips, which sends every off-grid column to a zero.  This,
    `_lookup` and `_lag_column` are the one place a column plus a
    difference is mapped to a column."""
    size, pad = a.ambient.size, _lag_pad(a.ambient)
    table = np.zeros(size + 2 * pad, dtype=dtype)
    a.column_sizes(out=table[pad : pad + size])
    return table


def _lookup(
    ambient: Ambient, table: np.ndarray, t: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """`table[t]` for a `_lagged_table`; "wrap" and "clip" write into `out`
    unbuffered."""
    return table.take(t, out=out, mode="wrap" if ambient.kind == TORUS else "clip")


def _lag_column(ambient: Ambient, t: int) -> int:
    """The column x read at lookup index t (an on-grid one on a grid)."""
    return (t - _lag_pad(ambient)) % ambient.size + ambient.lo


def pair_targets(a: GridSet) -> Iterator[tuple[int, np.ndarray, int, np.ndarray]]:
    """Map the pair differences of each column to the column they point at.

    Walks the columns x = i + lo holding at least two points (a lone point
    has only the trivial pair d = 0) and yields (i, ys, j0, t), where t
    holds the `_lookup` indices t = i + d + `_lag_pad` for
    d = ys[j2] - ys[j1].  Over all position pairs, t covers the rows
    j1 = j0, j0 + 1, ... of the k x k difference array in blocks of at most
    _PAIR_BLOCK entries (row r of t is j1 = j0 + r); d = 0 exactly where
    t == i + pad.  Every t is a view of one buffer, which the next block
    overwrites.
    """
    pad = _lag_pad(a.ambient)
    buf = np.empty(0, dtype=np.int64)
    for i, ys in a.nonempty_columns():
        if ys.size < 2:
            continue
        at = ys + (i + pad)
        rows = min(ys.size, max(1, _PAIR_BLOCK // ys.size))
        if buf.size < rows * ys.size:
            buf = np.empty(rows * ys.size, dtype=np.int64)
        for j0 in range(0, ys.size, rows):
            t = buf[: min(rows, ys.size - j0) * ys.size].reshape(-1, ys.size)
            yield i, ys, j0, np.subtract(at, ys[j0 : j0 + len(t), None], out=t)


def find_skew_corner(a: GridSet) -> Optional[Witness]:
    """Return a nontrivial skew-corner witness, or None if the set is free.

    For each column x, every nonzero difference d of a pair in the column
    is checked against the occupancy of column x+d.  The witness is the
    first hit in (column, j1, j2) order.
    """
    pad = _lag_pad(a.ambient)
    occ = _lagged_table(a, bool)
    for i, ys, j0, t in pair_targets(a):
        hit = _lookup(a.ambient, occ, t) & (t != i + pad)
        if hit.any():
            j1, j2 = np.unravel_index(int(np.argmax(hit)), hit.shape)
            target = int(t[j1, j2])
            return Witness(
                x=i + a.ambient.lo,
                y=int(ys[j0 + j1]),
                y_prime=a.column(_lag_column(a.ambient, target))[0],
                d=target - (i + pad),
            )
    return None


def sample_skew_corner(a: GridSet, probes: int, seed: int = 0) -> Optional[tuple[int, int]]:
    """Probe `probes` random position pairs (j1, j2), each column x drawn
    with weight |A_x|^2, so that every pair of the set is equally likely.
    Returns the columns (x, x + d) of the first skew corner hit, or None.

    The per-column probe counts come from one multinomial draw over the
    columns of two or more points, and each column's pairs are drawn at
    most _PAIR_BLOCK at a time, so memory beyond the set stays a few MiB
    however many probes are asked for.
    """
    sizes = a.column_sizes()
    rich = np.flatnonzero(sizes >= 2)
    weights = sizes[rich].astype(np.float64) ** 2
    del sizes
    if rich.size == 0:
        return None
    rng = np.random.default_rng(seed)
    reps = rng.multinomial(probes, weights / weights.sum())
    drawn = iter(zip(rich[reps > 0].tolist(), reps[reps > 0].tolist()))
    next_i, r = next(drawn, (None, 0))
    pad = _lag_pad(a.ambient)
    occ = _lagged_table(a, bool)
    for i, ys in a.nonempty_columns():
        if i != next_i:
            continue
        for s in range(0, r, _PAIR_BLOCK):
            m = min(_PAIR_BLOCK, r - s)
            t = ys[rng.integers(0, ys.size, m)]
            t += i + pad
            t -= ys[rng.integers(0, ys.size, m)]
            hit = _lookup(a.ambient, occ, t) & (t != i + pad)
            if hit.any():
                return i + a.ambient.lo, _lag_column(a.ambient, int(t[hit][0]))
        next_i, r = next(drawn, (None, 0))
    return None


def is_skew_corner_free(a: GridSet) -> bool:
    return find_skew_corner(a) is None


def is_bi_skew_corner_free(a: GridSet) -> bool:
    """Freeness in both coordinate orientations (the set and its transpose)."""
    return find_skew_corner(a) is None and find_skew_corner(transpose(a)) is None


def count_skew_corners_naive(a: GridSet) -> CornerCount:
    """Exact reference count by direct enumeration of per-column pairs.

    O(sum_x |A_x|^2 + size^2) time and O(size) memory beyond the set, since
    the pairs come in blocks; 64-bit integer arithmetic throughout.
    """
    table = _lagged_table(a)
    pad = _lag_pad(a.ambient)
    sizes = table[pad : pad + a.ambient.size]  # a view, not a copy
    trivial = int(sizes @ sizes)
    lone = int(np.count_nonzero(sizes == 1))
    looked_up = np.empty(0, dtype=np.int64)  # table[t], reused like t
    pairs = 0
    for _, _, _, t in pair_targets(a):
        if looked_up.size < t.size:
            looked_up = np.empty(t.size, dtype=np.int64)
        pairs += int(_lookup(a.ambient, table, t.ravel(), out=looked_up[: t.size]).sum())
    # the pairs include each column's k trivial pairs d = 0, which meet its
    # own k points, except in the `lone` skipped columns of one point
    return CornerCount(trivial=trivial, nontrivial=pairs - trivial + lone)


def column_power(a: GridSet) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(cols, |rfft(rows, axis=1)|^2) for consecutive blocks of the
    nonempty torus columns cols, in increasing order, where rows are their
    indicator rows; grid sets are embedded into the torus of side 2n first.
    Rows are real, so each power spectrum holds the N // 2 + 1 frequencies
    0..N // 2 and P(a) = P(N - a) gives the rest.  Empty columns have a
    zero spectrum and are never transformed."""
    a = fft_torus(a)
    nonempty = np.flatnonzero(a.column_sizes())
    step = max(1, _BLOCK_ENTRIES // a.ambient.size)
    for k in range(0, nonempty.size, step):
        cols = nonempty[k : k + step]
        yield cols, np.abs(np.fft.rfft(a.indicator_matrix(cols=cols), axis=1)) ** 2


def count_skew_corners_fft(a: GridSet) -> CornerCount:
    """FFT-accelerated count; equals the naive oracle exactly.

    Grid inputs are embedded into the torus of side 2n first, so the counts
    refer to the torus.  The total is sum_{x,d} c_x(d) |A_{x+d}| over the
    `column_power` blocks (see `autocorrelation_total`).
    """
    t = fft_torus(a)
    sizes = t.column_sizes(out=np.empty(t.ambient.size))
    # sum_x |A_x|^2 <= N^3 < 2^53, so the float64 dot product is exact
    trivial = int(sizes @ sizes)
    total = sum(autocorrelation_total(sizes, *block) for block in column_power(t))
    return CornerCount(trivial=trivial, nontrivial=total - trivial)


def autocorrelation_total(sizes: np.ndarray, cols: np.ndarray, power: np.ndarray) -> int:
    """sum_{x, d} c_x(d) |A_{x+d}| over the columns x of one `column_power`
    block (cols, power), where `sizes` holds the N column sizes as float64
    and x + d is taken mod N.  Each cyclic autocorrelation c_x is the
    inverse transform of its power spectrum, rounded to the nearest
    integer; a residue above FFT_RESIDUE_TOL raises PrecisionError."""
    N = sizes.size
    corr = np.fft.irfft(power, n=N, axis=1)
    rounded = np.rint(corr)
    np.subtract(corr, rounded, out=corr)
    residue = float(np.abs(corr, out=corr).max())
    if residue > FFT_RESIDUE_TOL:
        raise PrecisionError(
            f"autocorrelation rounding residue {residue:.3g} exceeds "
            f"{FFT_RESIDUE_TOL}; N={N} too large for the float path"
        )
    # a row's terms are integers summing to at most N^3 < 2^53, so each
    # float64 dot product is exact; row x meets twice[x + d]
    twice = np.concatenate((sizes, sizes))
    return sum(int(row @ twice[x : x + N]) for x, row in zip(cols.tolist(), rounded))


def count_corners(a: GridSet) -> CornerCount:
    """Exact count of corner tuples (x, y, d): (x,y), (x+d,y), (x,y+d) in A.

    Torus ambient only.  The d = 0 tuples are reported as `trivial`.  The
    pair y, y + d of column x, from `pair_targets`, is a corner when
    (x + d, y) is in A, read from an N x N bool table, so the cost is the
    column-pair work sum_x |A_x|^2 plus that table.
    """
    if a.ambient.kind != TORUS:
        raise ParameterError("count_corners expects a torus-ambient set")
    N = a.ambient.size
    if N > 1024:
        raise CapabilityError(
            f"corner counting holds an N x N bool table; N={N} exceeds 1024"
        )
    occ = a.indicator_matrix(dtype=bool).ravel()  # occ[x * N + y]
    total = 0
    for _, ys, j0, t in pair_targets(a):
        # row j of t holds the columns x + d of the pairs from y = ys[j0 + j];
        # the flat index (x + d) * N + y wraps mod N^2 as x + d wraps mod N
        t *= N
        t += ys[j0 : j0 + len(t), None]
        total += int(np.count_nonzero(occ.take(t, mode="wrap")))
    # every pair d = 0 meets its own point, and so does a lone point, whose
    # column `pair_targets` skips
    lone = int(np.count_nonzero(a.column_sizes() == 1))
    return CornerCount(trivial=len(a), nontrivial=total + lone - len(a))
