"""Skew-corner detection and exact counting (naive oracle and FFT backend).

Counts are tuple counts over (x, y, y', d): the configuration is
(x, y), (x, y+d), (x+d, y'), trivial when d = 0.  On a torus of side N the
total equals N^4 times the trilinear counting form evaluated at the
indicator; on a grid all arithmetic stays in Z (no wraparound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .ambient import TORUS, Ambient
from .core import GridSet, Witness, embed_torus, transpose
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
# as complex), each written into the buffer of the block before.  Arrays
# allocated afresh per block were mapped and unmapped by glibc until some
# earlier large free raised its mmap threshold: `count --method fft` on
# the torus 4096 at 1/50 took 88 000 page faults at 2^16 entries and
# 2 400 at 2^15; with the one buffer it takes 2 500 and 2 300.
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

# The naive count takes a column of k >= 2 points with _DENSE_SHARE * k >= N
# (N the ambient side) from its autocorrelation, about N^2 / 64 word
# operations, instead of its k^2 pairs.
_DENSE_SHARE = 4


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
    `_lookup`, `_lag_column` and `_lagged_total` (for whole autocorrelation
    rows) are the one place a column plus a difference is mapped to a
    column."""
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


def _lagged_total(sizes: np.ndarray, xs: list, rows: np.ndarray, torus: bool) -> int:
    """sum_j sum_{0 <= d < N} rows[j, d] sizes[xs[j] + d] for the N column
    sizes and the column indices xs[j] of the rows, which hold one
    autocorrelation c(d) each, of any dtype.  On a torus x + d is taken
    mod N.  A grid reads nothing off the grid and adds
    sum_{d >= 1} rows[j, d] sizes[xs[j] - d], as there c(-d) = c(d).  The
    caller keeps each row's sum exact in the dtype of `rows @ sizes`."""
    N = sizes.size
    if torus:
        twice = np.concatenate((sizes, sizes))  # row x meets twice[x + d]
        return sum(int(row @ twice[x : x + N]) for x, row in zip(xs, rows))
    return sum(
        int(row[: N - x] @ sizes[x:]) + int(row[1 : x + 1] @ sizes[:x][::-1])
        for x, row in zip(xs, rows)
    )


def pair_targets(
    a: GridSet, columns: Optional[Iterable[tuple[int, np.ndarray]]] = None
) -> Iterator[tuple[int, np.ndarray, int, np.ndarray]]:
    """Map the pair differences of each column to the column they point at.

    Walks the columns x = i + lo of `columns`, (i, ys) pairs as
    `a.nonempty_columns()` yields them (all of those when None), that hold
    at least two points (a lone point has only the trivial pair d = 0), and
    yields (i, ys, j0, t), where t holds the `_lookup` indices
    t = i + d + `_lag_pad` for d = ys[j2] - ys[j1].  Over all position
    pairs, t covers the rows j1 = j0, j0 + 1, ... of the k x k difference
    array in blocks of at most _PAIR_BLOCK entries (row r of t is
    j1 = j0 + r); d = 0 exactly where t == i + pad.  Every t is a view of
    one buffer, which the next block overwrites.
    """
    pad = _lag_pad(a.ambient)
    # one buffer, sized for the largest block of any column: the caller's
    # `t` keeps a buffer alive, so a larger one made for a later column
    # would be held beside it
    k = a.occupied_columns()[1]
    k = k[k >= 2]
    size = int((np.minimum(k, np.maximum(1, _PAIR_BLOCK // k)) * k).max(initial=0))
    del k
    buf = None
    for i, ys in a.nonempty_columns() if columns is None else columns:
        if ys.size < 2:
            continue
        at = ys + (i + pad)
        rows = min(ys.size, max(1, _PAIR_BLOCK // ys.size))
        if buf is None:
            buf = np.empty(size, dtype=np.int64)
        for j0 in range(0, ys.size, rows):
            t = buf[: min(rows, ys.size - j0) * ys.size].reshape(-1, ys.size)
            yield i, ys, j0, np.subtract(at, ys[j0 : j0 + len(t), None], out=t)


def find_skew_corner(a: GridSet) -> Optional[Witness]:
    """Return a nontrivial skew-corner witness, or None if the set is free.

    For each column x, every nonzero difference d of a pair in the column
    is checked against the occupancy of column x+d.  The witness is the
    first hit in (column, j1, j2) order.  While a column's pairs are
    scanned its own occupancy entry is cleared: as |d| < size, only d = 0
    reads it.
    """
    pad = _lag_pad(a.ambient)
    occ = _lagged_table(a, bool)
    own = None  # the lookup index of the column being scanned
    for i, ys, j0, t in pair_targets(a):
        if j0 == 0:
            if own is not None:
                occ[own] = True
            own = i + pad
            occ[own] = False
        hit = _lookup(a.ambient, occ, t)
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
    columns of two or more points, taken with their sizes from
    `occupied_columns`, and each column's pairs are drawn at most
    _PAIR_BLOCK at a time.  So memory beyond the set is at most about
    1.5 MiB of probe buffers, however many probes are asked for, and one
    byte per column for the occupancy table (1 MiB at n = 2^20).
    """
    i, k = a.occupied_columns()
    rich = i[k >= 2]
    weights = k[k >= 2].astype(np.float64) ** 2
    del i, k
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
        occ[i + pad] = False  # only the trivial pairs d = 0 read it
        for s in range(0, r, _PAIR_BLOCK):
            m = min(_PAIR_BLOCK, r - s)
            t = ys[rng.integers(0, ys.size, m)]
            t += i + pad
            t -= ys[rng.integers(0, ys.size, m)]
            hit = _lookup(a.ambient, occ, t)
            if hit.any():
                return i + a.ambient.lo, _lag_column(a.ambient, int(t[hit][0]))
        occ[i + pad] = True
        next_i, r = next(drawn, (None, 0))
    return None


def is_bi_skew_corner_free(a: GridSet) -> bool:
    """Freeness in both coordinate orientations (the set and its transpose)."""
    return find_skew_corner(a) is None and find_skew_corner(transpose(a)) is None


def count_skew_corners_naive(a: GridSet) -> CornerCount:
    """Exact reference count: sum over the pairs y, y' of each column x of
    |A_{x + y' - y}|, in 64-bit integer arithmetic and independent of the
    FFT.  A column of k points is either enumerated, its k^2 pairs a block
    at a time (`pair_targets`), or, when dense (_DENSE_SHARE * k >= N),
    counted from its autocorrelation in about N^2 / 64 word operations
    (`_words.column_autocorrelations`), whose rows `_lagged_total` sums
    against the column sizes, as the FFT count does.  So the time is
    O(sum_x min(|A_x|^2, N^2 / 64) + N).

    The lookup table holds the column sizes in the narrowest unsigned
    dtype that holds the largest (uint8 up to 255 points a column), and
    each block of lookups is summed in a uint32 (uint64 past 2^16 - 1
    points a column).  So the memory beyond the set is one or two bytes a
    column, a bool mask of the columns while the nonempty ones are found,
    and fixed-size buffers; the N sizes are cast to int64 only when a
    dense column needs them.
    """
    _, k = a.occupied_columns()
    trivial = int(k @ k)
    lone = int(np.count_nonzero(k == 1))
    table = _lagged_table(a, np.min_scalar_type(k.max(initial=0)))
    del k
    N = a.ambient.size
    dense = []

    def sparse() -> Iterator[tuple[int, np.ndarray]]:
        """The nonempty columns, less the dense ones, set aside in `dense`."""
        for i, ys in a.nonempty_columns():
            if ys.size >= 2 and _DENSE_SHARE * ys.size >= N:
                dense.append((i, ys))
            else:
                yield i, ys

    looked_up = np.empty(0, dtype=table.dtype)  # table[t], reused like t
    # a block holds at most max(_PAIR_BLOCK, k) <= 2^16 lookups while every
    # column k has under 2^16 points (a table of 1 or 2 bytes), so their
    # sum fits a uint32, which numpy sums about twice as fast as an int64
    total = np.uint32 if table.itemsize <= 2 else np.uint64
    pairs = 0
    for _, _, _, t in pair_targets(a, sparse()):
        if looked_up.size < t.size:
            looked_up = np.empty(t.size, dtype=table.dtype)
        hits = _lookup(a.ambient, table, t.ravel(), out=looked_up[: t.size])
        pairs += int(hits.sum(dtype=total))
    if dense:
        from ._words import column_autocorrelations  # loaded only for dense columns

        # in int64, so that `rows @ sizes` cannot wrap in the table's dtype
        pad = _lag_pad(a.ambient)
        sizes = table[pad : pad + N].astype(np.int64)
        for block, c in column_autocorrelations(dense, a.ambient):
            pairs += _lagged_total(sizes, [i for i, _ in block], c, a.ambient.kind == TORUS)
    # the pairs include each column's k trivial pairs d = 0, which meet its
    # own k points, except in the `lone` skipped columns of one point
    return CornerCount(trivial=trivial, nontrivial=pairs - trivial + lone)


def column_power(a: GridSet) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(cols, |rfft(rows, axis=1)|^2, work) for consecutive blocks of the
    nonempty torus columns cols, in increasing order, where rows are their
    indicator rows; grid sets are embedded into the torus of side 2n first.
    Rows are real, so each power spectrum holds the N // 2 + 1 frequencies
    0..N // 2 and P(a) = P(N - a) gives the rest.  Empty columns have a
    zero spectrum and are never transformed.

    Every block is written into `work`, one float64 buffer of two rows
    reused across blocks: work[0] holds the indicator rows and then the
    power, work[1] their transform.  So the power is a view that the next
    block, or `autocorrelation_total` on this one, overwrites.
    """
    a = fft_torus(a)
    N = a.ambient.size
    h = N // 2 + 1
    nonempty = a.occupied_columns()[0]
    step = max(1, min(nonempty.size, _BLOCK_ENTRIES // N))
    work = np.empty((2, step * 2 * h))  # 2h >= N + 1 floats a row
    for k in range(0, nonempty.size, step):
        cols = nonempty[k : k + step]
        b = cols.size
        rows = a.indicator_matrix(cols=cols, out=work[0, : b * N].reshape(b, N))
        spectrum = np.fft.rfft(rows, axis=1, out=_complex_rows(work[1], b, h))
        power = np.abs(spectrum, out=work[0, : b * h].reshape(b, h))
        yield cols, np.square(power, out=power), work


def _complex_rows(buf: np.ndarray, rows: int, width: int) -> np.ndarray:
    """The front of a 1-D float64 buffer as a rows x width complex array."""
    return buf[: 2 * rows * width].view(complex).reshape(rows, width)


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


def autocorrelation_total(
    sizes: np.ndarray, cols: np.ndarray, power: np.ndarray, work: np.ndarray
) -> int:
    """sum_{x, d} c_x(d) |A_{x+d}| over the columns x of one `column_power`
    block (cols, power, work), where `sizes` holds the N column sizes as
    float64 and x + d is taken mod N.  Each cyclic autocorrelation c_x is
    the inverse transform of its power spectrum, rounded to the nearest
    integer; a residue above FFT_RESIDUE_TOL raises PrecisionError.  The
    rounded rows go to `_lagged_total`, the naive count's kernel for its
    dense columns.  The block's `work` buffer takes the power as a complex
    input, then the transform, then its rounding, so `power` is
    overwritten."""
    N, b = sizes.size, cols.size
    spectrum = _complex_rows(work[1], b, power.shape[1])
    spectrum[...] = power  # a complex input, which irfft does not copy
    corr = np.fft.irfft(spectrum, n=N, axis=1, out=work[0, : b * N].reshape(b, N))
    rounded = np.rint(corr, out=work[1, : b * N].reshape(b, N))
    np.subtract(corr, rounded, out=corr)
    residue = float(np.abs(corr, out=corr).max())
    if residue > FFT_RESIDUE_TOL:
        raise PrecisionError(
            f"autocorrelation rounding residue {residue:.3g} exceeds "
            f"{FFT_RESIDUE_TOL}; N={N} too large for the float path"
        )
    # a row's terms are integers summing to at most N^3 < 2^53, so each
    # float64 dot product is exact
    return _lagged_total(sizes, cols.tolist(), rounded, torus=True)


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
    lone = int(np.count_nonzero(a.occupied_columns()[1] == 1))
    return CornerCount(trivial=len(a), nontrivial=total + lone - len(a))
