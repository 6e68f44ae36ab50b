"""Skew-corner detection and exact counting (naive oracle and FFT backend).

Counts are tuple counts over (x, y, y', d): the configuration is
(x, y), (x, y+d), (x+d, y'), trivial when d = 0.  On a torus of side N the
total equals N^4 times the trilinear counting form evaluated at the
indicator; on a grid all arithmetic stays in Z (no wraparound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .core import GRID, TORUS, GridSet, Witness, embed_torus, transpose
from .errors import CapabilityError, ParameterError, PrecisionError

# Autocorrelation entries are integers <= N, so nearest-integer rounding of
# the float FFT path is exact as long as the residue stays tiny.
FFT_RESIDUE_TOL = 1e-3

# The FFT backend materializes dense N x N arrays; past this side length
# (embedded grids double n) the naive counter is the right tool.
MAX_FFT_SIDE = 4096


@dataclass(frozen=True)
class CornerCount:
    """Tuple counts split into trivial (d = 0) and nontrivial parts."""

    trivial: int
    nontrivial: int

    @property
    def total(self) -> int:
        return self.trivial + self.nontrivial


PairDraw = Callable[[int, int], Optional[tuple[np.ndarray, np.ndarray]]]


def pair_targets(
    a: GridSet, draw: Optional[PairDraw] = None
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Map the pair differences of each column to the column they point at.

    Walks the columns x = i + lo holding at least two points (a lone point
    has only the trivial pair d = 0) and yields (i, ys, d, t).  `d` holds
    the differences ys[j2] - ys[j1], over all position pairs as a k x k
    array, or over the pairs (j1, j2) that `draw(i, k)` returns, skipping
    the column when it returns None.  `t` holds the index of column x + d,
    wrapped on a torus and -1 where x + d leaves the grid, so it can index
    a per-column array padded with one trailing "no column" entry.
    """
    size = a.ambient.size
    on_torus = a.ambient.kind == TORUS
    for i, ys in a.nonempty_columns():
        if ys.size < 2:
            continue
        if draw is None:
            d = ys[None, :] - ys[:, None]
        else:
            pairs = draw(i, ys.size)
            if pairs is None:
                continue
            d = ys[pairs[1]] - ys[pairs[0]]
        t = i + d
        if on_torus:
            t %= size
        else:
            t[(t < 0) | (t >= size)] = -1
        yield i, ys, d, t


def find_skew_corner(a: GridSet) -> Optional[Witness]:
    """Return a nontrivial skew-corner witness, or None if the set is free.

    For each column x, every nonzero difference d of a pair in the column
    is checked against the occupancy of column x+d.
    """
    occ = np.append(a.column_sizes() > 0, False)
    for i, ys, d, t in pair_targets(a):
        hit = occ[t] & (d != 0)
        if hit.any():
            j1, j2 = np.unravel_index(int(np.argmax(hit)), hit.shape)
            return Witness(
                x=i + a.ambient.lo,
                y=int(ys[j1]),
                y_prime=a.column(int(t[j1, j2]) + a.ambient.lo)[0],
                d=int(d[j1, j2]),
            )
    return None


def is_skew_corner_free(a: GridSet) -> bool:
    return find_skew_corner(a) is None


def is_bi_skew_corner_free(a: GridSet) -> bool:
    """Freeness in both coordinate orientations (the set and its transpose)."""
    return find_skew_corner(a) is None and find_skew_corner(transpose(a)) is None


def count_skew_corners_naive(a: GridSet) -> CornerCount:
    """Exact reference count by direct enumeration of per-column pairs.

    O(sum_x |A_x|^2 + size^2); 64-bit integer arithmetic throughout.
    """
    sizes = np.append(a.column_sizes(), 0)
    nontrivial = 0
    for _, ys, _, t in pair_targets(a):
        # the k trivial pairs d = 0 each meet their own column of k points
        nontrivial += int(sizes[t].sum()) - ys.size**2
    return CornerCount(trivial=int((sizes * sizes).sum()), nontrivial=nontrivial)


def count_skew_corners_fft(a: GridSet) -> CornerCount:
    """FFT-accelerated count; equals the naive oracle exactly.

    Grid inputs are embedded into the torus of side 2n first, so the counts
    refer to the torus.  Each column's cyclic autocorrelation is obtained by
    a length-N FFT and rounded to the nearest integer; a residue above
    FFT_RESIDUE_TOL raises PrecisionError.
    """
    if a.ambient.kind == GRID:
        a = embed_torus(a)
    N = a.ambient.size
    if N > MAX_FFT_SIDE:
        raise CapabilityError(
            f"dense FFT path needs an N x N array; N={N} exceeds "
            f"{MAX_FFT_SIDE}, use count_skew_corners_naive instead"
        )
    sizes = a.column_sizes()
    trivial = int((sizes * sizes).sum())
    if len(a) == 0:
        return CornerCount(0, 0)
    m = a.indicator_matrix()
    spec = np.fft.fft(m, axis=1)
    corr = np.fft.ifft(np.abs(spec) ** 2, axis=1).real
    corr_int = np.rint(corr)
    residue = float(np.abs(corr - corr_int).max())
    if residue > FFT_RESIDUE_TOL:
        raise PrecisionError(
            f"autocorrelation rounding residue {residue:.3g} exceeds "
            f"{FFT_RESIDUE_TOL}; N={N} too large for the float path"
        )
    # total = sum_{x,d} c_x(d) * |A_{(x+d) mod N}|
    idx = (np.arange(N)[:, None] + np.arange(N)[None, :]) % N
    total = int((corr_int.astype(np.int64) * sizes[idx]).sum())
    return CornerCount(trivial=trivial, nontrivial=total - trivial)


def count_corners(a: GridSet) -> CornerCount:
    """Exact count of corner tuples (x, y, d): (x,y), (x+d,y), (x,y+d) in A.

    Torus ambient only.  The d = 0 tuples are reported as `trivial`.
    """
    if a.ambient.kind != TORUS:
        raise ParameterError("count_corners expects a torus-ambient set")
    N = a.ambient.size
    if N > 1024:
        raise CapabilityError(
            f"corner counting is cubic in the side; N={N} exceeds 1024"
        )
    trivial = len(a)
    if trivial == 0:
        return CornerCount(0, 0)
    m = a.indicator_matrix(dtype=np.int64)
    total = 0
    for d in range(N):
        total += int((m * np.roll(m, -d, axis=0) * np.roll(m, -d, axis=1)).sum())
    return CornerCount(trivial=trivial, nontrivial=total - trivial)
