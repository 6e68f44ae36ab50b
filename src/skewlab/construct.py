"""Constructions of large skew-corner-free sets.

Two families: digit-product sets over a small torus base set, and
Behrend-type sphere sets: pairs (x, y) in the box B = [m]^d x [m]^d with
||x||^2 pinned to r and <x, y> pinned to t, pushed into [n]^2 by the
base-(2m) digit embedding.  A Pythagoras argument shows each such pair set
is skew-corner-free, and a pigeonhole over (r, t) picks a large one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .ambient import grid, torus
from .core import MAX_POINTS, GridSet, _from_keys
from .errors import CapabilityError, FalsificationError, ParameterError
from .verify import find_skew_corner, sample_skew_corner

# Inner products per block of the sphere scan (1 MiB of float64), rounded
# in place in one reused buffer.
_SCAN_CHUNK = 1 << 17

# Largest generating-function table `_sphere_params` allocates (32 MiB).
MAX_SERIES_ENTRIES = 1 << 22

# `verify_free` runs the exhaustive check up to this column-pair work
# sum_x |A_x|^2 and VERIFY_PROBES random pair probes above it.
VERIFY_EXHAUSTIVE_MAX = 20_000_000
VERIFY_PROBES = 10**6

# How a construction's freeness was checked, as its reports say.
EXHAUSTIVE = "exhaustive"
SAMPLED = "sampled"
SKIPPED = "skipped"


@dataclass(frozen=True)
class SphereParams:
    """Parameters of a sphere pair set: box [m]^d, squared radius r,
    inner-product value t."""

    m: int
    d: int
    r: int
    t: int


@dataclass(frozen=True)
class BaseSet:
    """A skew-corner-free subset of (Z/bZ)^2 used as a digit alphabet."""

    b: int
    points: GridSet

    def __post_init__(self) -> None:
        if self.points.ambient != torus(self.b):
            raise ParameterError(
                f"base set must live on the torus of side {self.b}"
            )
        w = find_skew_corner(self.points)
        if w is not None:
            raise ParameterError(f"base set is not skew-corner-free: {w}")

    def __len__(self) -> int:
        return len(self.points)


def integer_root(n: int, d: int) -> int:
    """Largest r >= 0 with r**d <= n (exact integer arithmetic)."""
    if n < 0 or d < 1:
        raise ParameterError("integer_root needs n >= 0, d >= 1")
    if d == 1 or n < 2:
        return n
    r = int(round(n ** (1.0 / d)))
    while r**d > n:
        r -= 1
    while (r + 1) ** d <= n:
        r += 1
    return r


def _box_points(m: int, d: int) -> np.ndarray:
    """All points of [m]^d as an (m^d, d) int array, lexicographic order."""
    return np.indices((m,) * d, dtype=np.int64).reshape(d, -1).T + 1


def _embed_many(pts: np.ndarray, m: int) -> np.ndarray:
    """Base-(2m) digit encoding of points of [m]^d (rows of `pts`) into
    [(2m)^d]: phi(x) = 1 + sum_j (2m)^(j-1) (x_j - 1).  On [m]^d this is a
    Freiman isomorphism: digit sums never carry, so additive relations are
    preserved in both directions."""
    d = pts.shape[1]
    weights = (2 * m) ** np.arange(d, dtype=np.int64)
    return 1 + (pts - 1) @ weights


def _series(
    terms: Sequence[tuple[int, ...]],
    d: int,
    shape: tuple[int, ...],
    need: Sequence[int] = (),
) -> np.ndarray:
    """Coefficients of (sum_{e in terms} z^e)^d truncated to `shape`, by d
    rounds of exact int64 shifted adds.  Only the entries at or above
    `need` on every axis (all entries by default) are exact: round k skips
    those too far below `need` to reach it in the d - k rounds left."""
    if math.prod(shape) > MAX_SERIES_ENTRIES:
        raise CapabilityError(
            f"series table of shape {shape} exceeds {MAX_SERIES_ENTRIES} entries"
        )
    top = np.max(terms, axis=0)
    need = np.asarray(need or (0,) * len(shape))
    out = np.zeros(shape, dtype=np.int64)
    out[(0,) * len(shape)] = 1
    for k in range(1, d + 1):
        lim = np.minimum(shape, k * top + 1)  # support after k rounds
        low = np.maximum(need - (d - k) * top, 0)
        prev, out = out, np.zeros(shape, dtype=np.int64)
        for e in terms:
            start = np.maximum(e, low)
            if (start < lim).all():
                out[tuple(map(slice, start, lim))] += prev[
                    tuple(map(slice, start - e, lim - e))
                ]
    return out


def _sphere_params(n: int, bi: bool) -> tuple[SphereParams, int]:
    """(r, t) and the pair count at the balanced (m, d), as first maxima of
    generating functions over a, b in [m]: plain takes [u^r v^t] of
    (sum u^(a^2) v^(ab))^d; bi takes r from (sum u^(a^2))^d, then t from
    [u^r w^r v^t] of (sum u^(a^2) w^(b^2) v^(ab))^d truncated to (r+1)^3,
    as t <= r by Cauchy-Schwarz."""
    m, d = _choose_dimensions(n)
    if m ** (2 * d) >= 2**63:
        raise CapabilityError(f"n={n}: pair counts up to {m}^{2 * d} overflow int64")
    ab = [(a, b) for a in range(1, m + 1) for b in range(1, m + 1)]
    if bi:
        norms = _series([(a * a,) for a in range(1, m + 1)], d, (d * m * m + 1,))
        r = int(np.argmax(norms))
        table = _series(
            [(a * a, b * b, a * b) for a, b in ab], d, (r + 1,) * 3, need=(r, r, 0)
        )[r, r]
        t = int(np.argmax(table))
        count = table[t]
    else:
        table = _series([(a * a, a * b) for a, b in ab], d, (d * m * m + 1,) * 2)
        r, t = (int(v) for v in np.unravel_index(np.argmax(table), table.shape))
        count = table[r, t]
    return SphereParams(m=m, d=d, r=r, t=t), int(count)


def _sphere_pairs(
    box: np.ndarray, r: int, t: int, bi: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The pairs at (r, t) as two arrays of row indices into the `box`
    points, in (x, y) lexicographic order: the x on the sphere ||x||^2 = r
    scanned in blocks of _SCAN_CHUNK products against the box (or, if
    `bi`, against the same sphere)."""
    rows = np.flatnonzero((box * box).sum(axis=1) == r)
    cols = rows if bi else np.arange(len(box))
    xf = box.astype(np.float64)
    yt = xf[cols].T
    block = max(1, _SCAN_CHUNK // max(1, len(cols)))
    buf = np.empty((min(block, len(rows)), len(cols)))
    out_i, out_j = [rows[:0]], [cols[:0]]
    for s in range(0, len(rows), block):
        chunk = rows[s : s + block]
        dots = np.matmul(xf[chunk], yt, out=buf[: len(chunk)])
        ii, jj = np.nonzero(np.rint(dots, out=dots) == t)
        out_i.append(chunk[ii])
        out_j.append(cols[jj])
    return np.concatenate(out_i), np.concatenate(out_j)


def _choose_dimensions(n: int) -> tuple[int, int]:
    if n < 2:
        raise ParameterError("sphere construction needs n >= 2")
    d = math.isqrt(int(2 * math.log2(n)))
    if d < 1:
        raise ParameterError("sphere construction needs n >= 2")
    m = integer_root(n, d) // 2
    if m < 1:
        raise ParameterError(
            f"degenerate n={n}: box side would be 0 at dimension d={d}"
        )
    return m, d


def sphere_construction(n: int, bi: bool = False) -> tuple[GridSet, SphereParams]:
    """Largest sphere pair set at the balanced choice of (m, d), embedded
    into [n]^2 by the digit map of `_embed_many`.

    Picks (r, t) by generating function (see `_sphere_params`), ties broken
    by smallest (r, t); the pigeonhole guarantees the winner has at least
    m^(2d-4)/d^2 pairs.  With `bi` both points lie on the same sphere: the
    most popular squared radius r (at least m^(d-2)/d box points), then the
    most popular inner product on it (at least m^(2d-6)/d^3 pairs).  That
    pair set is symmetric under transposition, so it is
    bi-skew-corner-free.  Raises FalsificationError if the embedding loses
    a pair.
    """
    params, count = _sphere_params(n, bi)
    if count > MAX_POINTS:
        raise ParameterError(
            f"sphere set would have {count} points; refusing to materialize"
        )
    amb = grid(n)  # refuses a side past MAX_SIDE before the pairs are found
    box = _box_points(params.m, params.d)
    ii, jj = _sphere_pairs(box, params.r, params.t, bi)
    phi = _embed_many(box, params.m)  # one key per box point
    out = GridSet.from_arrays(phi[ii], phi[jj], amb)
    if len(out) != count:
        raise FalsificationError(
            "digit embedding collapsed sphere pairs; phi not injective"
        )
    return out, params


def product_exponent(b: int, n: int) -> int:
    """The digit count k = floor(log_b n) of the product construction."""
    k = 0
    while b ** (k + 1) <= n:
        k += 1
    return k


def product_verification(n: int, verify: bool = False) -> str:
    """How `product_construction` checks its output: exhaustively when
    n <= 64 or `verify` forces it, otherwise not at all."""
    return EXHAUSTIVE if verify or n <= 64 else SKIPPED


def product_construction(base: BaseSet, n: int, verify: bool = False) -> GridSet:
    """Digit-product set: all (x, y) in [b^k]^2 whose base-b digit pairs
    (of x-1 and y-1) all lie in the base set, with k = floor(log_b n).

    Output size is exactly len(base)^k.  Freeness of the output is checked
    when n <= 64 or `verify` forces it.
    """
    b = base.b
    if b < 2:
        raise ParameterError("product construction needs base modulus >= 2")
    k = product_exponent(b, n)
    if k == 0:
        raise ParameterError(f"n={n} is below the base modulus {b}")
    digits = np.array(sorted(base.points.points()), dtype=np.int64)
    s = len(digits)
    if s**k > MAX_POINTS:
        raise ParameterError(
            f"product set would have {s}^{k} points; refusing to materialize"
        )
    amb = grid(n)  # refuses a side past MAX_SIDE before the keys are built
    # the keys (x - 1) * n + (y - 1) of the set, one digit per step, newest
    # digit fastest: memory stays O(s^k), and x, y <= b^k <= n by design.
    # Each round writes a fresh 1-D array, which owns its data and so
    # becomes the set's ys without a copy.
    step = digits[:, 0] * n + digits[:, 1]
    key = np.zeros(1, dtype=np.int64)
    for j in range(k):
        nxt = np.empty(key.size * s, dtype=np.int64)
        np.add(key[:, None], b**j * step, out=nxt.reshape(key.size, s))
        key = nxt
    out = _from_keys(amb, key)
    if len(out) != len(base) ** k:
        raise FalsificationError("digit tuples collided; product size wrong")
    if product_verification(n, verify) == EXHAUSTIVE:
        w = find_skew_corner(out)
        if w is not None:
            raise FalsificationError(f"product construction not free: {w}")
    return out


def free_verification(a: GridSet) -> str:
    """How `verify_free` checks `a`: exhaustively when the column-pair work
    sum_x |A_x|^2 is at most VERIFY_EXHAUSTIVE_MAX, otherwise by sampling."""
    k = a.occupied_columns()[1]
    work = int(k @ k)
    return EXHAUSTIVE if work <= VERIFY_EXHAUSTIVE_MAX else SAMPLED


def verify_free(a: GridSet, probes: int = VERIFY_PROBES, seed: int = 0) -> bool:
    """Freeness check sized to the input (see `free_verification`):
    exhaustive when the column-pair work is small, otherwise `probes`
    random pair probes.

    Returns True when no witness was found; a found witness raises
    FalsificationError (constructions are proven free, so this is a bug
    or a falsification, never a routine outcome).
    """
    if free_verification(a) == EXHAUSTIVE:
        w = find_skew_corner(a)
        if w is not None:
            raise FalsificationError(f"construction contains a skew corner: {w}")
        return True
    hit = sample_skew_corner(a, probes, seed)
    if hit is not None:
        raise FalsificationError(
            f"construction contains a skew corner through columns {hit[0]} and {hit[1]}"
        )
    return True


@dataclass(frozen=True)
class GrowthRow:
    n: int
    size: int
    density: float
    fitted_c: float
    params: SphereParams


def fitted_c(n: int, size: int) -> float:
    """The exponent c in size = n^2 2^(-c sqrt(log2 n)):
    (2 log2 n - log2 size) / sqrt(log2 n)."""
    lg = math.log2(n)
    return (2 * lg - math.log2(size)) / math.sqrt(lg)


def growth_table(n_list: Iterable[int], bi: bool = False) -> list[GrowthRow]:
    """Sphere set sizes over `n_list`, read off the generating functions
    (see `_sphere_params`) without building any set, with the fitted
    exponent (see `fitted_c`)."""
    rows = []
    for n in n_list:
        params, size = _sphere_params(n, bi)
        rows.append(GrowthRow(n, size, size / n**2, fitted_c(n, size), params))
    return rows
