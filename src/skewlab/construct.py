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
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import GridSet, grid, torus
from .errors import FalsificationError, ParameterError
from .verify import find_skew_corner, lagged_table, pair_targets

# Row block size for the inner-product scans, in matrix entries.
_SCAN_CHUNK = 4_000_000

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


def freiman_embed(x: Sequence[int], m: int, d: int) -> int:
    """Base-(2m) digit encoding of a point of [m]^d into [(2m)^d].

    phi(x) = 1 + sum_j (2m)^(j-1) (x_j - 1).  Restricted to [m]^d this is a
    Freiman isomorphism: digit sums never carry, so additive relations are
    preserved in both directions.
    """
    if len(x) != d:
        raise ParameterError(f"expected {d} coordinates, got {len(x)}")
    for v in x:
        if not 1 <= v <= m:
            raise ParameterError(f"coordinate {v} outside [1, {m}]")
    return 1 + sum((2 * m) ** j * (x[j] - 1) for j in range(d))


def _box_points(m: int, d: int) -> np.ndarray:
    """All points of [m]^d as an (m^d, d) int array, lexicographic order."""
    grids = np.meshgrid(*([np.arange(1, m + 1)] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)


def _embed_many(pts: np.ndarray, m: int) -> np.ndarray:
    d = pts.shape[1]
    weights = (2 * m) ** np.arange(d, dtype=np.int64)
    return 1 + (pts - 1) @ weights


def _inner_products(
    rows: np.ndarray, box: np.ndarray, cols: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(chunk, P) for consecutive blocks `chunk` of `rows`, with
    P[i, j] = <box[chunk[i]], box[cols[j]]>."""
    xf = box.astype(np.float64)
    block = max(1, _SCAN_CHUNK // max(1, len(cols)))
    for s in range(0, len(rows), block):
        chunk = rows[s : s + block]
        yield chunk, np.rint(xf[chunk] @ xf[cols].T).astype(np.int64)


def _inner_product_counts(
    rows: np.ndarray, box: np.ndarray, cols: np.ndarray, tmax: int
) -> np.ndarray:
    """Histogram of <x, y> over x in box[rows], y in box[cols]."""
    counts = np.zeros(tmax + 1, dtype=np.int64)
    for _, sub in _inner_products(rows, box, cols):
        counts += np.bincount(sub.ravel(), minlength=tmax + 1)
    return counts


def _pairs_with_product(
    rows: np.ndarray, box: np.ndarray, cols: np.ndarray, t: int
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i in rows, j in cols) with <box[i], box[j]> = t."""
    empty = np.array([], dtype=np.int64)
    out_i, out_j = [empty], [empty]
    for chunk, sub in _inner_products(rows, box, cols):
        ii, jj = np.nonzero(sub == t)
        out_i.append(chunk[ii])
        out_j.append(cols[jj])
    return np.concatenate(out_i), np.concatenate(out_j)


def sphere_family(
    m: int, d: int, r: int, t: int, bi: bool = False
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Enumerate the pair set at (r, t): x on the sphere ||x||^2 = r (and y
    too, if `bi`), with <x, y> = t.  Over all (r, t) in [d m^2]^2 the plain
    family partitions [m]^d x [m]^d.
    """
    if m < 1 or d < 1:
        raise ParameterError("need m >= 1 and d >= 1")
    if not (1 <= r <= d * m * m and 1 <= t <= d * m * m):
        raise ParameterError(f"(r, t) = ({r}, {t}) outside [1, {d * m * m}]^2")
    box = _box_points(m, d)
    norms = (box * box).sum(axis=1)
    rows = np.flatnonzero(norms == r)
    cols = rows if bi else np.arange(len(box))
    ii, jj = _pairs_with_product(rows, box, cols, t)
    return [
        (tuple(int(v) for v in box[i]), tuple(int(v) for v in box[j]))
        for i, j in zip(ii, jj)
    ]


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


def sphere_construction(n: int) -> tuple[GridSet, SphereParams]:
    """Largest sphere pair set at the balanced choice of (m, d), embedded
    into [n]^2.

    Scans all realized (r, t); the pigeonhole guarantees the winner has at
    least m^(2d-4)/d^2 pairs.  Ties broken by smallest (r, t).
    """
    m, d = _choose_dimensions(n)
    box = _box_points(m, d)
    norms = (box * box).sum(axis=1)
    tmax = d * m * m
    best = (0, -1, -1)  # (count, r, t)
    all_cols = np.arange(len(box))
    for r in np.unique(norms):
        rows = np.flatnonzero(norms == r)
        counts = _inner_product_counts(rows, box, all_cols, tmax)
        t = int(np.argmax(counts))
        c = int(counts[t])
        if c > best[0]:
            best = (c, int(r), t)
    count, r, t = best
    params = SphereParams(m=m, d=d, r=r, t=t)
    return _sphere_set(n, params, box, np.flatnonzero(norms == r), all_cols, count)


def _sphere_set(
    n: int, params: SphereParams, box: np.ndarray,
    rows: np.ndarray, cols: np.ndarray, count: int,
) -> tuple[GridSet, SphereParams]:
    """Embed the pairs of box[rows] x box[cols] with inner product t into
    [n]^2 and check that all `count` of them survive the embedding."""
    ii, jj = _pairs_with_product(rows, box, cols, params.t)
    m = params.m
    out = GridSet.from_arrays(_embed_many(box[ii], m), _embed_many(box[jj], m), grid(n))
    if len(out) != count:
        raise FalsificationError(
            "digit embedding collapsed sphere pairs; phi not injective"
        )
    return out, params


def bi_sphere_construction(n: int) -> tuple[GridSet, SphereParams]:
    """Sphere construction with both points pinned to the same sphere.

    Two-stage pigeonhole: first the most popular squared radius r (at least
    m^(d-2)/d box points), then the most popular inner product among pairs
    on that sphere (at least m^(2d-6)/d^3 pairs).  The pair set is symmetric
    under transposition, so it is bi-skew-corner-free.
    """
    m, d = _choose_dimensions(n)
    box = _box_points(m, d)
    norms = (box * box).sum(axis=1)
    values, sizes = np.unique(norms, return_counts=True)
    r = int(values[np.argmax(sizes)])  # first max: smallest r wins ties
    rows = np.flatnonzero(norms == r)
    tmax = d * m * m
    counts = _inner_product_counts(rows, box, rows, tmax)
    t = int(np.argmax(counts))
    params = SphereParams(m=m, d=d, r=r, t=t)
    return _sphere_set(n, params, box, rows, rows, int(counts[t]))


def product_exponent(b: int, n: int) -> int:
    """The digit count k = floor(log_b n) of the product construction."""
    k = 0
    while b ** (k + 1) <= n:
        k += 1
    return k


def product_verification(n: int, verify: Optional[bool] = None) -> str:
    """How `product_construction` checks its output: exhaustively when
    n <= 64 or `verify` forces it, otherwise not at all."""
    return EXHAUSTIVE if verify or (verify is None and n <= 64) else SKIPPED


def product_construction(
    base: BaseSet, n: int, verify: Optional[bool] = None
) -> GridSet:
    """Digit-product set: all (x, y) in [b^k]^2 whose base-b digit pairs
    (of x-1 and y-1) all lie in the base set, with k = floor(log_b n).

    Output size is exactly len(base)^k.  Freeness of the output is checked
    when n <= 64 (or when `verify=True` forces it).
    """
    b = base.b
    if b < 2:
        raise ParameterError("product construction needs base modulus >= 2")
    k = product_exponent(b, n)
    if k == 0:
        raise ParameterError(f"n={n} is below the base modulus {b}")
    digits = np.array(sorted(base.points.points()), dtype=np.int64)
    s = len(digits)
    if s**k > 50_000_000:
        raise ParameterError(
            f"product set would have {s}^{k} points; refusing to materialize"
        )
    # choice[j] holds the j-th digit index of every tuple in S^k
    choice = np.indices((s,) * k).reshape(k, -1)
    weights = b ** np.arange(k, dtype=np.int64)
    xs = 1 + (digits[choice, 0] * weights[:, None]).sum(axis=0)
    ys = 1 + (digits[choice, 1] * weights[:, None]).sum(axis=0)
    out = GridSet.from_arrays(xs, ys, grid(n))
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
    sizes = a.column_sizes()
    work = int((sizes * sizes).sum())
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
    sizes = a.column_sizes()
    rich = np.flatnonzero(sizes >= 2)
    if rich.size == 0:
        return True
    rng = np.random.default_rng(seed)
    weights = sizes[rich] ** 2
    pick = rng.choice(rich, size=probes, p=weights / weights.sum())
    reps = dict(zip(*(v.tolist() for v in np.unique(pick, return_counts=True))))

    def draw(i: int, k: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
        if i not in reps:
            return None
        return rng.integers(0, k, size=reps[i]), rng.integers(0, k, size=reps[i])

    size, lo = a.ambient.size, a.ambient.lo
    occ = lagged_table(a, sizes > 0)
    for i, _, _, t in pair_targets(a, draw):
        hit = occ[t] & (t != i + size - 1)
        if hit.any():
            x_prime = lagged_table(a, np.arange(lo, lo + size))[t[hit][0]]
            raise FalsificationError(
                f"construction contains a skew corner through columns "
                f"{i + lo} and {x_prime}"
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
    """Run the sphere construction over `n_list` and fit the exponent
    (see `fitted_c`)."""
    rows = []
    build = bi_sphere_construction if bi else sphere_construction
    for n in n_list:
        a, params = build(n)
        size = len(a)
        rows.append(
            GrowthRow(
                n=n, size=size, density=size / n**2,
                fitted_c=fitted_c(n, size), params=params,
            )
        )
    return rows
