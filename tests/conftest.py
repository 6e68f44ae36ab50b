"""Shared fixtures and independent brute-force oracles.

The oracles here are deliberately naive (explicit tuple loops, no FFT, no
pruning) so library results are checked against a second, independent
route."""

from __future__ import annotations

import functools
import itertools
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import skewlab as sl
from skewlab.construct import _box_points, _choose_dimensions

# The bi-skew-corner-free example set on the torus of side 6.
EIGHT_POINTS = [(0, 0), (0, 1), (2, 0), (2, 3), (3, 1), (3, 3), (3, 5), (4, 0)]

# Committed skew-corner-free witnesses, one `<kind><side>-<count>.txt` each.
DATA = Path(__file__).parent / "data"


@pytest.fixture
def eight_point_set() -> sl.GridSet:
    return sl.make_grid_set(EIGHT_POINTS, sl.torus(6))


@contextmanager
def peak_memory():
    """Trace Python allocations inside the block; on exit the yielded
    object's `bytes` holds their peak."""
    peak = SimpleNamespace(bytes=0)
    tracemalloc.start()
    try:
        yield peak
    finally:
        peak.bytes = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


def rand_torus_set(rng: np.random.Generator, N: int, density: float) -> sl.GridSet:
    mask = rng.random((N, N)) < density
    xs, ys = np.nonzero(mask)
    return sl.GridSet.from_arrays(xs, ys, sl.torus(N))


def rand_grid_set(rng: np.random.Generator, n: int, density: float) -> sl.GridSet:
    mask = rng.random((n, n)) < density
    xs, ys = np.nonzero(mask)
    return sl.GridSet.from_arrays(xs + 1, ys + 1, sl.grid(n))


def brute_skew_tuples(a: sl.GridSet) -> tuple[int, int]:
    """(trivial, nontrivial) skew-corner tuple counts by quadruple loop."""
    size = a.ambient.size
    on_torus = a.ambient.kind == "torus"
    lo = a.ambient.lo
    pts = set(a.points())
    rng_vals = range(lo, lo + size)
    trivial = nontrivial = 0
    for x in rng_vals:
        for y in rng_vals:
            if (x, y) not in pts:
                continue
            for d in range(-size + 1, size) if not on_torus else range(size):
                if on_torus:
                    p2 = (x, (y + d) % size)
                    x3 = (x + d) % size
                else:
                    if not (lo <= y + d < lo + size and lo <= x + d < lo + size):
                        continue
                    p2 = (x, y + d)
                    x3 = x + d
                if p2 not in pts:
                    continue
                for yp in rng_vals:
                    if (x3, yp) in pts:
                        if (d % size if on_torus else d) == 0:
                            trivial += 1
                        else:
                            nontrivial += 1
    return trivial, nontrivial


def wide_sparse_grid_set(n: int, seed: int) -> tuple[sl.GridSet, dict[int, list[int]]]:
    """About 6000 points in 2000 random columns of the grid of side n, and
    its columns {x: sorted ys} built from the drawn coordinates rather
    than from the set."""
    rng = np.random.default_rng(seed)
    xs = np.repeat(rng.integers(1, n + 1, 2000), 3)
    ys = rng.integers(1, n + 1, xs.size)
    cols: dict[int, set[int]] = {}
    for x, y in zip(xs.tolist(), ys.tolist()):
        cols.setdefault(x, set()).add(y)
    return sl.GridSet.from_arrays(xs, ys, sl.grid(n)), {x: sorted(c) for x, c in cols.items()}


def column_skew_tuples(cols: dict[int, list[int]]) -> tuple[int, int]:
    """(trivial, nontrivial) skew-corner tuple counts of a grid set given
    by its nonempty columns {x: ys}, by a loop over each column's pairs:
    `brute_skew_tuples` loops over the whole ambient, too long for a wide
    grid."""
    trivial = sum(len(c) ** 2 for c in cols.values())
    total = sum(
        len(cols.get(x + y2 - y1, ()))
        for x, c in cols.items()
        for y1, y2 in itertools.product(c, c)
    )
    return trivial, total - trivial


def brute_first_corner(a: sl.GridSet):
    """The first skew corner in (column x, j1, j2) order, where j1, j2 run
    over the positions of the column's sorted y-values, as a Witness whose
    y' is the lowest point of column x + d; None if the set is free."""
    size, lo = a.ambient.size, a.ambient.lo
    for x in range(lo, lo + size):
        col = a.column(x)
        for y1 in col:
            for y2 in col:
                d = y2 - y1
                x3 = x + d
                if a.ambient.kind == "torus":
                    x3 %= size
                if d != 0 and lo <= x3 < lo + size and a.column(x3):
                    return sl.Witness(x=x, y=y1, y_prime=a.column(x3)[0], d=d)
    return None


def brute_has_skew_corner(a: sl.GridSet) -> bool:
    return brute_skew_tuples(a)[1] > 0


def brute_corner_tuples(a: sl.GridSet) -> tuple[int, int]:
    """(d=0, d!=0) corner tuple counts (x,y), (x+d,y), (x,y+d)."""
    N = a.ambient.size
    pts = set(a.points())
    trivial = nontrivial = 0
    for x, y in pts:
        for d in range(N):
            if ((x + d) % N, y) in pts and (x, (y + d) % N) in pts:
                if d == 0:
                    trivial += 1
                else:
                    nontrivial += 1
    return trivial, nontrivial


def brute_max_free(n: int, torus: bool, bi: bool = False) -> int:
    """Maximum size over all subsets, by full enumeration of the power set.

    Every skew corner of the ambient (and, for `bi`, its transpose) is a
    3-cell bitmask over the n*n cells, and a subset is free when it holds
    none of them in full; all 2^(n*n) subsets are tested at once."""

    def bit(x: int, y: int) -> int:
        return 1 << (x * n + y)

    corners = set()
    for x, y, y3 in itertools.product(range(n), repeat=3):
        for d in range(1 - n, n):
            x3, y2 = x + d, y + d
            if torus:
                x3, y2 = x3 % n, y2 % n
            if d == 0 or not (0 <= x3 < n and 0 <= y2 < n):
                continue
            corners.add(bit(x, y) | bit(x, y2) | bit(x3, y3))
            if bi:
                corners.add(bit(y, x) | bit(y2, x) | bit(y3, x3))
    masks = np.arange(1 << (n * n), dtype=np.int64)
    free = np.ones(masks.size, dtype=bool)
    for c in corners:
        free &= (masks & c) != c
    return int(np.bitwise_count(masks[free]).max())


def reference_search(
    ambient: sl.Ambient, budget: int = 10**12, mode: str = "skew", symmetry: bool = True
) -> SimpleNamespace:
    """The branch and bound tried node by node: every candidate mask of a
    column, rejected or not, is drawn from the pool and counted in turn.

    The library skips rejected candidates by arithmetic; this is the loop
    it must agree with on the optimum, the node count, the budget cut-off
    and the witness."""
    from skewlab.search import _diffs, _masks, _shift

    size = ambient.size
    on_torus = ambient.kind == "torus"
    bi = mode == "bi_skew"
    norm_all = symmetry and not bi
    norm_first = symmetry and (not bi or on_torus)
    full = (1 << size) - 1
    best = reached = 0
    best_masks = reached_masks = None
    nodes = 0
    masks = [0] * size
    placed: list[tuple[int, int]] = []

    def candidates(p: int):
        if p == 0 and symmetry:
            return _masks(size, norm_first)
        return itertools.chain(_masks(size, norm_all), (0,))

    class Exhausted(Exception):
        pass

    def rec(p, occupied, forb_cols, row_occ, forb_rows, total) -> None:
        nonlocal best, best_masks, reached, reached_masks, nodes
        if total > reached:
            reached, reached_masks = total, masks.copy()
        if p == size:
            if total > best:
                best = total
                best_masks = masks.copy()
            return
        cap = size - forb_rows.bit_count() if bi else size
        if total + cap * (size - p - (forb_cols >> p).bit_count()) <= best:
            return
        blocked = forb_cols >> p & 1
        back = size - 1 - p
        for s in candidates(p):
            nodes += 1
            if nodes > budget:
                raise Exhausted
            if s == 0:
                masks[p] = 0
                rec(p + 1, occupied, forb_cols, row_occ, forb_rows, total)
                continue
            if blocked:
                continue
            dm, rm = _diffs(s, size, on_torus)
            cols = ((dm << p) | (rm >> back)) & full
            if cols & occupied:
                continue
            nro, nfr = row_occ, forb_rows
            if bi:
                # a row y shared with the earlier column pp forbids y +- (p - pp)
                nro |= s
                for pp, mm in placed:
                    common = s & mm
                    if common:
                        nfr |= _shift(common, p - pp, size, on_torus)
                        nfr |= _shift(common, pp - p, size, on_torus)
                if nfr & nro:
                    continue
            masks[p] = s
            placed.append((p, s))
            rec(p + 1, occupied | (1 << p), forb_cols | cols, nro, nfr,
                total + s.bit_count())
            placed.pop()
            masks[p] = 0

    exhausted = False
    try:
        rec(0, 0, 0, 0, 0, 0)
    except Exhausted:
        exhausted = True
    if reached > best:
        best, best_masks = reached, reached_masks
    lo = ambient.lo
    witness = sorted(
        (p + lo, b + lo)
        for p, s in enumerate(best_masks or ())
        for b in range(size)
        if s >> b & 1
    )
    return SimpleNamespace(
        best_size=best,
        optimal=not exhausted,
        budget_exhausted=exhausted,
        nodes_explored=nodes,
        witness=witness,
    )


def reference_sphere_params(n: int, bi: bool) -> tuple[sl.SphereParams, int]:
    """The sphere pair set's (r, t) and size by scanning the inner products
    of the box [m]^d: plain takes the first maximal (r, t) over all pairs,
    bi the most popular norm r, then the first maximal t on that sphere."""
    return _box_scan_params(*_choose_dimensions(n), bi)


@functools.cache  # the choice depends on n only through (m, d)
def _box_scan_params(m: int, d: int, bi: bool) -> tuple[sl.SphereParams, int]:
    box = _box_points(m, d)
    norms = (box * box).sum(axis=1)
    tmax = d * m * m

    def inner_product_counts(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        xf = box.astype(np.float64)
        counts = np.zeros(tmax + 1, dtype=np.int64)
        block = max(1, 4_000_000 // max(1, len(cols)))
        for s in range(0, len(rows), block):
            sub = np.rint(xf[rows[s : s + block]] @ xf[cols].T).astype(np.int64)
            counts += np.bincount(sub.ravel(), minlength=tmax + 1)
        return counts

    if bi:
        values, sizes = np.unique(norms, return_counts=True)
        r = int(values[np.argmax(sizes)])  # first max: smallest r wins ties
        rows = np.flatnonzero(norms == r)
        counts = inner_product_counts(rows, rows)
        t = int(np.argmax(counts))
        return sl.SphereParams(m=m, d=d, r=r, t=t), int(counts[t])
    best = (0, -1, -1)  # (count, r, t)
    all_cols = np.arange(len(box))
    for r in np.unique(norms):
        counts = inner_product_counts(np.flatnonzero(norms == r), all_cols)
        t = int(np.argmax(counts))
        c = int(counts[t])
        if c > best[0]:
            best = (c, int(r), t)
    count, r, t = best
    return sl.SphereParams(m=m, d=d, r=r, t=t), count


def reference_dumps(a: sl.GridSet) -> str:
    """The `skewset v1` text of `a` built one f-string per point."""
    lines = ["skewset 1", f"ambient {a.ambient.kind} {a.ambient.size}"]
    lines.extend(f"{x} {y}" for x, y in a.points())
    return "\n".join(lines) + "\n"


def reference_loads(text: str) -> sl.GridSet:
    """A line-by-line `skewset v1` parser: every line split and every token
    read by `int()`, so errors name the first bad line, then the first
    out-of-range point, then the first repeat."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "skewset 1":
        raise sl.FormatError("missing 'skewset 1' header")
    if len(lines) < 2:
        raise sl.FormatError("missing ambient line")
    parts = lines[1].split()
    if len(parts) != 3 or parts[0] != "ambient" or parts[1] not in ("grid", "torus"):
        raise sl.FormatError(f"bad ambient line {lines[1]!r}")
    try:
        amb = sl.Ambient(parts[1], int(parts[2]))
    except ValueError as exc:
        raise sl.FormatError(f"bad ambient size in {lines[1]!r}") from exc
    pts: list[tuple[int, int]] = []
    for ln in lines[2:]:
        toks = ln.split()
        if len(toks) != 2:
            raise sl.FormatError(f"bad point line {ln!r}")
        try:
            pts.append((int(toks[0]), int(toks[1])))
        except ValueError as exc:
            raise sl.FormatError(f"bad point line {ln!r}") from exc
    try:
        a = sl.make_grid_set(pts, amb)
    except OverflowError:  # beyond int64, so certainly outside the ambient
        p = next(p for p in pts if not (amb.in_range(p[0]) and amb.in_range(p[1])))
        raise sl.CoordinateError(f"point {p} outside {amb}") from None
    if len(a) < len(pts):  # some point repeats: name its first repeat
        seen: set[tuple[int, int]] = set()
        for p in pts:
            if p in seen:
                raise sl.FormatError(f"duplicate point {p}")
            seen.add(p)
    return a


def greedy_free_set(n: int, rng: np.random.Generator) -> sl.GridSet:
    """Randomized greedy skew-corner-free subset of [n]^2."""
    cells = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
    rng.shuffle(cells)
    cols: dict[int, set[int]] = {}
    occupied: set[int] = set()
    for x, y in cells:
        ok = True
        for y2 in cols.get(x, ()):  # new vertical pair (y, y2) in column x
            for d in (y - y2, y2 - y):
                t = x + d
                if 1 <= t <= n and t in occupied:
                    ok = False
                    break
            if not ok:
                break
        if ok:  # (x, y) as the lone point of some pair's target column
            for x2, ys in cols.items():
                d = x - x2
                if d != 0 and any((yy + d) in ys for yy in ys):
                    ok = False
                    break
        if ok:
            cols.setdefault(x, set()).add(y)
            occupied.add(x)
    pts = [(x, y) for x, ys in cols.items() for y in ys]
    return sl.make_grid_set(pts, sl.grid(n))


def row_shift_definition(a: sl.GridSet, p) -> tuple[list[int], set, list[list[int]]]:
    """The row extractor by definition on the torus Z/2n of a grid set: per
    column x the first y maximizing |(A_x - y) cap P|, the points (x, e)
    with e in P that those shifts bring onto P, and every column's hit
    counts |(A_x - y) cap P| by shift y."""
    n = a.ambient.size
    N = 2 * n
    elems = list(p.elements())
    cols = [set(a.column(x)) if 1 <= x <= n else set() for x in range(N)]
    hits = [[sum((e + y) % N in col for e in elems) for y in range(N)] for col in cols]
    shifts = [h.index(max(h)) for h in hits]
    want = {
        (x, e)
        for x in range(1, n + 1)
        for e in elems
        if (e + shifts[x]) % N in cols[x]
    }
    return shifts, want, hits


def dense_square_scan(a: sl.GridSet) -> list[tuple[int, int, int]]:
    """The subsquare scan by a dense (n+1)^2 prefix-sum table: for each
    scanned side L, (L, sx, sy) with the 1-based starts of the first window,
    in row-major order, holding the most points."""
    n = a.ambient.size
    mat = np.zeros((n + 1, n + 1), dtype=np.int64)
    mat[1:, 1:] = a.indicator_matrix(dtype=np.int64)
    pref = mat.cumsum(axis=0).cumsum(axis=1)
    if n <= 128:
        lengths = range(2, n + 1)
    else:
        lengths, L = [], n
        while L >= 2:
            lengths.append(L)
            L //= 2
    out = []
    for L in lengths:
        win = pref[L:, L:] - pref[:-L, L:] - pref[L:, :-L] + pref[:-L, :-L]
        sx, sy = np.unravel_index(int(win.argmax()), win.shape)
        out.append((L, int(sx) + 1, int(sy) + 1))
    return out


def mixed_radix(top: sl.GridSet, *lows: sl.GridSet) -> sl.GridSet:
    """The mixed-radix composition in [m b_1 ... b_k]^2 of a grid set `top`
    in [m]^2 with torus sets in (Z/b_j)^2, most significant digit first:
    u = (...((u_top * b_1 + u_1) * b_2 + ...) + u_k) + 1 per coordinate,
    with 0-based digits.  It is free when every digit set is."""
    xs, ys = top.coordinates()
    xs, ys, side = xs - 1, ys - 1, top.ambient.size
    for low in lows:
        b = low.ambient.size
        lx, ly = low.coordinates()
        xs = (xs[:, None] * b + lx).ravel()
        ys = (ys[:, None] * b + ly).ravel()
        side *= b
    return sl.GridSet.from_arrays(xs + 1, ys + 1, sl.grid(side))


@functools.cache
def composition_2040() -> sl.GridSet:
    """The 49-point grid-17 witness over the 9-point torus-6 base and the
    41-point torus-20 witness: 18 081 free points in [2040]^2, density
    0.0043447 > 8/2040, the first free input past the small-density guard
    within the FFT cap."""
    return mixed_radix(
        sl.load_skewset(DATA / "grid17-49.txt"),
        sl.find_base_set(6).points,
        sl.load_skewset(DATA / "torus20-41.txt"),
    )
