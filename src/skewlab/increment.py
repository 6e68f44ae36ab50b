"""One full density-increment step for skew-corner-free grid sets.

A free set of density alpha in [n]^2 either has small density or yields a
denser free subset of a subsquare [n']^2 obtained from arithmetic
progressions of columns or rows.  Three spectral routes feed the step: a
single dominant coefficient of the column marginal (blocks along one
progression), heavy L2 mass of the column marginal (progression of columns
plus a horizontal shift), and heavy L2 mass of the row spectra (progression
of rows plus a vertical shift per column).  A vertical shift per column and
a horizontal shift are exactly the symmetries that preserve freeness, so
every extracted set is free again; the step re-verifies this with the
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .ambient import Ambient, grid
from .core import GridSet, embed_torus
from .errors import FalsificationError, ParameterError
from .fourier import (
    DEFAULT_TOL,
    AnalysisConfig,
    CharacterSet,
    Progression,
    _dichotomy,
    _dirichlet_progression,
    _require_free_grid,
    annihilating_progression,
    cross_spectrum,
    dirichlet,
    marginal_spectrum,
    technical_select,
)
from .verify import find_skew_corner

SMALL_DENSITY = "small_density"
SUBSQUARE = "subsquare"

GUARANTEED = "guaranteed"
BEST_EFFORT = "best_effort"


@dataclass(frozen=True)
class IncrementOutcome:
    """Verdict of one increment step.

    For subsquare outcomes, `extracted` is the renamed free set in [n']^2,
    `progression` the column/row progression P and `translate` its shifted
    copy P' forming the subsquare.  `branch` labels the route: "i" small
    density, "ii" dominant coefficient, "iii" column progression, "iv" row
    progression, or None for the plain subsquare scan used in best-effort
    mode; a small-density stop at a route's guard keeps that route's label.
    Densities are exact ratios extracted_count / box_area.
    """

    variant: str
    branch: Optional[str]
    alpha: float
    n: int
    extracted: Optional[GridSet] = None
    extracted_count: int = 0
    box_area: int = 0
    n_prime: Optional[int] = None
    progression: Optional[Progression] = None
    translate: Optional[Progression] = None
    gamma_set: Optional[CharacterSet] = None
    note: str = ""

    @property
    def density(self) -> float:
        return self.extracted_count / self.box_area if self.box_area else 0.0


def _top_frequencies(weights: np.ndarray, m: int) -> tuple[int, ...]:
    """The m nontrivial frequencies with the largest weights (ties to the
    smaller frequency)."""
    order = np.lexsort((np.arange(len(weights)), -weights))
    picked = [int(a) for a in order if a != 0][:m]
    return tuple(sorted(picked))


def _blocks_mod_q(n: int, q: int, length: int) -> list[Progression]:
    """Partition [n] into residue classes mod q, each chopped into
    consecutive blocks of length in [length, 2*length) where possible."""
    blocks = []
    for r in range(1, q + 1):
        size = (n - r) // q + 1 if r <= n else 0
        if size == 0:
            continue
        nfull = max(1, size // length)
        cut = 0
        for j in range(nfull):
            blk = length if j < nfull - 1 else size - cut
            blocks.append(Progression(start=r + cut * q, difference=q, length=blk))
            cut += blk
    return blocks


def _shift_scores(w: np.ndarray, p: Progression) -> np.ndarray:
    """scores[..., s] = sum over e in P of w[..., (e + s) mod len]: the
    weight the shifted progression P + s collects, for every shift s along
    the last axis.  Exact integer sums of len(P) shifted copies of w, in
    O(len(P) * w.size) time and one array of w's shape and dtype, which
    must hold every score."""
    size = w.shape[-1]
    scores = np.zeros_like(w)
    for e in p.elements():
        k = e % size
        scores[..., : size - k] += w[..., k:]
        scores[..., size - k :] += w[..., :k]
    return scores


def _best_translate(along: np.ndarray, p: Progression, n: int) -> Progression:
    """The translate P' of P inside [n] that holds the most of the values
    `along` (the coordinates a band on P is matched by against P'), so
    that the box P x P' or P' x P is densest.  Among equally dense boxes
    the translate with the smallest start wins.  Its density is at least
    the band's density minus span/n."""
    # counts[s - 1] counts `along` on P moved to start s, for the starts that
    # keep it inside [n]; those never reach past index n, so nothing wraps
    w = np.bincount(along, minlength=n + 1)
    counts = _shift_scores(w, p.shifted(-p.start))[1 : n - (p.last - p.start) + 1]
    return p.shifted(int(counts.argmax()) + 1 - p.start)


# ---------------------------------------------------------------------------
# The three spectral routes
# ---------------------------------------------------------------------------

def _best_block(
    a: GridSet, gamma: int, config: AnalysisConfig
) -> tuple[Progression, float]:
    """Densest block among the mod-q blocks approximating frequency gamma,
    with its density.  Clamps the target block length to >= 1, so it stays
    usable below the small-density guard (best-effort mode)."""
    n = a.ambient.size
    N = a.ambient.torus_side
    Q = math.ceil(2 * math.sqrt(math.pi * n))
    length = max(1, int(config.c_prime * a.density * n / Q))
    q = dirichlet([Fraction(gamma % N, N)], Q)
    sizes = a.column_sizes()

    def density(blk: Progression) -> float:
        return int(sizes[[x - 1 for x in blk.elements()]].sum()) / (n * blk.length)

    best = max(_blocks_mod_q(n, q, length), key=density)  # the first densest
    return best, density(best)


def _band(
    amb: Ambient, xs: np.ndarray, ys: np.ndarray, p: Progression, axis: str
) -> GridSet:
    """The points (xs, ys) whose x (axis "columns") or y (axis "rows") lies
    on p, as a set in `amb`."""
    keep = p.index(xs if axis == "columns" else ys) > 0
    return GridSet.from_arrays(xs[keep], ys[keep], amb)


def _column_extract(a: GridSet, p: Progression) -> GridSet:
    """Best horizontal shift: the first shift maximizing the points it
    brings onto the columns of p, then the shifted set restricted to them,
    in P x [n]."""
    t = embed_torus(a)
    N = t.ambient.size
    shift = int(_shift_scores(t.column_sizes(), p).argmax())
    xs, ys = a.coordinates()
    return _band(a.ambient, (xs - shift) % N, ys, p, "columns")


def _row_extract(a: GridSet, p: Progression) -> GridSet:
    """Best vertical shift per column: column x moves down by the first y
    maximizing |(A_x - y) cap P| over the torus columns x, and the moved
    set is restricted to the rows of p, in [n] x P."""
    t = embed_torus(a)
    N = t.ambient.size
    cols = t.occupied_columns()[0]
    # a score sums len(P) entries of 0 or 1, so the narrowest unsigned type
    # holding len(P) keeps the indicator and its scores exact
    rows = t.indicator_matrix(np.min_scalar_type(p.length), cols=cols)
    down = np.zeros(N, dtype=np.int64)
    down[cols] = _shift_scores(rows, p).argmax(axis=1)
    # torus column x holds grid column x: the embedding keeps coordinates
    xs, ys = a.coordinates()
    return _band(a.ambient, xs, (ys - down[xs]) % N, p, "rows")


@dataclass(frozen=True)
class _L2Route:
    """One L2 route.  It opens when sum |spectrum|^exponent over the
    nontrivial frequencies reaches (C alpha)^exponent.  Its characters are
    the heavy prefix of the weights spectrum^power, by technical_select with
    beta = (C alpha)^power, p = exponent / power and (q, p') = `select`.
    `extract` moves the set onto the band along `axis` of the progression
    that annihilates them; guaranteed mode needs density 3 m^k alpha there."""

    exponent: float
    power: int
    select: tuple[float, float]
    extract: Callable[[GridSet, Progression], GridSet]
    axis: str
    branch: str
    k: Fraction


_COLUMN_ROUTE = _L2Route(
    2.5, 2, (1 / 2, 6 / 5), _column_extract, "columns", "iii", Fraction(1, 6)
)
_ROW_ROUTE = _L2Route(1.5, 1, (0.0, 4 / 3), _row_extract, "rows", "iv", Fraction(1, 4))


def _l2_route(
    a: GridSet,
    spectrum: np.ndarray,
    route: _L2Route,
    config: AnalysisConfig,
) -> Optional[IncrementOutcome]:
    """Guaranteed mode's `route` on its spectrum: None when it stays closed,
    a small-density outcome at the progression guard, else the densest
    square of the extracted band, checked free and against the band bound
    3 m^k alpha and the floor (1 + c') m^(1/6) alpha."""
    n, alpha = a.ambient.size, a.density
    exponent, power = route.exponent, route.power
    c_alpha = config.C * alpha
    if float((spectrum[1:] ** exponent).sum()) < c_alpha**exponent:
        return None
    weights = spectrum**power
    b = np.sort(weights[1:])[::-1]
    m = technical_select(b, c_alpha**power, exponent / power, *route.select)
    gamma_set = CharacterSet(a.ambient.torus_side, _top_frequencies(weights, m))
    prog = annihilating_progression(gamma_set, alpha, n)
    if prog is None:
        return _small_density(a, "alpha n below the progression guard", route.branch)
    # the extraction moves columns vertically or the set horizontally and
    # restricts it, which preserves freeness
    band = route.extract(a, prog)
    w = find_skew_corner(band)
    if w is not None:
        raise FalsificationError(f"extracted set contains a skew corner: {w}")
    density = len(band) / (prog.length * n)
    if density < 3 * m ** float(route.k) * alpha - DEFAULT_TOL:
        raise FalsificationError(
            f"{route.axis[:-1]}-band density {density:.6g} below "
            f"3 m^({route.k}) alpha; configured C does not support the "
            "guaranteed bound"
        )
    out = _subsquare_outcome(band, prog, route.axis, route.branch, gamma_set, alpha)
    return _above_floor(out, (1 + config.c_prime) * m ** (1 / 6) * alpha)


# ---------------------------------------------------------------------------
# Full step
# ---------------------------------------------------------------------------

def _square_outcome(
    a: GridSet,
    p: Progression,
    translate: Progression,
    axis: str,
    branch: Optional[str],
    gamma_set: Optional[CharacterSet],
    alpha: float,
    note: str = "",
) -> IncrementOutcome:
    """The points of `a` in the square p x translate (axis "columns") or
    translate x p (axis "rows"), renamed into [p.length]^2, checked free and
    packaged as a subsquare outcome."""
    cols, rows = (p, translate) if axis == "columns" else (translate, p)
    xs, ys = a.coordinates()
    i, j = cols.index(xs), rows.index(ys)
    keep = (i > 0) & (j > 0)
    renamed = GridSet.from_arrays(i[keep], j[keep], grid(p.length))
    w = find_skew_corner(renamed)
    if w is not None:
        raise FalsificationError(
            f"extracted subsquare set contains a skew corner: {w}"
        )
    return IncrementOutcome(
        variant=SUBSQUARE,
        branch=branch,
        alpha=alpha,
        n=a.ambient.size,
        extracted=renamed,
        extracted_count=len(renamed),
        box_area=p.length**2,
        n_prime=p.length,
        progression=p,
        translate=translate,
        gamma_set=gamma_set,
        note=note,
    )


def _subsquare_outcome(
    a: GridSet,
    p: Progression,
    axis: str,
    branch: Optional[str],
    gamma_set: Optional[CharacterSet],
    alpha: float,
    note: str = "",
) -> IncrementOutcome:
    """Take the band of `a` on p (its columns for axis "columns", its rows
    for "rows"), pigeonhole it onto its densest square and package that."""
    xs, ys = a.coordinates()
    u, along = (xs, ys) if axis == "columns" else (ys, xs)  # in P, against P'
    translate = _best_translate(along[p.index(u) > 0], p, a.ambient.size)
    return _square_outcome(a, p, translate, axis, branch, gamma_set, alpha, note)


def _small_density(a: GridSet, note: str, branch: str = "i") -> IncrementOutcome:
    """A small-density stop: branch "i" when alpha <= 8/n or the input is
    empty, else the branch of the route whose guard stopped it."""
    return IncrementOutcome(
        variant=SMALL_DENSITY, branch=branch, alpha=a.density, n=a.ambient.size, note=note
    )


def _scan_candidates(a: GridSet) -> list[IncrementOutcome]:
    """Best difference-1 subsquares at a sweep of side lengths.

    The full square [n]^2 is always included, so the best-effort step always
    has an outcome with density >= alpha available.
    """
    n = a.ambient.size
    xs, ys = a.coordinates()
    cols = a.occupied_columns()[0] + 1
    # pref[r, y] counts the points up to row y in the first r nonempty
    # columns; int32 is safe, as counts are at most n^2 < 2^31 for n <= 46340
    pref = np.zeros((cols.size + 1, n + 1), dtype=np.int32)
    pref[np.searchsorted(cols, xs) + 1, ys] = 1
    np.cumsum(pref, axis=0, out=pref)
    np.cumsum(pref, axis=1, out=pref)
    halved = [n >> k for k in range(n.bit_length() - 1)]  # n, n // 2, ..., 2
    lengths = range(2, n + 1) if n <= 128 else halved
    out = []
    for L in lengths:
        # the window at column start sx covers the nonempty columns [lo, hi).
        # Starts covering the same ones tie; keeping the first of each makes
        # the row-major first maximum the smallest column start, then the
        # smallest row start, over all windows
        sx = np.arange(1, n - L + 2)
        lohi = np.searchsorted(cols, [sx, sx + L])
        first = np.diff(lohi, prepend=-1).any(axis=0)
        sx, (lo, hi) = sx[first], lohi[:, first]
        band = pref[hi]
        band -= pref[lo]
        win = band[:, L:] - band[:, :-L]
        r, sy = divmod(int(win.argmax()), win.shape[1])
        out.append(
            _square_outcome(
                a, Progression(int(sx[r]), 1, L), Progression(sy + 1, 1, L),
                "columns", None, None, a.density, note="difference-1 subsquare scan",
            )
        )
    return out


def increment_step(
    a: GridSet,
    config: AnalysisConfig = AnalysisConfig(),
    mode: str = BEST_EFFORT,
) -> IncrementOutcome:
    """One density-increment step on a skew-corner-free grid set.

    Guaranteed mode follows the dichotomy and the three spectral routes with
    the configured constants and raises FalsificationError when the chain's
    guaranteed bounds fail (constants too aggressive for the input).
    Best-effort mode tries every route with the guards relaxed, adds a
    difference-1 subsquare sweep, and returns the outcome maximizing
    density (ties to the larger subsquare).  Every extracted set passes the
    freeness oracle.
    """
    _require_free_grid(a, "increment machinery")
    if mode not in (GUARANTEED, BEST_EFFORT):
        raise ParameterError(f"unknown mode {mode!r}")
    if len(a) == 0:
        return _small_density(a, "empty input")
    if mode == GUARANTEED:
        return _guaranteed_step(a, config)
    return _best_effort_step(a, config)


def _guaranteed_step(a: GridSet, config: AnalysisConfig) -> IncrementOutcome:
    n, alpha = a.ambient.size, a.density
    if alpha <= 8 / n:
        return _small_density(a, "alpha <= 8/n")
    # the dichotomy is a falsification check that must pass; its spectra
    # then select the route
    _, spectrum, cross = _dichotomy(a)
    c_p = config.c_prime
    # the L2 routes in order of preference, row (iv) before column (iii)
    for route, spec in ((_ROW_ROUTE, cross), (_COLUMN_ROUTE, spectrum)):
        out = _l2_route(a, spec, route, config)
        if out is not None:
            return out
    # dominant coefficient (ii): some block of a progression approximating
    # the top frequency carries density (1 + 3 c') |A|/n^2
    if float(spectrum[1:].max()) < 4 * c_p * alpha:
        raise FalsificationError(
            f"no spectral route opened at C={config.C}, c_prime={c_p}; "
            "constants too aggressive for this input"
        )
    if alpha < (4 / c_p) * math.sqrt(math.pi / n):
        return _small_density(a, "alpha below the block guard", "ii")
    block, density = _best_block(a, _top_frequencies(spectrum, 1)[0], config)
    if density < (1 + 3 * c_p) * alpha - DEFAULT_TOL:
        raise FalsificationError(
            f"block density {density:.6g} below the guaranteed "
            f"(1+3c')alpha = {(1 + 3 * c_p) * alpha:.6g}"
        )
    out = _subsquare_outcome(a, block, "columns", "ii", None, alpha)
    return _above_floor(out, (1 + c_p) * alpha)


def _above_floor(out: IncrementOutcome, floor: float) -> IncrementOutcome:
    if out.density < floor - DEFAULT_TOL:
        raise FalsificationError(
            f"subsquare density {out.density:.6g} below the guaranteed floor "
            f"{floor:.6g}"
        )
    return out


def _best_effort_step(a: GridSet, config: AnalysisConfig) -> IncrementOutcome:
    n, N, alpha = a.ambient.size, a.ambient.torus_side, a.density
    candidates = _scan_candidates(a)
    spectrum = marginal_spectrum(a)
    cross = cross_spectrum(a)

    # dominant-coefficient blocks
    if len(spectrum) > 1 and spectrum[1:].max() > 0:
        blk, _ = _best_block(a, _top_frequencies(spectrum, 1)[0], config)
        # at small n the Dirichlet bound Q > n can make a block span past [n]
        if blk.span <= n:
            candidates.append(
                _subsquare_outcome(
                    a, blk, "columns", "ii", None, alpha,
                    note="best-effort block route",
                )
            )

    # L2 routes at a small sweep of character counts
    for m in (1, 2, 3):
        if m > N - 1:
            break
        for route, spec in ((_COLUMN_ROUTE, spectrum), (_ROW_ROUTE, cross)):
            weights = spec**route.power
            freqs = _top_frequencies(weights, m)
            if len(freqs) < m or weights[list(freqs)].max() <= 0:
                continue
            gamma_set = CharacterSet(N, freqs)
            # the small-density guard is relaxed, but the progression must
            # still fit in [n]
            prog = _dirichlet_progression(gamma_set, alpha, n)
            if prog.span > n:
                continue
            candidates.append(
                _subsquare_outcome(
                    route.extract(a, prog), prog, route.axis, route.branch,
                    gamma_set, alpha, note="best-effort route with relaxed guards",
                )
            )

    viable = [c for c in candidates if c.extracted_count > 0]
    if not any(c.density >= alpha for c in viable):
        # last resort: a single occupied cell has density 1
        x, y = next(a.points())
        viable.append(
            _square_outcome(
                a, Progression(x, 1, 1), Progression(y, 1, 1), "columns",
                None, None, alpha, note="single-cell fallback",
            )
        )
    # Prefer the largest subsquare that achieves the guaranteed-mode floor
    # (1+c')alpha; bare density maximization would collapse to tiny squares.
    floor = (1 + config.c_prime) * alpha - 1e-12
    incremented = [c for c in viable if c.density >= floor]
    if incremented:
        return max(incremented, key=lambda c: (c.n_prime, c.density))
    return max(
        (c for c in viable if c.density >= alpha - 1e-12),
        key=lambda c: (c.density, c.n_prime),
    )
