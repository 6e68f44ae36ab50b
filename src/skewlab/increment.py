"""One full density-increment step for skew-corner-free grid sets, plus the
product-set diagnostic experiment.

A free set of density alpha in [n]^2 either has small density or yields a
denser free subset of a subsquare [n']^2 obtained from arithmetic
progressions of columns or rows.  Three spectral routes feed the step: a
single dominant coefficient of the column marginal (blocks along one
progression), heavy L2 mass of the column marginal (progression of columns
plus a horizontal shift), and heavy L2 mass of the row spectra (progression
of rows plus per-column vertical shifts).  Per-column shifts and horizontal
shifts are exactly the symmetries that preserve freeness, so every
extracted set is free again; the step re-verifies this with the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import GRID, GridSet, embed_torus, grid, make_grid_set, torus
from .errors import FalsificationError, ParameterError
from .fourier import (
    AnalysisConfig,
    CharacterSet,
    Progression,
    _check_spectral_side,
    _dichotomy,
    _dirichlet_progression,
    annihilating_progression,
    cross_spectrum,
    dirichlet,
    marginal_spectrum,
    technical_select,
)
from .verify import count_corners, count_skew_corners_fft, find_skew_corner

SMALL_DENSITY = "small_density"
ROW_PROGRESSION = "row_progression"
COLUMN_PROGRESSION = "column_progression"
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
    mode.  Densities are exact ratios extracted_count / box_area.
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


@dataclass(frozen=True)
class PigeonholeResult:
    translate: Progression
    count: int
    density: float
    base_density: float


@dataclass(frozen=True)
class BlockIncrement:
    """Result of the dominant-coefficient route: a progression of columns
    on which the set is denser than (1 + 3 c') alpha, or a small-density
    verdict."""

    small_density: bool
    progression: Optional[Progression] = None
    density: float = 0.0


@dataclass(frozen=True)
class ProgressionIncrement:
    """Result of an L2 route: characters, annihilating progression (absent
    on the small-density verdict), shifts, and the extracted free set with
    its density on the progression band."""

    small_density: bool
    gamma_set: CharacterSet
    progression: Optional[Progression] = None
    extracted: Optional[GridSet] = None
    extracted_count: int = 0
    band_area: int = 0
    shift: int = 0
    shifts: tuple[int, ...] = ()

    @property
    def density(self) -> float:
        return self.extracted_count / self.band_area if self.band_area else 0.0


def _require_free_grid(a: GridSet) -> None:
    if a.ambient.kind != GRID:
        raise ParameterError("increment machinery expects a grid-ambient set")
    _check_spectral_side(2 * a.ambient.size)
    w = find_skew_corner(a)
    if w is not None:
        raise ParameterError(f"input is not skew-corner-free: {w}")


def _check_extraction_free(a: GridSet, extracted: GridSet) -> None:
    """Extractions use only freeness-preserving shifts and restrictions, so
    a free input must yield a free extraction."""
    if find_skew_corner(a) is not None:
        return
    w = find_skew_corner(extracted)
    if w is not None:
        raise FalsificationError(f"extracted set contains a skew corner: {w}")


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


def pigeonhole_square(
    b_set: GridSet, p: Progression, axis: str = "columns"
) -> PigeonholeResult:
    """Best translate P' of P making the box P x P' (axis "columns", input
    inside P x [n]) or P' x P (axis "rows") as dense as possible.

    The returned density is at least the input band density minus span/n.
    """
    if axis not in ("columns", "rows"):
        raise ParameterError("axis must be 'columns' or 'rows'")
    if b_set.ambient.kind != GRID:
        raise ParameterError("pigeonhole_square expects a grid-ambient set")
    n = b_set.ambient.size
    if p.span > n:
        raise ParameterError(f"progression span {p.span} exceeds n={n}")
    members = set(p.elements())
    if p.start < 1 or p.last > n:
        raise ParameterError("progression leaves [n]")
    along = []  # coordinate inside P, coordinate to be matched against P'
    for x, y in b_set.points():
        u, v = (x, y) if axis == "columns" else (y, x)
        if u not in members:
            raise ParameterError(f"point ({x}, {y}) outside the progression band")
        along.append(v)
    base_density = len(along) / (p.length * n)
    best = (-1, None)
    for start in range(1, n - (p.length - 1) * p.difference + 1):
        shifted = p.shifted(start - p.start)
        elems = set(shifted.elements())
        c = int(sum(1 for v in along if v in elems))
        if c > best[0]:
            best = (c, shifted)
    count, translate = best
    return PigeonholeResult(
        translate=translate,
        count=count,
        density=count / p.length**2,
        base_density=base_density,
    )


# ---------------------------------------------------------------------------
# The three spectral routes
# ---------------------------------------------------------------------------

def vertical_linfty_increment(
    a: GridSet, gamma: int, config: AnalysisConfig = AnalysisConfig()
) -> BlockIncrement:
    """Dominant-coefficient route: the column marginal of the balanced
    function has |coefficient| >= 4 c' alpha at the nontrivial frequency
    `gamma`, so some block of an approximating progression carries density
    at least (1 + 3 c') alpha.  Applies to any grid set; freeness is not
    needed because nothing is extracted here."""
    return _vertical_linfty(a, gamma, marginal_spectrum(a), config)


def _vertical_linfty(
    a: GridSet, gamma: int, spectrum: np.ndarray, config: AnalysisConfig
) -> BlockIncrement:
    if a.ambient.kind != GRID:
        raise ParameterError("expected a grid-ambient set")
    n = a.ambient.size
    N = 2 * n
    alpha = len(a) / n**2
    if not 1 <= gamma <= N - 1:
        raise ParameterError(f"gamma={gamma} is not a nontrivial frequency")
    if spectrum[gamma] < 4 * config.c_prime * alpha - config.tolerance:
        raise ParameterError(
            f"coefficient {spectrum[gamma]:.4g} at gamma={gamma} is below "
            f"4 c' alpha = {4 * config.c_prime * alpha:.4g}"
        )
    if alpha < (4 / config.c_prime) * math.sqrt(math.pi / n):
        return BlockIncrement(small_density=True)
    res = _best_block(a, gamma, config)
    if res.density < (1 + 3 * config.c_prime) * alpha - config.tolerance:
        raise FalsificationError(
            f"block density {res.density:.6g} below the guaranteed "
            f"(1+3c')alpha = {(1 + 3 * config.c_prime) * alpha:.6g}"
        )
    return res


def _best_block(a: GridSet, gamma: int, config: AnalysisConfig) -> BlockIncrement:
    """Densest block among the mod-q blocks approximating frequency gamma.
    Clamps the target block length to >= 1, so it stays usable below the
    small-density guard (best-effort mode)."""
    n = a.ambient.size
    N = 2 * n
    alpha = len(a) / n**2
    Q = math.ceil(2 * math.sqrt(math.pi * n))
    length = max(1, int(config.c_prime * alpha * n / Q))
    q = dirichlet([Fraction(gamma % N, N)], Q)
    sizes = a.column_sizes()
    best: tuple[float, Optional[Progression]] = (-1.0, None)
    for blk in _blocks_mod_q(n, q, length):
        inside = int(sizes[[x - 1 for x in blk.elements()]].sum())
        dens = inside / (n * blk.length)
        if dens > best[0]:
            best = (dens, blk)
    return BlockIncrement(small_density=False, progression=best[1], density=best[0])


def _column_extract(a: GridSet, p: Progression) -> tuple[int, GridSet, int]:
    """Best horizontal shift: restrict the shifted set to the columns of p.
    Returns (shift, extracted set in P x [n], point count)."""
    t = embed_torus(a)
    N = t.ambient.size
    sizes = t.column_sizes()
    cols = np.asarray(p.elements(), dtype=np.int64)
    scores = [int(sizes[(cols + y) % N].sum()) for y in range(N)]
    shift = int(np.argmax(scores))
    pts = [(x, y) for x in p.elements() for y in t.column((x + shift) % N)]
    return shift, make_grid_set(pts, a.ambient), len(pts)


def _row_extract(a: GridSet, p: Progression) -> tuple[tuple[int, ...], GridSet, int]:
    """Best per-column vertical shifts: returns (shifts, extracted set in
    [n] x P, point count)."""
    n = a.ambient.size
    N = 2 * n
    m = embed_torus(a).indicator_matrix(dtype=np.int64)
    pvec = np.zeros(N, dtype=np.int64)
    pvec[list(p.elements())] = 1
    circ = pvec[(np.arange(N)[:, None] - np.arange(N)[None, :]) % N]
    counts = m @ circ  # counts[x, y] = |(A_x - y) cap P|
    shifts = counts.argmax(axis=1)
    pts = []
    for x in range(1, n + 1):
        y = int(shifts[x])
        for z in p.elements():
            if m[x, (z + y) % N]:
                pts.append((x, z))
    return tuple(int(s) for s in shifts), make_grid_set(pts, grid(n)), len(pts)


def vertical_l2_increment(
    a: GridSet, config: AnalysisConfig = AnalysisConfig()
) -> Optional[ProgressionIncrement]:
    """Column-progression route.  Requires heavy L2 mass of the column
    marginal spectrum: sum of |coefficients|^(5/2) over nontrivial
    frequencies at least (C alpha)^(5/2); returns None otherwise.

    Horizontal shifts preserve freeness, so for free inputs the extracted
    set is free again (enforced); non-free inputs are allowed and skip that
    check."""
    return _vertical_l2(a, marginal_spectrum(a), config)


def _vertical_l2(
    a: GridSet, spectrum: np.ndarray, config: AnalysisConfig
) -> Optional[ProgressionIncrement]:
    if a.ambient.kind != GRID:
        raise ParameterError("expected a grid-ambient set")
    n = a.ambient.size
    alpha = len(a) / n**2
    if alpha == 0:
        return None
    if float((spectrum[1:] ** 2.5).sum()) < (config.C * alpha) ** 2.5:
        return None
    weights = spectrum**2
    b = np.sort(weights[1:])[::-1]
    m = technical_select(
        b, (config.C * alpha) ** 2, 5 / 4, 1 / 2, 6 / 5, config.zeta_terms
    )
    gamma_set = CharacterSet(2 * n, _top_frequencies(weights, m))
    prog = annihilating_progression(gamma_set, alpha, n)
    if prog is None:
        return ProgressionIncrement(small_density=True, gamma_set=gamma_set)
    shift, extracted, count = _column_extract(a, prog)
    _check_extraction_free(a, extracted)
    return ProgressionIncrement(
        small_density=False,
        gamma_set=gamma_set,
        progression=prog,
        extracted=extracted,
        extracted_count=count,
        band_area=prog.length * n,
        shift=shift,
    )


def horizontal_increment(
    a: GridSet, config: AnalysisConfig = AnalysisConfig()
) -> Optional[ProgressionIncrement]:
    """Row-progression route.  Requires heavy L2 mass of the row spectra:
    sum over nontrivial frequencies of (E_x |row-hat| |normalized-row-hat|)
    ^(3/2) at least (C alpha)^(3/2); returns None otherwise.

    Per-column vertical shifts preserve freeness, so for free inputs the
    extracted set is free again (enforced)."""
    return _horizontal(a, cross_spectrum(a), config)


def _horizontal(
    a: GridSet, cross: np.ndarray, config: AnalysisConfig
) -> Optional[ProgressionIncrement]:
    if a.ambient.kind != GRID:
        raise ParameterError("expected a grid-ambient set")
    n = a.ambient.size
    alpha = len(a) / n**2
    if alpha == 0:
        return None
    if float((cross[1:] ** 1.5).sum()) < (config.C * alpha) ** 1.5:
        return None
    b = np.sort(cross[1:])[::-1]
    m = technical_select(b, config.C * alpha, 3 / 2, 0.0, 4 / 3, config.zeta_terms)
    gamma_set = CharacterSet(2 * n, _top_frequencies(cross, m))
    prog = annihilating_progression(gamma_set, alpha, n)
    if prog is None:
        return ProgressionIncrement(small_density=True, gamma_set=gamma_set)
    shifts, extracted, count = _row_extract(a, prog)
    _check_extraction_free(a, extracted)
    return ProgressionIncrement(
        small_density=False,
        gamma_set=gamma_set,
        progression=prog,
        extracted=extracted,
        extracted_count=count,
        band_area=prog.length * n,
        shifts=shifts,
    )


# ---------------------------------------------------------------------------
# Full step
# ---------------------------------------------------------------------------

def _rename_subsquare(a: GridSet, cols: Progression, rows: Progression) -> GridSet:
    """The points of `a` in cols x rows, renamed into [cols.length]^2."""
    xs, ys = cols.elements(), rows.elements()
    out = [
        (xs.index(x) + 1, ys.index(y) + 1)
        for x, y in a.points()
        if x in xs and y in ys
    ]
    return make_grid_set(out, grid(cols.length))


def _subsquare_outcome(
    a: GridSet,
    band: GridSet,
    p: Progression,
    axis: str,
    branch: Optional[str],
    gamma_set: Optional[CharacterSet],
    alpha: float,
    note: str = "",
) -> IncrementOutcome:
    """Pigeonhole the band onto a square and package the renamed free set."""
    n = a.ambient.size
    ph = pigeonhole_square(band, p, axis=axis)
    cols, rows = (p, ph.translate) if axis == "columns" else (ph.translate, p)
    renamed = _rename_subsquare(band, cols, rows)
    w = find_skew_corner(renamed)
    if w is not None:
        raise FalsificationError(
            f"extracted subsquare set contains a skew corner: {w}"
        )
    return IncrementOutcome(
        variant=SUBSQUARE,
        branch=branch,
        alpha=alpha,
        n=n,
        extracted=renamed,
        extracted_count=len(renamed),
        box_area=cols.length**2,
        n_prime=cols.length,
        progression=p,
        translate=ph.translate,
        gamma_set=gamma_set,
        note=note,
    )


def _small_density(alpha: float, n: int, note: str) -> IncrementOutcome:
    return IncrementOutcome(
        variant=SMALL_DENSITY, branch="i", alpha=alpha, n=n, note=note
    )


def _band_of_progression(a: GridSet, p: Progression) -> GridSet:
    """A restricted to the columns of p."""
    pts = [(x, y) for x in p.elements() for y in a.column(x)]
    return make_grid_set(pts, a.ambient)


def _scan_candidates(a: GridSet, alpha: float) -> list[IncrementOutcome]:
    """Best difference-1 subsquares at a sweep of side lengths.

    The full square [n]^2 is always included, so the best-effort step always
    has an outcome with density >= alpha available.
    """
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
        win = (
            pref[L:, L:] - pref[:-L, L:] - pref[L:, :-L] + pref[:-L, :-L]
        )
        sx, sy = np.unravel_index(int(win.argmax()), win.shape)
        count, sx, sy = int(win[sx, sy]), int(sx) + 1, int(sy) + 1
        cols = Progression(start=sx, difference=1, length=L)
        rows = Progression(start=sy, difference=1, length=L)
        renamed = _rename_subsquare(a, cols, rows)
        out.append(
            IncrementOutcome(
                variant=SUBSQUARE,
                branch=None,
                alpha=alpha,
                n=n,
                extracted=renamed,
                extracted_count=count,
                box_area=L * L,
                n_prime=L,
                progression=cols,
                translate=rows,
                note="difference-1 subsquare scan",
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
    _require_free_grid(a)
    if mode not in (GUARANTEED, BEST_EFFORT):
        raise ParameterError(f"unknown mode {mode!r}")
    n = a.ambient.size
    alpha = len(a) / n**2
    if len(a) == 0:
        return _small_density(alpha, n, "empty input")
    if mode == GUARANTEED:
        return _guaranteed_step(a, alpha, config)
    return _best_effort_step(a, alpha, config)


def _guaranteed_step(
    a: GridSet, alpha: float, config: AnalysisConfig
) -> IncrementOutcome:
    n = a.ambient.size
    if alpha <= 8 / n:
        return _small_density(alpha, n, "alpha <= 8/n")
    # the dichotomy is a falsification check that must pass; its spectra
    # then select the route
    _, spectrum, cross = _dichotomy(a, config.tolerance)
    c_p = config.c_prime
    horiz_mass = float((cross[1:] ** 1.5).sum())
    vert_mass = float((spectrum[1:] ** 2.5).sum())
    max_coeff = float(spectrum[1:].max())
    gamma_max = _top_frequencies(spectrum, 1)[0]

    if horiz_mass >= (config.C * alpha) ** 1.5:
        res = _horizontal(a, cross, config)
        if res.small_density:
            return _small_density(alpha, n, "alpha n below the progression guard")
        m = len(res.gamma_set)
        if res.density < 3 * m**0.25 * alpha - config.tolerance:
            raise FalsificationError(
                f"row-band density {res.density:.6g} below 3 m^(1/4) alpha; "
                "configured C does not support the guaranteed bound"
            )
        out = _subsquare_outcome(
            a, res.extracted, res.progression, "rows", "iv",
            res.gamma_set, alpha,
        )
        floor = (1 + c_p) * m ** (1 / 6) * alpha
    elif vert_mass >= (config.C * alpha) ** 2.5:
        res = _vertical_l2(a, spectrum, config)
        if res.small_density:
            return _small_density(alpha, n, "alpha n below the progression guard")
        m = len(res.gamma_set)
        if res.density < 3 * m ** (1 / 6) * alpha - config.tolerance:
            raise FalsificationError(
                f"column-band density {res.density:.6g} below 3 m^(1/6) alpha; "
                "configured C does not support the guaranteed bound"
            )
        out = _subsquare_outcome(
            a, res.extracted, res.progression, "columns", "iii",
            res.gamma_set, alpha,
        )
        floor = (1 + c_p) * m ** (1 / 6) * alpha
    elif max_coeff >= 4 * c_p * alpha:
        res = _vertical_linfty(a, gamma_max, spectrum, config)
        if res.small_density:
            return _small_density(alpha, n, "alpha below the block guard")
        band = _band_of_progression(a, res.progression)
        out = _subsquare_outcome(
            a, band, res.progression, "columns", "ii", None, alpha,
        )
        floor = (1 + c_p) * alpha
    else:
        raise FalsificationError(
            f"no spectral route opened at C={config.C}, c_prime={c_p}; "
            "constants too aggressive for this input"
        )
    if out.density < floor - config.tolerance:
        raise FalsificationError(
            f"subsquare density {out.density:.6g} below the guaranteed floor "
            f"{floor:.6g}"
        )
    return out


def _best_effort_step(
    a: GridSet, alpha: float, config: AnalysisConfig
) -> IncrementOutcome:
    n = a.ambient.size
    candidates = _scan_candidates(a, alpha)
    spectrum = marginal_spectrum(a)
    cross = cross_spectrum(a)

    # dominant-coefficient blocks
    if len(spectrum) > 1 and spectrum[1:].max() > 0:
        gamma = _top_frequencies(spectrum, 1)[0]
        blk = _best_block(a, gamma, config)
        if blk.progression is not None:
            band = _band_of_progression(a, blk.progression)
            if len(band):
                candidates.append(
                    _subsquare_outcome(
                        a, band, blk.progression, "columns", "ii", None, alpha,
                        note="best-effort block route",
                    )
                )

    # L2 routes at a small sweep of character counts
    for m in (1, 2, 3):
        if m > 2 * n - 1:
            break
        for weights, axis, branch, extract in (
            (spectrum**2, "columns", "iii", _column_extract),
            (cross, "rows", "iv", _row_extract),
        ):
            freqs = _top_frequencies(weights, m)
            if len(freqs) < m or weights[list(freqs)].max() <= 0:
                continue
            gamma_set = CharacterSet(2 * n, freqs)
            # the small-density guard is relaxed, but the progression must
            # still fit in [n]
            prog = _dirichlet_progression(gamma_set, alpha, n)
            if prog.span > n:
                continue
            _, extracted, count = extract(a, prog)
            if count == 0:
                continue
            candidates.append(
                _subsquare_outcome(
                    a, extracted, prog, axis, branch, gamma_set, alpha,
                    note="best-effort route with relaxed guards",
                )
            )

    viable = [c for c in candidates if c.extracted_count > 0]
    if not any(c.density >= alpha for c in viable):
        # last resort: a single occupied cell has density 1
        x, y = next(a.points())
        cols = Progression(start=x, difference=1, length=1)
        rows = Progression(start=y, difference=1, length=1)
        viable.append(
            IncrementOutcome(
                variant=SUBSQUARE,
                branch=None,
                alpha=alpha,
                n=n,
                extracted=make_grid_set([(1, 1)], grid(1)),
                extracted_count=1,
                box_area=1,
                n_prime=1,
                progression=cols,
                translate=rows,
                note="single-cell fallback",
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


# ---------------------------------------------------------------------------
# Product-set experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductSetReport:
    beta: float
    N: int
    trials: int
    alpha: float
    mean_skew_count: float
    skew_over_n4: float
    alpha_5_2: float
    alpha_3: float
    ratio_to_alpha_5_2: Optional[float]
    ratio_to_alpha_3: Optional[float]
    mean_corner_count: float
    corners_over_n3: float
    alpha_2: float
    ratio_corners_to_alpha_2: Optional[float]


def product_set_experiment(
    beta: float, N: int, trials: int, seed: int
) -> ProductSetReport:
    """Skew corners of product sets B x B for random B of density beta.

    A product set is highly uniform yet carries only about alpha^(5/2) N^4
    skew corners (alpha = beta^2), against alpha^3 N^4 for a truly random
    set of the same density; corner counts land near alpha^2 N^3 the same
    way.  Elements of B are sampled independently with probability beta.
    """
    if N > 256:
        raise ParameterError("experiment capped at N <= 256")
    if not 0 <= beta <= 1:
        raise ParameterError("beta must lie in [0, 1]")
    if trials < 1:
        raise ParameterError("need at least one trial")
    rng = np.random.default_rng(seed)
    amb = torus(N)
    skew_total = 0
    corner_total = 0
    for _ in range(trials):
        elems = np.flatnonzero(rng.random(N) < beta)
        xs = np.repeat(elems, elems.size)
        ys = np.tile(elems, elems.size)
        prod = GridSet.from_arrays(xs, ys, amb)
        skew_total += count_skew_corners_fft(prod).total
        corner_total += count_corners(prod).total
    alpha = beta**2
    mean_skew = skew_total / trials
    mean_corners = corner_total / trials
    a52 = alpha**2.5
    a3 = alpha**3
    a2 = alpha**2
    return ProductSetReport(
        beta=beta,
        N=N,
        trials=trials,
        alpha=alpha,
        mean_skew_count=mean_skew,
        skew_over_n4=mean_skew / N**4,
        alpha_5_2=a52,
        alpha_3=a3,
        ratio_to_alpha_5_2=mean_skew / (a52 * N**4) if a52 else None,
        ratio_to_alpha_3=mean_skew / (a3 * N**4) if a3 else None,
        mean_corner_count=mean_corners,
        corners_over_n3=mean_corners / N**3,
        alpha_2=a2,
        ratio_corners_to_alpha_2=mean_corners / (a2 * N**3) if a2 else None,
    )
