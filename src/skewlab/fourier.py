"""Fourier analysis on Z/NZ and the spectral toolkit behind the density
increment: the trilinear counting form, the counting inequality for uniform
sets, the free-set dichotomy, heavy-prefix mass selection, simultaneous
rational approximation, and annihilating progressions.

Conventions: characters are indexed by integer frequency, gamma_a(x) =
e(ax/N); a = 0 is the trivial character.  Transforms are normalized as
averages: fhat(a) = E_x f(x) e(-ax/N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .core import GRID, GridSet, TORUS, embed_torus
from .errors import (
    CapabilityError,
    ConsistencyError,
    FalsificationError,
    ParameterError,
)
from .verify import MAX_FFT_SIDE, count_skew_corners_fft, find_skew_corner

DEFAULT_TOL = 1e-9


def _check_spectral_side(N: int) -> None:
    if N > MAX_FFT_SIDE:
        raise CapabilityError(
            f"spectral machinery needs dense N x N arrays; N={N} exceeds "
            f"{MAX_FFT_SIDE}"
        )


@dataclass(frozen=True)
class AnalysisConfig:
    """Tunable constants of the increment machinery.

    The threshold constant C and the increment constant c_prime are left
    unspecified by the underlying analysis (they only need to be "large
    enough" / "small enough"); here they are configuration, and guaranteed
    mode reports failures at aggressive values as such.
    """

    C: float = 64.0
    c_prime: float = 0.05
    tolerance: float = DEFAULT_TOL
    zeta_terms: int = 10**6

    def __post_init__(self) -> None:
        if not 0 < self.c_prime < 0.25:
            raise ParameterError("c_prime must lie in (0, 1/4)")
        if self.C < 1:
            raise ParameterError("C must be >= 1")


@dataclass(frozen=True)
class FourierTable:
    """Fourier coefficients of a function on Z/NZ, indexed by frequency."""

    modulus: int
    coeffs: np.ndarray

    def inverse(self) -> np.ndarray:
        """Reconstruct the original values (inversion formula)."""
        return np.fft.ifft(self.coeffs * self.modulus)

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.coeffs)


@dataclass(frozen=True)
class TwoDFunction:
    """A real-valued function on the torus (Z/NZ)^2, stored as an N x N array
    with first index x (column) and second index y."""

    modulus: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (self.modulus, self.modulus):
            raise ParameterError("values must be an N x N array")

    @staticmethod
    def constant(modulus: int, value: float = 1.0) -> "TwoDFunction":
        return TwoDFunction(modulus, np.full((modulus, modulus), float(value)))

    @staticmethod
    def indicator(a: GridSet) -> "TwoDFunction":
        """Indicator of a torus set (grid sets are embedded first)."""
        if a.ambient.kind == GRID:
            a = embed_torus(a)
        _check_spectral_side(a.ambient.size)
        return TwoDFunction(a.ambient.size, a.indicator_matrix())


@dataclass(frozen=True)
class CharacterSet:
    """A duplicate-free set of nontrivial frequencies on Z/NZ."""

    modulus: int
    frequencies: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.frequencies)) != len(self.frequencies):
            raise ParameterError("duplicate frequencies")
        for a in self.frequencies:
            if not 1 <= a <= self.modulus - 1:
                raise ParameterError(
                    f"frequency {a} outside [1, {self.modulus - 1}]"
                )

    def __len__(self) -> int:
        return len(self.frequencies)


@dataclass(frozen=True)
class Progression:
    """Arithmetic progression start, start + difference, ...; its span is
    length * difference."""

    start: int
    difference: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 1 or self.difference < 1:
            raise ParameterError("progression needs length >= 1, difference >= 1")

    @property
    def span(self) -> int:
        return self.length * self.difference

    @property
    def last(self) -> int:
        return self.start + (self.length - 1) * self.difference

    def elements(self) -> range:
        return range(self.start, self.last + 1, self.difference)

    def shifted(self, t: int) -> "Progression":
        return Progression(self.start + t, self.difference, self.length)


def dft(f: Sequence[float] | np.ndarray) -> FourierTable:
    """Average-normalized transform: fhat(a) = E_x f(x) e(-ax/N)."""
    arr = np.asarray(f)
    if arr.ndim != 1 or arr.size < 1:
        raise ParameterError("dft expects a nonempty 1-d array")
    return FourierTable(arr.size, np.fft.fft(arr) / arr.size)


def row_transforms(f: TwoDFunction) -> np.ndarray:
    """Row-wise transforms: entry [x, a] holds the coefficient of f(x, .) at
    frequency a."""
    return np.fft.fft(f.values, axis=1) / f.modulus


def column_marginal(f: TwoDFunction) -> np.ndarray:
    """Column averages: x -> E_y f(x, y)."""
    return f.values.mean(axis=1)


def column_normalized(f: TwoDFunction) -> TwoDFunction:
    """Scale each column slice to unit L1 average; empty columns stay zero."""
    norms = np.abs(f.values).mean(axis=1)
    out = np.zeros_like(f.values)
    nz = norms > 0
    out[nz] = f.values[nz] / norms[nz, None]
    return TwoDFunction(f.modulus, out)


def balanced_function(a: GridSet) -> TwoDFunction:
    """Mean-zero correction of the indicator.

    Grid sets in [n]^2 are viewed on the torus of side N = 2n and corrected
    by their density alpha = |A|/n^2 on the [n]^2 block; torus sets are
    corrected by alpha = |A|/N^2 everywhere.
    """
    n, lo = a.ambient.size, a.ambient.lo
    f = TwoDFunction.indicator(a)
    f.values[lo : lo + n, lo : lo + n] -= len(a) / n**2
    return f


def lambda_form(
    f: TwoDFunction,
    g: TwoDFunction,
    h: TwoDFunction,
    tol: float = DEFAULT_TOL,
) -> float:
    """The skew-corner counting form on triples of functions on (Z/NZ)^2:

        E_{x,y,y',d} f(x,y) g(x,y+d) h(x+d,y')

    Evaluated two ways, by direct summation (after collapsing y') and
    through the spectral representation; the two must agree within `tol`.
    Returns the direct value.
    """
    if not f.modulus == g.modulus == h.modulus:
        raise ParameterError("lambda_form needs equal moduli")
    N = f.modulus
    sh = column_marginal(h)
    direct = 0.0
    for d in range(N):
        row_corr = (f.values * np.roll(g.values, -d, axis=1)).sum(axis=1)
        direct += float(row_corr @ np.roll(sh, -d))
    direct /= N**3

    fh = row_transforms(f)
    gh = row_transforms(g)
    sh_hat = np.fft.fft(sh) / N
    cross = fh * np.conj(gh)
    # E_x fhat(x,.)(a) conj(ghat(x,.)(a)) gamma_a(x), diagonal in a
    inner = np.diagonal(np.fft.ifft(cross, axis=0))
    spectral = complex((sh_hat * inner).sum())
    if abs(spectral.imag) > tol or abs(direct - spectral.real) > tol:
        raise ConsistencyError(
            f"counting form mismatch: direct {direct!r} vs spectral "
            f"{spectral!r} beyond {tol}"
        )
    return direct


# ---------------------------------------------------------------------------
# Counting inequality and free-set dichotomy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GvnReport:
    alpha: float
    lam: float
    max_nontrivial_coeff: float
    inequality_holds: bool
    guaranteed_count: float  # (alpha^3 - alpha * eta) N^4 with eta = max coeff


def check_gvn(a: GridSet, tol: float = DEFAULT_TOL) -> GvnReport:
    """Check the counting inequality lambda >= alpha^3 - alpha * eta where
    eta is the largest nontrivial coefficient of the column marginal of the
    balanced indicator.  A violation raises FalsificationError.
    """
    if a.ambient.kind != TORUS:
        raise ParameterError("check_gvn expects a torus-ambient set")
    N = a.ambient.size
    alpha = len(a) / N**2
    lam = count_skew_corners_fft(a).total / N**4
    coeffs = marginal_spectrum(a)
    eta = float(coeffs[1:].max()) if N > 1 else 0.0
    rhs = alpha**3 - alpha * eta
    holds = lam >= rhs - tol
    if not holds:
        raise FalsificationError(
            f"counting inequality violated: lambda={lam} < {rhs}"
        )
    return GvnReport(
        alpha=alpha,
        lam=lam,
        max_nontrivial_coeff=eta,
        inequality_holds=holds,
        guaranteed_count=rhs * N**4,
    )


def marginal_spectrum(a: GridSet) -> np.ndarray:
    """|coefficients| of the column marginal x -> E_y f_A(x, y) of the
    balanced function f_A (see `balanced_function`), on the torus of a
    torus set or of an embedded grid set.

    The marginal is |A_x|/N minus the correction alpha n/N on the n columns
    of the set's own ambient, so it comes from the column sizes alone.
    """
    n = a.ambient.size
    t = embed_torus(a) if a.ambient.kind == GRID else a
    N = t.ambient.size
    marg = t.column_sizes() / N
    marg[a.ambient.lo : a.ambient.lo + n] -= len(a) / (n * N)
    return np.abs(np.fft.fft(marg)) / N


def cross_spectrum(a: GridSet) -> np.ndarray:
    """Per-frequency averages E_x |row-hat| |normalized-row-hat| of a torus
    set or an embedded grid set, the normalized row being scaled to unit
    L1 average (see `column_normalized`).

    That scaling divides a row by its mass |A_x|/N, so each product is
    |row-hat|^2 N/|A_x| and one row transform serves both factors; empty
    columns contribute nothing.
    """
    ind = TwoDFunction.indicator(a)
    mass = ind.values.mean(axis=1)  # |A_x| / N
    nonempty = mass > 0
    power = np.abs(row_transforms(ind)[nonempty]) ** 2
    return (power / mass[nonempty, None]).sum(axis=0) / ind.modulus


@dataclass(frozen=True)
class DichotomyReport:
    alpha: float
    lhs: float
    branch: str  # "i" (small density) or "ii" (large spectral mass)
    small_density_threshold: float
    mass_threshold: float


def dichotomy_report(a: GridSet, tol: float = DEFAULT_TOL) -> DichotomyReport:
    """For a skew-corner-free grid set: either the density is at most 8/n, or
    the weighted nontrivial spectral mass reaches alpha^2/64."""
    return _dichotomy(a, tol)[0]


def _dichotomy(
    a: GridSet, tol: float
) -> tuple[DichotomyReport, np.ndarray, np.ndarray]:
    """`dichotomy_report` together with the marginal and cross spectra it
    was computed from."""
    if find_skew_corner(a) is not None:
        raise ParameterError("dichotomy_report needs a skew-corner-free input")
    if a.ambient.kind != GRID:
        raise ParameterError("expected a grid-ambient set")
    n = a.ambient.size
    alpha = len(a) / n**2
    spectrum = marginal_spectrum(a)
    cross = cross_spectrum(a)
    lhs = float((spectrum[1:] * cross[1:]).sum())
    thr_i = 8.0 / n
    thr_ii = alpha**2 / 64
    if alpha <= thr_i:
        branch = "i"
    elif lhs >= thr_ii - tol:
        branch = "ii"
    else:
        raise FalsificationError(
            f"dichotomy violated: alpha={alpha} > {thr_i} and lhs={lhs} < {thr_ii}"
        )
    return DichotomyReport(
        alpha=alpha,
        lhs=lhs,
        branch=branch,
        small_density_threshold=thr_i,
        mass_threshold=thr_ii,
    ), spectrum, cross


@dataclass(frozen=True)
class ParsevalReport:
    full_sum: float
    nontrivial_sum: float
    nonempty_columns: int
    modulus: int


def parseval_bound(a: GridSet) -> ParsevalReport:
    """Spectral cross sums of a set's rows against their normalized variants.

    The full-spectrum sum collapses, one unit per nonempty column, to
    (#nonempty columns)/N; the nontrivial part is therefore at most 1.
    """
    cross = cross_spectrum(a)
    return ParsevalReport(
        full_sum=float(cross.sum()),
        nontrivial_sum=float(cross[1:].sum()),
        nonempty_columns=int((a.column_sizes() > 0).sum()),
        modulus=len(cross),
    )


# ---------------------------------------------------------------------------
# Mass selection, rational approximation, annihilation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def zeta_value(s: float, terms: int = 10**6) -> float:
    """zeta(s) for s > 1 by direct series plus an integral tail with
    Euler-Maclaurin correction; error well below 1e-12 at the default
    length for the exponents used here."""
    if s <= 1:
        raise ParameterError("zeta_value needs s > 1")
    k = np.arange(1, terms + 1, dtype=np.float64)
    head = float((k**-s).sum())
    tail = terms ** (1 - s) / (s - 1) - 0.5 * terms**-s + s / 12 * terms ** (-s - 1)
    return head + tail


def technical_select(
    b: Sequence[float] | np.ndarray,
    beta: float,
    p: float,
    q: float,
    p_prime: float,
    zeta_terms: int = 10**6,
) -> int:
    """Locate a short heavy prefix of a nonincreasing nonnegative sequence.

    Given sum b_j^p >= beta^p and sum b_j <= beta^q, returns the smallest m
    with m <= ceil(2^(1/(p-1)) beta^(p(q-1)/(p-1))) whose prefix sum reaches
    c m^(1-1/p') beta, where c = (2 zeta(p/p'))^(-1/p).  Existence is
    guaranteed; exhausting the bound raises FalsificationError.
    """
    arr = np.asarray(b, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ParameterError("b must be a nonempty 1-d sequence")
    if not p > 1:
        raise ParameterError("need p > 1")
    if not 1 < p_prime < p:
        raise ParameterError("need 1 < p_prime < p")
    if beta <= 0:
        raise ParameterError("need beta > 0")
    if (arr < -1e-12).any() or (np.diff(arr) > 1e-12).any():
        raise ParameterError("b must be nonincreasing and nonnegative")
    slop = 1e-9
    if float((arr**p).sum()) < beta**p * (1 - slop):
        raise ParameterError("sum of b_j^p falls short of beta^p")
    if float(arr.sum()) > beta**q * (1 + slop):
        raise ParameterError("sum of b_j exceeds beta^q")
    c = (2 * zeta_value(p / p_prime, zeta_terms)) ** (-1 / p)
    bound = math.ceil(2 ** (1 / (p - 1)) * beta ** (p * (q - 1) / (p - 1)))
    kmax = min(bound, arr.size)
    prefix = 0.0
    for m in range(1, kmax + 1):
        prefix += float(arr[m - 1])
        if prefix >= c * m ** (1 - 1 / p_prime) * beta - 1e-12:
            return m
    raise FalsificationError(
        f"no prefix of length <= {kmax} captured the required mass"
    )


Theta = Union[float, Fraction]


def _circle_distance(t: Theta) -> Theta:
    frac = t - math.floor(t)
    return min(frac, 1 - frac)


def dirichlet(thetas: Sequence[Theta], Q: int) -> int:
    """Least q in [Q] with ||q theta_j|| < Q^(-1/m) for all j.

    Exact integer comparisons when the thetas are Fractions.  The strict
    inequality is what the pigeonhole argument yields; no q at all raises
    FalsificationError.
    """
    m = len(thetas)
    if m < 1 or Q < 1:
        raise ParameterError("need at least one theta and Q >= 1")
    exact = all(isinstance(t, Fraction) for t in thetas)
    if not exact:
        cutoff = Q ** (-1.0 / m)
    for q in range(1, Q + 1):
        good = True
        for t in thetas:
            dist = _circle_distance(q * t)
            if exact:
                # ||q theta||^m < 1/Q, exactly in integers
                if Q * dist.numerator**m >= dist.denominator**m:
                    good = False
                    break
            elif dist >= cutoff:
                good = False
                break
        if good:
            return q
    raise FalsificationError(f"no q in [1, {Q}] approximates all thetas")


@dataclass(frozen=True)
class AnnihilationReport:
    annihilated: bool
    nu: float
    max_defect: float
    min_coeff: float
    coeff_bound: float


def annihilation_check(
    gamma_set: CharacterSet, x_set: Iterable[int], nu: float
) -> AnnihilationReport:
    """Does every character of the set stay nu-close to 1 on all of X?

    When it does, verifies that each |1_X^(gamma)| is at least
    (1 - nu^2/2) |X| / N, as annihilation forces.
    """
    if not 0 < nu <= 2:
        raise ParameterError("nu must lie in (0, 2]")
    if len(gamma_set) == 0:
        raise ParameterError("empty character set")
    N = gamma_set.modulus
    xs = np.asarray(sorted(set(int(x) for x in x_set)), dtype=np.int64)
    if xs.size == 0:
        raise ParameterError("empty annihilating set")
    freqs = np.asarray(gamma_set.frequencies, dtype=np.int64)
    phases = np.exp(2j * np.pi * (freqs[:, None] * xs[None, :] % N) / N)
    defect = float(np.abs(phases - 1).max())
    annihilated = defect <= nu + 1e-12
    coeffs = np.abs(phases.sum(axis=1)) / N
    bound = (1 - nu**2 / 2) * xs.size / N
    min_coeff = float(coeffs.min())
    if annihilated and min_coeff < bound - 1e-9:
        raise FalsificationError(
            f"annihilated set has coefficient {min_coeff} below {bound}"
        )
    return AnnihilationReport(
        annihilated=annihilated,
        nu=nu,
        max_defect=defect,
        min_coeff=min_coeff,
        coeff_bound=bound,
    )


def _dirichlet_progression(
    gamma_set: CharacterSet, alpha: float, n: int
) -> Progression:
    """q, 2q, ..., length q with length max(1, floor((alpha n)^(1/(m+1))/6))
    and q from the rational-approximation scan of the m frequencies."""
    m = len(gamma_set)
    length = max(1, int((alpha * n) ** (1 / (m + 1)) / 6 + 1e-12))
    thetas = [Fraction(a, gamma_set.modulus) for a in gamma_set.frequencies]
    q = dirichlet(thetas, (6 * length) ** m)
    return Progression(start=q, difference=q, length=length)


def annihilating_progression(
    gamma_set: CharacterSet, alpha: float, n: int
) -> Optional[Progression]:
    """A progression in [n] on which every character of the set stays
    1-close to 1: length floor((alpha n)^(1/(m+1))/6), common difference
    from the rational-approximation scan, span at most alpha n.

    Returns None (small-density verdict) when alpha n < 6^(m+1).
    """
    m = len(gamma_set)
    if m < 1:
        raise ParameterError("need a nonempty character set")
    if not 0 < alpha <= 1:
        raise ParameterError("alpha must lie in (0, 1]")
    if alpha * n < 6 ** (m + 1):
        return None
    prog = _dirichlet_progression(gamma_set, alpha, n)
    if prog.span > alpha * n + 1e-9 or prog.last > n:
        raise FalsificationError(
            f"progression span {prog.span} exceeds alpha n = {alpha * n}"
        )
    report = annihilation_check(gamma_set, prog.elements(), 1.0)
    if not report.annihilated:
        raise FalsificationError(
            f"progression fails 1-annihilation (defect {report.max_defect})"
        )
    return prog
