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

from .ambient import GRID
from .core import GridSet
from .errors import ConsistencyError, FalsificationError, ParameterError
from .verify import (
    autocorrelation_total,
    column_power,
    count_skew_corners_fft,
    fft_torus,
    find_skew_corner,
)

DEFAULT_TOL = 1e-9


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

    def __post_init__(self) -> None:
        if not 0 < self.c_prime < 0.25:
            raise ParameterError("c_prime must lie in (0, 1/4)")
        if self.C < 1:
            raise ParameterError("C must be >= 1")


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
    def indicator(a: GridSet) -> "TwoDFunction":
        """Indicator of a torus set (grid sets are embedded first)."""
        a = fft_torus(a)
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

    def index(self, v: np.ndarray) -> np.ndarray:
        """1-based position of each value of `v` in the progression, 0 for
        values outside it."""
        q, r = np.divmod(np.asarray(v) - self.start, self.difference)
        return np.where((r == 0) & (q >= 0) & (q < self.length), q + 1, 0)


def row_transforms(f: TwoDFunction) -> np.ndarray:
    """Row-wise transforms: entry [x, a] holds the coefficient of f(x, .) at
    frequency a."""
    return np.fft.fft(f.values, axis=1) / f.modulus


def _check_form(direct: float, spectral: complex) -> None:
    """The direct and spectral values of the counting form must agree within
    DEFAULT_TOL."""
    if abs(spectral.imag) > DEFAULT_TOL or abs(direct - spectral.real) > DEFAULT_TOL:
        raise ConsistencyError(
            f"counting form mismatch: direct {direct!r} vs spectral "
            f"{spectral!r} beyond {DEFAULT_TOL}"
        )


def lambda_form(f: TwoDFunction, g: TwoDFunction, h: TwoDFunction) -> float:
    """The skew-corner counting form on triples of functions on (Z/NZ)^2:

        E_{x,y,y',d} f(x,y) g(x,y+d) h(x+d,y')

    Evaluated two ways, by direct summation (after collapsing y') and
    through the spectral representation; the two must agree within
    DEFAULT_TOL.  Returns the direct value.
    """
    if not f.modulus == g.modulus == h.modulus:
        raise ParameterError("lambda_form needs equal moduli")
    N = f.modulus
    sh = h.values.mean(axis=1)  # the column marginal x -> E_y h(x, y)
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
    _check_form(direct, complex((sh_hat * inner).sum()))
    return direct


def set_lambda_form(a: GridSet) -> tuple[float, int]:
    """The counting form lambda(1_A, 1_A, 1_A) of a torus set, or of a grid
    set embedded into the torus of side N = 2n, without an N x N array.

    One pass over the `verify.column_power` blocks evaluates it two ways:
    directly, as the FFT count's exact integer sum_{x,d} c_x(d) |A_{x+d}|
    over N^4 (see `verify.autocorrelation_total`), and spectrally, as

        N^-5 sum_a conj(S(a)) sum_x P_x(a) e(-ax/N)

    with P_x the power spectrum of column x and S the transform of the
    column sizes.  Real rows give P_x(N - a) = P_x(a), so the sum runs over
    the rfft half, weighted 1, 2, ..., 2, 1.  The two are checked as in
    `lambda_form`.  Returns the spectral value and the integer.
    """
    t = fft_torus(a)
    N = t.ambient.size
    sizes = t.column_sizes(out=np.empty(N))
    freqs = np.arange(N // 2 + 1)
    angle = 2 * np.pi / N * np.arange(N)
    cos, sin = np.cos(angle), np.sin(angle)
    total = 0
    re = np.zeros(freqs.size)  # sum_x P_x(a) e(-ax/N) = re - i im
    im = np.zeros(freqs.size)
    for cols, power, work in column_power(t):
        at = np.multiply.outer(cols, freqs)
        at %= N
        re += np.einsum("xa,xa->a", power, cos[at])
        im += np.einsum("xa,xa->a", power, sin[at])
        del at  # not held through the next block's transform
        total += autocorrelation_total(sizes, cols, power, work)  # overwrites power
    s = np.fft.rfft(sizes)
    weight = np.full(freqs.size, 2.0)
    weight[0] = 1
    if N % 2 == 0:
        weight[-1] = 1
    spectral = float(weight @ (s.real * re - s.imag * im)) / N**5
    _check_form(total / N**4, spectral)
    return spectral, total


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


def check_gvn(a: GridSet) -> GvnReport:
    """Check the counting inequality lambda >= alpha^3 - alpha * eta where
    eta is the largest nontrivial coefficient of the column marginal of the
    balanced indicator, on a torus set or on a grid set embedded into the
    torus of side 2n.  A violation raises FalsificationError.
    """
    a = fft_torus(a)
    N = a.ambient.size
    alpha = a.density
    lam = count_skew_corners_fft(a).total / N**4
    coeffs = marginal_spectrum(a)
    eta = float(coeffs[1:].max()) if N > 1 else 0.0
    rhs = alpha**3 - alpha * eta
    holds = lam >= rhs - DEFAULT_TOL
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
    balanced function f_A, on the torus of a torus set or of an embedded
    grid set.  f_A is the indicator minus the density alpha = |A|/n^2 on
    the set's own [n]^2 block, so coefficient 0 vanishes.

    The marginal is |A_x|/N minus the correction alpha n/N on the n columns
    of that block, so it comes from the column sizes alone.
    """
    n = a.ambient.size
    t = fft_torus(a)
    N = t.ambient.size
    marg = t.column_sizes() / N
    marg[a.ambient.lo : a.ambient.lo + n] -= len(a) / (n * N)
    return np.abs(np.fft.fft(marg)) / N


def cross_spectrum(a: GridSet) -> np.ndarray:
    """Per-frequency averages E_x |row-hat| |normalized-row-hat| over the
    columns x of a torus set or an embedded grid set, row-hat being the
    transform of 1_A(x, .) (see `row_transforms`) and the normalized row
    scaled to unit L1 average (empty rows stay zero).

    That scaling divides a row by its mass |A_x|/N, so each product is
    |row-hat|^2 N/|A_x|: one power spectrum per nonempty column (see
    `verify.column_power`) serves both factors, and empty columns add 0.
    """
    t = fft_torus(a)
    sizes = t.column_sizes()
    N = sizes.size
    cross = np.zeros(N)
    half = cross[: N // 2 + 1]
    for cols, power, _ in column_power(t):
        half += (power / sizes[cols, None]).sum(axis=0)
    cross[N // 2 + 1 :] = half[1 : N - N // 2][::-1]  # P(a) = P(N - a)
    return cross / N**2


@dataclass(frozen=True)
class DichotomyReport:
    alpha: float
    lhs: float
    branch: str  # "i" (small density) or "ii" (large spectral mass)
    small_density_threshold: float
    mass_threshold: float


def _require_free_grid(a: GridSet, who: str) -> None:
    """Refuse, in this order, a set outside a grid, a grid whose torus
    side passes the FFT cap (`fft_torus`), and a set with a skew corner:
    the two cheap checks run before the scan of every column pair."""
    if a.ambient.kind != GRID:
        raise ParameterError(f"{who} expects a grid-ambient set")
    fft_torus(a)
    w = find_skew_corner(a)
    if w is not None:
        raise ParameterError(f"{who} needs a skew-corner-free input: {w}")


def dichotomy_report(a: GridSet) -> DichotomyReport:
    """For a skew-corner-free grid set: either the density is at most 8/n, or
    the weighted nontrivial spectral mass reaches alpha^2/64."""
    _require_free_grid(a, "dichotomy_report")
    return _dichotomy(a)[0]


def _dichotomy(a: GridSet) -> tuple[DichotomyReport, np.ndarray, np.ndarray]:
    """`dichotomy_report` of a set that passed `_require_free_grid`,
    together with the marginal and cross spectra it was computed from."""
    alpha = a.density
    spectrum = marginal_spectrum(a)
    cross = cross_spectrum(a)
    lhs = float((spectrum[1:] * cross[1:]).sum())
    thr_i = 8.0 / a.ambient.size
    thr_ii = alpha**2 / 64
    if alpha <= thr_i:
        branch = "i"
    elif lhs >= thr_ii - DEFAULT_TOL:
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
        nonempty_columns=a.occupied_columns()[0].size,
        modulus=len(cross),
    )


# ---------------------------------------------------------------------------
# Mass selection, rational approximation, annihilation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def zeta_value(s: float) -> float:
    """zeta(s) for s > 1 by a direct series of 10^6 terms plus an integral
    tail with Euler-Maclaurin correction; error well below 1e-12 for the
    exponents used here."""
    if s <= 1:
        raise ParameterError("zeta_value needs s > 1")
    terms = 10**6
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
    c = (2 * zeta_value(p / p_prime)) ** (-1 / p)
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


def dirichlet(thetas: Sequence[Union[float, Fraction]], Q: int) -> int:
    """Least q in [Q] with ||q theta_j|| < Q^(-1/m) for all j.

    Every theta is read as the Fraction it equals (floats included), so the
    comparisons are exact integer ones.  The strict inequality is what the
    pigeonhole argument yields; no q at all raises FalsificationError.
    """
    m = len(thetas)
    if m < 1 or Q < 1:
        raise ParameterError("need at least one theta and Q >= 1")
    fracs = [Fraction(t) for t in thetas]
    for q in range(1, Q + 1):
        dists = (min(f, 1 - f) for f in (q * t % 1 for t in fracs))
        # ||q theta||^m < 1/Q, exactly in integers
        if all(Q * d.numerator**m < d.denominator**m for d in dists):
            return q
    raise FalsificationError(f"no q in [1, {Q}] approximates all thetas")


@dataclass(frozen=True)
class AnnihilationReport:
    annihilated: bool
    max_defect: float
    min_coeff: float
    coeff_bound: float


def annihilation_check(
    gamma_set: CharacterSet, x_set: Iterable[int]
) -> AnnihilationReport:
    """Does every character of the set stay 1-close to 1 on all of X?

    When it does, verifies that each |1_X^(gamma)| is at least |X| / 2N,
    as annihilation forces.
    """
    if len(gamma_set) == 0:
        raise ParameterError("empty character set")
    N = gamma_set.modulus
    xs = np.asarray(sorted(set(int(x) for x in x_set)), dtype=np.int64)
    if xs.size == 0:
        raise ParameterError("empty annihilating set")
    freqs = np.asarray(gamma_set.frequencies, dtype=np.int64)
    phases = np.exp(2j * np.pi * (freqs[:, None] * xs[None, :] % N) / N)
    defect = float(np.abs(phases - 1).max())
    annihilated = defect <= 1 + 1e-12
    coeffs = np.abs(phases.sum(axis=1)) / N
    bound = xs.size / (2 * N)
    min_coeff = float(coeffs.min())
    if annihilated and min_coeff < bound - 1e-9:
        raise FalsificationError(
            f"annihilated set has coefficient {min_coeff} below {bound}"
        )
    return AnnihilationReport(
        annihilated=annihilated,
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
    report = annihilation_check(gamma_set, prog.elements())
    if not report.annihilated:
        raise FalsificationError(
            f"progression fails 1-annihilation (defect {report.max_defect})"
        )
    return prog
