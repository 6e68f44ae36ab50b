import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewlab as sl
from conftest import (
    brute_skew_tuples,
    peak_memory,
    rand_grid_set,
    rand_torus_set,
    row_shift_definition,
)
from skewlab import fourier, verify
from skewlab.increment import _row_extract


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def test_row_transforms_match_dft():
    # average-normalized: rows[x, a] = E_y f(x, y) e(-ay/N)
    rng = np.random.default_rng(1)
    vals = rng.normal(size=(6, 6))
    rows = sl.row_transforms(sl.TwoDFunction(6, vals))
    y = np.arange(6)
    for x in range(6):
        for a in range(6):
            want = np.mean(vals[x] * np.exp(-2j * np.pi * a * y / 6))
            assert rows[x, a] == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# counting form
# ---------------------------------------------------------------------------

def test_lambda_constant_is_one():
    one = sl.TwoDFunction(6, np.ones((6, 6)))
    assert sl.lambda_form(one, one, one) == pytest.approx(1)


def test_lambda_singleton():
    N = 8
    ind = sl.TwoDFunction.indicator(sl.make_grid_set([(2, 5)], sl.torus(N)))
    assert sl.lambda_form(ind, ind, ind) == pytest.approx(1 / N**4)


def test_lambda_matches_tuple_counts():
    rng = np.random.default_rng(2)
    for N in (4, 8):
        a = rand_torus_set(rng, N, 0.4)
        ind = sl.TwoDFunction.indicator(a)
        lam = sl.lambda_form(ind, ind, ind)
        assert lam * N**4 == pytest.approx(
            sl.count_skew_corners_naive(a).total, rel=1e-9, abs=1e-6
        )


def test_lambda_requires_equal_moduli():
    with pytest.raises(sl.ParameterError):
        sl.lambda_form(
            sl.TwoDFunction(4, np.ones((4, 4))),
            sl.TwoDFunction(4, np.ones((4, 4))),
            sl.TwoDFunction(6, np.ones((6, 6))),
        )


def test_lambda_consistency_guard_detects_route_disagreement(monkeypatch):
    import skewlab.fourier as fourier_mod

    real = fourier_mod.row_transforms
    monkeypatch.setattr(fourier_mod, "row_transforms", lambda f: real(f) * 1.001)
    ind = sl.TwoDFunction.indicator(
        sl.make_grid_set([(0, 0), (1, 2), (3, 1)], sl.torus(4))
    )
    with pytest.raises(sl.ConsistencyError):
        sl.lambda_form(ind, ind, ind)


def _lambda_corpus():
    """Random grid and torus sets with N <= 64 (grids embed at 2n <= 64),
    odd sides, the empty set and single points among them."""
    rng = np.random.default_rng(43)
    sets = [
        sl.make_grid_set([], sl.torus(5)),
        sl.make_grid_set([], sl.grid(4)),
        sl.make_grid_set([(0, 0)], sl.torus(1)),
        sl.make_grid_set([(3, 1)], sl.torus(7)),
        sl.make_grid_set([(2, 2)], sl.grid(3)),
    ]
    for side in (1, 2, 3, 4, 7, 15, 16, 31, 64):
        for density in (0.05, 0.4, 1.0):
            sets.append(rand_torus_set(rng, side, density))
            if side <= 32:
                sets.append(rand_grid_set(rng, side, density))
    return sets


def test_set_lambda_form_matches_the_dense_oracle():
    for a in _lambda_corpus():
        ind = sl.TwoDFunction.indicator(a)
        lam, total = sl.set_lambda_form(a)
        assert lam == pytest.approx(sl.lambda_form(ind, ind, ind), rel=1e-12, abs=1e-15), a
        assert total == sl.count_skew_corners_fft(a).total
        if a.ambient.kind == "torus":
            assert total == sl.count_skew_corners_naive(a).total


def test_set_lambda_form_guard_detects_route_disagreement(monkeypatch):
    import skewlab.fourier as fourier_mod

    real = fourier_mod.autocorrelation_total
    monkeypatch.setattr(
        fourier_mod, "autocorrelation_total", lambda *block: real(*block) + 1
    )
    a = sl.make_grid_set([(0, 0), (1, 2), (3, 1)], sl.torus(4))
    with pytest.raises(sl.ConsistencyError):
        sl.set_lambda_form(a)


def test_set_lambda_form_builds_no_square_array():
    # a torus of side 512 at density 1/2; one N x N float64 array is 2 MiB
    a = rand_torus_set(np.random.default_rng(41), 512, 0.5)
    with peak_memory() as peak:
        lam, total = sl.set_lambda_form(a)
    assert peak.bytes < 1.5 * 2**20
    assert total == sl.count_skew_corners_naive(a).total
    assert lam * 512**4 == pytest.approx(total, rel=1e-12)


# ---------------------------------------------------------------------------
# marginal spectrum
# ---------------------------------------------------------------------------

def test_marginal_spectrum_matches_the_balanced_indicator():
    """|fft|/N of the column means of the indicator minus alpha on the
    set's own [n]^2 block; coefficient 0 of that balanced marginal is 0."""
    rng = np.random.default_rng(3)
    sets = [sl.make_grid_set([], sl.grid(4)), sl.make_grid_set([], sl.torus(5))]
    for side in (1, 2, 5, 6, 9):
        for density in (0.2, 0.5, 1.0):
            sets += [rand_grid_set(rng, side, density), rand_torus_set(rng, side, density)]
    for a in sets:
        n, lo = a.ambient.size, a.ambient.lo
        values = sl.TwoDFunction.indicator(a).values
        values[lo : lo + n, lo : lo + n] -= len(a) / n**2
        marg = values.mean(axis=1)
        got = sl.fourier.marginal_spectrum(a)
        np.testing.assert_allclose(got, np.abs(np.fft.fft(marg)) / marg.size, atol=1e-12)
        assert got[0] < 1e-12


# ---------------------------------------------------------------------------
# counting inequality, dichotomy, spectral cross sums
# ---------------------------------------------------------------------------

def test_gvn_full_torus_and_empty():
    N = 4
    full = sl.make_grid_set([(x, y) for x in range(N) for y in range(N)], sl.torus(N))
    rep = sl.check_gvn(full)
    assert rep.lam == pytest.approx(1)
    assert rep.max_nontrivial_coeff == pytest.approx(0)
    rep = sl.check_gvn(sl.make_grid_set([], sl.torus(N)))
    assert rep.lam == 0 and rep.inequality_holds


def test_gvn_holds_on_random_sets():
    rng = np.random.default_rng(4)
    for N in (4, 8, 12, 16):
        for _ in range(25):
            a = rand_torus_set(rng, N, float(rng.uniform(0.05, 0.8)))
            rep = sl.check_gvn(a)  # raises FalsificationError on violation
            assert rep.inequality_holds


def test_gvn_embeds_grid_sets():
    rng = np.random.default_rng(5)
    for n in (1, 4, 7):
        g = rand_grid_set(rng, n, 0.5)
        assert sl.check_gvn(g) == sl.check_gvn(sl.embed_torus(g))


def test_dichotomy_empty_and_diagonal():
    rep = sl.dichotomy_report(sl.make_grid_set([], sl.grid(8)))
    assert rep.branch == "i"
    diag = sl.make_grid_set([(i, i) for i in range(1, 9)], sl.grid(8))
    assert sl.find_skew_corner(diag) is None
    rep = sl.dichotomy_report(diag)
    assert rep.branch in ("i", "ii")


def test_dichotomy_rejects_non_free_input():
    bad = sl.make_grid_set([(1, 1), (1, 2), (2, 1)], sl.grid(2))
    with pytest.raises(sl.ParameterError):
        sl.dichotomy_report(bad)


@pytest.mark.parametrize(
    "a, message",
    [
        (sl.make_grid_set([(0, 0), (0, 1), (1, 0)], sl.torus(4)), "expects a grid-ambient set"),
        (sl.make_grid_set([(1, 1), (1, 2), (2, 1)], sl.grid(4096)), "capped at side 4096"),
    ],
    ids=["torus", "over-the-cap"],
)
def test_refusals_come_before_the_corner_scan(monkeypatch, tmp_path, capsys, a, message):
    """A torus set and a grid past the FFT cap are refused, with exit code
    2 from the CLI, before any column pair is scanned."""
    from skewlab import cli, fourier

    def no_scan(_):
        raise AssertionError("find_skew_corner called before the refusal")

    monkeypatch.setattr(fourier, "find_skew_corner", no_scan)
    path = tmp_path / "in.txt"
    sl.save_skewset(a, path)
    for argv in (
        ["diagnose", "--in", str(path), "--check", "dichotomy"],
        ["increment", "--in", str(path)],
    ):
        assert cli.run(argv) == 2
        assert message in capsys.readouterr().err


_SPECTRAL_PATHS = {
    "count_skew_corners_fft": sl.count_skew_corners_fft,
    "column_power": lambda a: next(verify.column_power(a)),
    "set_lambda_form": sl.set_lambda_form,
    "check_gvn": sl.check_gvn,
    "parseval_bound": sl.parseval_bound,
    "marginal_spectrum": fourier.marginal_spectrum,
    "cross_spectrum": fourier.cross_spectrum,
    "TwoDFunction.indicator": sl.TwoDFunction.indicator,
}
_GRID_SPECTRAL_PATHS = {
    "dichotomy_report": sl.dichotomy_report,
    "increment_step": sl.increment_step,
}


@pytest.fixture(scope="module")
def past_the_cap():
    """Two-point sets whose torus side 2^21 passes MAX_FFT_SIDE."""
    return {
        "grid": sl.make_grid_set([(1, 1), (2, 3)], sl.grid(1 << 20)),
        "torus": sl.make_grid_set([(0, 0), (1, 2)], sl.torus(1 << 21)),
    }


@pytest.mark.parametrize(
    "kind, path",
    [("grid", p) for p in [*_SPECTRAL_PATHS, *_GRID_SPECTRAL_PATHS]]
    + [("torus", p) for p in _SPECTRAL_PATHS],
)
def test_spectral_paths_refuse_before_building(past_the_cap, kind, path):
    """Every FFT and spectral path refuses a side past the cap before it
    builds anything of that side: one float64 array of side 2^21 alone
    would take 16 MiB."""
    call = {**_SPECTRAL_PATHS, **_GRID_SPECTRAL_PATHS}[path]
    with peak_memory() as peak:
        with pytest.raises(sl.CapabilityError, match="capped at side 4096"):
            call(past_the_cap[kind])
    assert peak.bytes < 2**20


def test_dichotomy_on_construction_output():
    a, _ = sl.sphere_construction(32)
    rep = sl.dichotomy_report(a)
    assert rep.branch in ("i", "ii")


def test_parseval_full_sum_counts_nonempty_columns():
    rng = np.random.default_rng(5)
    # half the columns occupied on a torus of side 8
    pts = [(x, y) for x in range(0, 8, 2) for y in range(8) if rng.random() < 0.6]
    a = sl.make_grid_set(pts, sl.torus(8))
    rep = sl.parseval_bound(a)
    assert rep.full_sum == pytest.approx(rep.nonempty_columns / 8, abs=1e-9)
    assert rep.nontrivial_sum <= rep.full_sum + 1e-12
    empty = sl.parseval_bound(sl.make_grid_set([], sl.torus(8)))
    assert empty.full_sum == 0


def test_parseval_exactly_half_the_columns():
    pts = [(x, y) for x in range(4) for y in (0, 2, x)]
    a = sl.make_grid_set(pts, sl.torus(8))
    rep = sl.parseval_bound(a)
    assert rep.nonempty_columns == 4
    assert rep.full_sum == pytest.approx(0.5, abs=1e-9)


def test_parseval_embeds_grid_sets():
    rng = np.random.default_rng(6)
    a = rand_grid_set(rng, 8, 0.5)
    rep = sl.parseval_bound(a)
    assert rep.modulus == 16
    nonempty = int((a.column_sizes() > 0).sum())
    assert rep.full_sum == pytest.approx(nonempty / 16, abs=1e-9)
    assert rep.nontrivial_sum <= 1 + 1e-12


def _with_empty_columns(a: sl.GridSet, rng: np.random.Generator) -> sl.GridSet:
    """`a` restricted to a random ~60% of its columns."""
    keep = rng.random(a.ambient.size) < 0.6
    pts = [(x, y) for x, y in a.points() if keep[x - a.ambient.lo]]
    return sl.make_grid_set(pts, a.ambient)


@pytest.mark.parametrize("block_entries", [1, 40])
def test_column_blocks_match_definitions(monkeypatch, block_entries):
    # a block of one row, or of one to a few rows: many blocks per call
    monkeypatch.setattr(verify, "_BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 9, 12):
        for make in (rand_torus_set, rand_grid_set):
            a = _with_empty_columns(make(rng, n, 0.4), rng)
            t = a if make is rand_torus_set else sl.embed_torus(a)
            count = sl.count_skew_corners_fft(a)
            if t is a:
                assert count == sl.count_skew_corners_naive(a)
            else:
                assert (count.trivial, count.nontrivial) == brute_skew_tuples(t)

            ind = sl.TwoDFunction.indicator(a)
            # each row scaled to unit L1 average; empty rows stay zero
            norms = ind.values.mean(axis=1)
            normalized = np.zeros_like(ind.values)
            normalized[norms > 0] = ind.values[norms > 0] / norms[norms > 0, None]
            definition = np.mean(
                np.abs(sl.row_transforms(ind))
                * np.abs(sl.row_transforms(sl.TwoDFunction(ind.modulus, normalized))),
                axis=0,
            )
            np.testing.assert_allclose(
                sl.fourier.cross_spectrum(a), definition, rtol=0, atol=1e-12
            )

            if a.ambient.kind == "grid":
                d = int(rng.integers(1, n + 1))
                length = int(rng.integers(1, n // d + 1))
                start = int(rng.integers(1, n - (length - 1) * d + 1))
                p = sl.Progression(start, d, length)
                _, want, _ = row_shift_definition(a, p)
                got = _row_extract(a, p)
                assert set(got.points()) == want
    for N in (31, 48):  # larger odd and non-power-of-two sides
        a = _with_empty_columns(rand_torus_set(rng, N, 0.3), rng)
        assert sl.count_skew_corners_fft(a) == sl.count_skew_corners_naive(a)


def test_dichotomy_and_fft_count_hold_no_dense_array():
    # only the nonempty columns are transformed, a block at a time: at the
    # increment cap a dense N x N complex spectrum alone would take 256 MiB
    prod = sl.product_construction(sl.find_base_set(6), 2048)  # 9^4 points
    with peak_memory() as peak:
        assert sl.dichotomy_report(prod).branch in ("i", "ii")
    assert peak.bytes < 32 * 2**20
    a = rand_torus_set(np.random.default_rng(8), 2048, 1 / 50)
    with peak_memory() as peak:
        sl.count_skew_corners_fft(a)
    assert peak.bytes < 32 * 2**20


# ---------------------------------------------------------------------------
# heavy-prefix selection
# ---------------------------------------------------------------------------

def test_zeta_against_mpmath():
    for s in (9 / 8, 25 / 24, 1.5, 2.0):
        assert abs(sl.zeta_value(s) - float(mpmath.zeta(s))) < 1e-12


def test_technical_select_worked_example():
    # single heavy term: c < 1 so m = 1 qualifies
    b = [0.5] + [0.0] * 30
    assert sl.technical_select(b, 0.5, 1.5, 0.0, 4 / 3) == 1
    c = (2 * sl.zeta_value(9 / 8)) ** (-2 / 3)
    assert c < 1


def test_technical_select_q1_delta_sequence():
    b = [1.0] + [0.0] * 10
    assert sl.technical_select(b, 1.0, 2.0, 1.0, 1.5) == 1


def test_technical_select_validates_input():
    with pytest.raises(sl.ParameterError):
        sl.technical_select([0.1, 0.5], 0.5, 1.5, 0.0, 4 / 3)  # increasing
    with pytest.raises(sl.ParameterError):
        sl.technical_select([0.5, 0.1], 0.5, 1.5, 0.0, 1.6)  # p' >= p
    with pytest.raises(sl.ParameterError):
        sl.technical_select([0.01, 0.0], 0.5, 1.5, 0.0, 4 / 3)  # mass short


def _feasible_sequence(rng, p, q):
    raw = np.sort(rng.uniform(0, 1, size=rng.integers(2, 40)))[::-1]
    lam = ((raw**p).sum() ** (q / p) / raw.sum()) ** (1 / (1 - q))
    b = lam * raw
    beta = float((b**p).sum() ** (1 / p))
    return b, beta


@pytest.mark.parametrize("p,q,p_prime", [(1.5, 0.0, 4 / 3), (1.25, 0.5, 1.2)])
def test_technical_select_property(p, q, p_prime):
    rng = np.random.default_rng(7)
    c = (2 * sl.zeta_value(p / p_prime)) ** (-1 / p)
    for _ in range(100):
        b, beta = _feasible_sequence(rng, p, q)
        m = sl.technical_select(b, beta, p, q, p_prime)
        bound = math.ceil(2 ** (1 / (p - 1)) * beta ** (p * (q - 1) / (p - 1)))
        assert 1 <= m <= bound
        assert b[:m].sum() >= c * m ** (1 - 1 / p_prime) * beta - 1e-9


# ---------------------------------------------------------------------------
# rational approximation and annihilation
# ---------------------------------------------------------------------------

def test_dirichlet_worked_examples():
    assert sl.dirichlet([Fraction(1, 3)], 3) == 3
    assert sl.dirichlet([Fraction(1, 2), Fraction(1, 3)], 36) == 6
    assert sl.dirichlet([Fraction(0, 1)], 7) == 1


def test_dirichlet_accepts_floats():
    q = sl.dirichlet([0.123456], 50)
    assert 1 <= q <= 50
    dist = abs(q * 0.123456 - round(q * 0.123456))
    assert dist <= 1 / 50


def test_dirichlet_bound_holds_on_random_rationals():
    rng = np.random.default_rng(8)
    for _ in range(50):
        m = int(rng.integers(1, 4))
        N = int(rng.integers(8, 200))
        thetas = [Fraction(int(rng.integers(1, N)), N) for _ in range(m)]
        ell = int(rng.integers(1, 5))
        Q = (6 * ell) ** m
        q = sl.dirichlet(thetas, Q)
        assert 1 <= q <= Q
        for t in thetas:
            frac = q * t - math.floor(q * t)
            dist = min(frac, 1 - frac)
            assert float(dist) <= Q ** (-1 / m) + 1e-12


def test_annihilation_examples():
    gs = sl.CharacterSet(24, (1, 5))
    rep = sl.annihilation_check(gs, [0])
    assert rep.annihilated  # characters are 1 at 0
    gs = sl.CharacterSet(24, (1,))
    rep = sl.annihilation_check(gs, range(0, 3))
    assert rep.annihilated
    assert rep.min_coeff >= rep.coeff_bound - 1e-9
    gs = sl.CharacterSet(8, (4,))  # gamma(1) = e(1/2) = -1, defect 2
    rep = sl.annihilation_check(gs, [1])
    assert not rep.annihilated
    assert rep.max_defect == pytest.approx(2)


def test_annihilating_progression_small_density_guard():
    gs = sl.CharacterSet(64, (3,))
    assert sl.annihilating_progression(gs, 0.5, 32) is None  # 16 < 36


def test_annihilating_progression_contract():
    n = 10**4
    gs = sl.CharacterSet(2 * n, (1,))
    prog = sl.annihilating_progression(gs, 1.0, n)
    assert prog is not None
    assert prog.length == int(math.isqrt(n) / 6)
    assert prog.span <= n
    assert prog.last <= n
    rep = sl.annihilation_check(gs, prog.elements())
    assert rep.annihilated


def test_annihilating_progression_multi_character():
    n = 2600  # alpha n just above 6^3 with alpha = 1 allows m = 2
    gs = sl.CharacterSet(2 * n, (7, 1100))
    prog = sl.annihilating_progression(gs, 1.0, n)
    assert prog is not None
    assert prog.span <= n
    defects = [
        abs(np.exp(2j * np.pi * a * x / (2 * n)) - 1)
        for a in gs.frequencies
        for x in prog.elements()
    ]
    assert max(defects) <= 1 + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 63), st.integers(2, 40))
def test_progression_elements_consistent(start, length):
    p = sl.Progression(start=start, difference=3, length=length)
    els = list(p.elements())
    assert len(els) == length
    assert els[0] == start and els[-1] == p.last
    assert p.span == length * 3


def test_progression_index_matches_elements():
    # values below, inside and beyond each progression, on and off its residue
    rng = np.random.default_rng(16)
    for _ in range(200):
        d = int(rng.integers(1, 8))
        p = sl.Progression(int(rng.integers(-20, 21)), d, int(rng.integers(1, 12)))
        v = np.arange(p.start - 3 * d - 2, p.last + 3 * d + 3)
        els = list(p.elements())
        want = [els.index(x) + 1 if x in els else 0 for x in v.tolist()]
        assert p.index(v).tolist() == want
