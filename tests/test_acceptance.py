"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Randomized inputs are seeded; thresholds and time limits are asserted as
stated, so a failure here is either a regression or a falsification event.
"""

import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import skewlab as sl
from conftest import EIGHT_POINTS, composition_2040, greedy_free_set

SEED = 20240509


def _ok(num: int, msg: str) -> None:
    print(f"criterion {num:2d} PASS: {msg}")


def _random_torus_sets(seed, sizes, densities, per_combo):
    rng = np.random.default_rng(seed)
    for N in sizes:
        for dens in densities:
            for _ in range(per_combo):
                mask = rng.random((N, N)) < dens
                xs, ys = np.nonzero(mask)
                yield sl.GridSet.from_arrays(xs, ys, sl.torus(N))


def test_criterion_01_eight_point_example():
    a = sl.make_grid_set(EIGHT_POINTS, sl.torus(6))
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        free = sl.find_skew_corner(a) is None
        bi_free = sl.is_bi_skew_corner_free(a)
        best = min(best, time.perf_counter() - t0)
    assert free, "the 8-point example set must be skew-corner-free"
    assert bi_free, (
        "interpretation finding: the example is not bi-free under the "
        "transpose reading"
    )
    assert best < 1e-3
    _ok(1, f"8-point example free and bi-free in {best * 1e6:.0f} us")


def test_criterion_02_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for a in _random_torus_sets(SEED, (8, 16, 32, 64), (0.1, 0.3, 0.6), 100):
        assert sl.count_skew_corners_fft(a) == sl.count_skew_corners_naive(a)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 1200
    assert elapsed < 30
    _ok(2, f"fft == naive on {checked} sets in {elapsed:.1f}s")


def test_criterion_03_lambda_identity():
    checked = 0
    for a in _random_torus_sets(SEED, (8, 16, 32), (0.1, 0.3, 0.6), 100):
        N = a.ambient.size
        ind = sl.TwoDFunction.indicator(a)
        # lambda_form itself enforces direct-vs-spectral agreement at 1e-9
        lam = sl.lambda_form(ind, ind, ind)
        total = sl.count_skew_corners_naive(a).total
        assert abs(lam * N**4 - total) <= 1e-6 * max(total, 1)
        checked += 1
    _ok(3, f"N^4 lambda matches tuple totals on {checked} sets")


def test_criterion_04_counting_inequality():
    rng = np.random.default_rng(SEED + 4)
    checked = 0
    for N in (4, 8, 12, 16):
        for _ in range(100):
            dens = float(rng.uniform(0.05, 0.9))
            mask = rng.random((N, N)) < dens
            xs, ys = np.nonzero(mask)
            a = sl.GridSet.from_arrays(xs, ys, sl.torus(N))
            rep = sl.check_gvn(a)  # raises FalsificationError on violation
            assert rep.inequality_holds
            checked += 1
    assert checked == 400
    _ok(4, f"counting inequality held on {checked} sets, zero falsifications")


def test_criterion_05_dichotomy():
    inputs = []
    for n in (1, 2, 3, 4):
        inputs.append(sl.max_skew_corner_free(sl.grid(n)).witness)
    for n in (16, 24, 32):
        inputs.append(sl.sphere_construction(n)[0])
    base = sl.find_base_set(6)
    inputs.append(sl.product_construction(base, 6))
    inputs.append(composition_2040())
    for a in inputs:
        assert sl.find_skew_corner(a) is None
        rep = sl.dichotomy_report(a)  # raises FalsificationError if neither
        assert rep.branch in ("i", "ii")
    # the last input, the composition, is the one past the small-density guard
    assert a.density > 8 / a.ambient.size and rep.branch == "ii"
    _ok(5, f"dichotomy verified on {len(inputs)} free sets")


def test_criterion_06_parseval_bound():
    rng = np.random.default_rng(SEED + 6)
    for _ in range(100):
        N = int(rng.choice([8, 12, 16]))
        mask = rng.random((N, N)) < float(rng.uniform(0.05, 0.9))
        xs, ys = np.nonzero(mask)
        a = sl.GridSet.from_arrays(xs, ys, sl.torus(N))
        rep = sl.parseval_bound(a)
        nonempty = int((a.column_sizes() > 0).sum())
        assert abs(rep.full_sum - nonempty / N) < 1e-9
        assert rep.nontrivial_sum <= rep.full_sum + 1e-12
    _ok(6, "full-spectrum cross sum equals nonempty-columns/N on 100 sets")


def test_criterion_07_heavy_prefix_selection():
    # zeta to 1e-12, checked against an independent evaluator
    for s in (1.5, 9 / 8, 25 / 24):
        assert abs(sl.zeta_value(s) - float(mpmath.zeta(s))) < 1e-12
    rng = np.random.default_rng(SEED + 7)
    for p, q, p_prime in ((1.5, 0.0, 4 / 3), (1.25, 0.5, 1.2)):
        c = (2 * sl.zeta_value(p / p_prime)) ** (-1 / p)
        bound_exp = p * (q - 1) / (p - 1)
        for _ in range(1000):
            raw = np.sort(rng.uniform(0, 1, size=int(rng.integers(2, 60))))[::-1]
            lam = ((raw**p).sum() ** (q / p) / raw.sum()) ** (1 / (1 - q))
            b = lam * raw
            beta = float(((b**p).sum()) ** (1 / p))
            m = sl.technical_select(b, beta, p, q, p_prime)
            assert 1 <= m <= math.ceil(2 ** (1 / (p - 1)) * beta**bound_exp)
            assert b[:m].sum() >= c * m ** (1 - 1 / p_prime) * beta - 1e-9
    _ok(7, "prefix selection within both bounds on 2 x 1000 sequences")


def test_criterion_08_dirichlet_and_progressions():
    rng = np.random.default_rng(SEED + 8)
    for _ in range(100):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(math.ceil(6 ** (m + 1) / 0.7), 8193))
        N = 2 * n
        assert N <= 2**14
        alpha = float(rng.uniform(0.75, 1.0))
        freqs = tuple(sorted(rng.choice(np.arange(1, N), size=m, replace=False)))
        gs = sl.CharacterSet(N, tuple(int(f) for f in freqs))
        prog = sl.annihilating_progression(gs, alpha, n)
        assert prog is not None
        ell, q = prog.length, prog.difference
        Q = (6 * ell) ** m
        assert 1 <= q <= Q
        for a in gs.frequencies:  # ||q a / N|| <= Q^(-1/m), exactly
            t = Fraction(q * a, N)
            dist = min(t - math.floor(t), math.ceil(t) - t)
            assert dist.numerator**m * Q <= dist.denominator**m
        assert prog.span <= alpha * n + 1e-9
        assert prog.last <= n
        xs = np.asarray(prog.elements())
        defects = np.abs(
            np.exp(2j * np.pi * np.outer(gs.frequencies, xs) / N) - 1
        )
        assert defects.max() <= 1 + 1e-12
    _ok(8, "approximation and 1-annihilation verified on 100 character sets")


def test_criterion_09_exact_search():
    t0 = time.perf_counter()
    rows = [sl.max_skew_corner_free(sl.grid(n)) for n in range(1, 5)]
    assert rows[0].best_size == 1  # s(1)
    assert rows[1].best_size == 2  # s(2), exhaustively confirmed in unit tests
    assert all(r.optimal for r in rows)
    sizes = [r.best_size for r in rows]
    assert sizes == sorted(sizes)
    for n, size in enumerate(sizes[1:], 2):
        built, _ = sl.sphere_construction(n)
        assert size >= len(built)
    for N in (3, 4, 5):
        sym = sl.max_skew_corner_free(sl.torus(N))
        plain = sl.max_skew_corner_free(sl.torus(N), symmetry=False)
        assert sym.best_size == plain.best_size
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    _ok(9, f"s(n): {sizes} certified; symmetry-independent; {elapsed:.1f}s")


def test_criterion_10_sphere_constructions():
    for e in (10, 12, 14, 16, 18, 20):
        n = 2**e
        t0 = time.perf_counter()
        a, p = sl.sphere_construction(n)
        if n <= 2**12:
            assert sl.find_skew_corner(a) is None
        assert sl.verify_free(a, probes=10**6, seed=SEED)
        elapsed = time.perf_counter() - t0
        size = len(a)
        assert size * p.d**2 * p.m**4 >= p.m ** (2 * p.d)  # pigeonhole, exact
        assert size >= n**2 * 2 ** (-8 * math.sqrt(math.log2(n)))
        assert elapsed < 120
    _ok(10, "sphere sets free with pigeonhole and growth floors, n up to 2^20")


def test_criterion_11_product_constructions():
    base = sl.find_base_set(6)
    assert base is not None and len(base) > 6
    for n, k in ((36, 2), (216, 3)):
        a = sl.product_construction(base, n, verify=True)  # full verification
        assert len(a) == len(base) ** k
    _ok(11, f"product sets of sizes {len(base)}^2 and {len(base)}^3 verified")


def test_criterion_12_increment_engine():
    rng = np.random.default_rng(SEED + 12)
    for i in range(20):
        n = int(rng.integers(10, 33))
        a = greedy_free_set(n, rng)
        assert sl.find_skew_corner(a) is None
        out = sl.increment_step(a, mode="best_effort")
        assert out.variant == "subsquare"
        assert sl.find_skew_corner(out.extracted) is None
        assert out.density >= a.density - 1e-12
        assert out.extracted_count == len(out.extracted)
        for prog in (out.progression, out.translate):
            assert prog is not None
            assert prog.span == prog.length * prog.difference
            assert 1 <= prog.start and prog.last <= n
        assert out.progression.length == out.translate.length == out.n_prime
    _ok(12, "20 best-effort increments: free extractions, no density loss")


def test_criterion_13_product_set_experiment():
    rep = sl.product_set_experiment(beta=0.5, N=64, trials=100, seed=SEED)
    assert 0.8 <= rep.ratio_to_alpha_5_2 <= 1.25
    assert rep.ratio_to_alpha_3 >= 1.5
    _ok(
        13,
        f"skew count {rep.ratio_to_alpha_5_2:.3f} x alpha^(5/2) N^4 and "
        f"{rep.ratio_to_alpha_3:.2f} x alpha^3 N^4",
    )


def test_criterion_14_fft_performance():
    rng = np.random.default_rng(SEED + 14)
    mask = rng.random((1024, 1024)) < 0.1
    xs, ys = np.nonzero(mask)
    a = sl.GridSet.from_arrays(xs, ys, sl.torus(1024))
    t0 = time.perf_counter()
    c = sl.count_skew_corners_fft(a)
    elapsed = time.perf_counter() - t0
    assert elapsed < 2
    assert c.nontrivial > 0
    # the naive path remains the oracle at moderate sizes
    mask = rng.random((128, 128)) < 0.1
    xs, ys = np.nonzero(mask)
    b = sl.GridSet.from_arrays(xs, ys, sl.torus(128))
    assert sl.count_skew_corners_naive(b) == sl.count_skew_corners_fft(b)
    _ok(14, f"N=1024 fft count in {elapsed:.2f}s; naive oracle agrees at N=128")
