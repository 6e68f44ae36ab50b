import numpy as np
import pytest

import skewlab as sl
from conftest import greedy_free_set
from skewlab.fourier import marginal_spectrum


# ---------------------------------------------------------------------------
# pigeonhole
# ---------------------------------------------------------------------------

def test_pigeonhole_full_band_reaches_density_one():
    p = sl.Progression(start=3, difference=2, length=5)
    band = sl.make_grid_set(
        [(x, y) for x in p.elements() for y in range(1, 33)], sl.grid(32)
    )
    res = sl.pigeonhole_square(band, p, axis="columns")
    assert res.density == pytest.approx(1)


def test_pigeonhole_empty_band():
    p = sl.Progression(start=1, difference=1, length=4)
    res = sl.pigeonhole_square(sl.make_grid_set([], sl.grid(16)), p)
    assert res.count == 0 and res.density == 0


def test_pigeonhole_guarantee_on_random_bands():
    rng = np.random.default_rng(0)
    n = 32
    for _ in range(20):
        d = int(rng.integers(1, 4))
        length = int(rng.integers(2, n // d // 2 + 2))
        start = int(rng.integers(1, n - (length - 1) * d))
        p = sl.Progression(start=start, difference=d, length=length)
        if p.span > n:
            continue
        pts = [
            (x, y)
            for x in p.elements()
            for y in range(1, n + 1)
            if rng.random() < 0.3
        ]
        band = sl.make_grid_set(pts, sl.grid(n))
        res = sl.pigeonhole_square(band, p, axis="columns")
        assert res.density >= res.base_density - p.span / n - 1e-12
        # independent exhaustive check of the maximizer
        best = -1
        for s in range(1, n - (length - 1) * d + 1):
            elems = set(range(s, s + length * d, d))
            c = sum(1 for x, y in pts if y in elems)
            best = max(best, c)
        assert res.count == best


def test_pigeonhole_rows_axis():
    p = sl.Progression(start=2, difference=3, length=4)
    band = sl.make_grid_set(
        [(x, y) for y in p.elements() for x in range(1, 17)], sl.grid(16)
    )
    res = sl.pigeonhole_square(band, p, axis="rows")
    assert res.density == pytest.approx(1)


def test_pigeonhole_validates_band_and_span():
    p = sl.Progression(start=1, difference=8, length=4)  # span 32 > 16
    with pytest.raises(sl.ParameterError):
        sl.pigeonhole_square(sl.make_grid_set([], sl.grid(16)), p)
    p = sl.Progression(start=1, difference=1, length=2)
    stray = sl.make_grid_set([(5, 5)], sl.grid(16))
    with pytest.raises(sl.ParameterError):
        sl.pigeonhole_square(stray, p, axis="columns")


# ---------------------------------------------------------------------------
# spectral routes
# ---------------------------------------------------------------------------

def test_linfty_requires_coefficient():
    g = sl.make_grid_set([(1, 1), (5, 9), (9, 3)], sl.grid(16))
    with pytest.raises(sl.ParameterError):
        sl.vertical_linfty_increment(g, 1, sl.AnalysisConfig(c_prime=0.24))


def test_linfty_small_density_guard_at_desk_scale():
    n = 64
    half = sl.make_grid_set(
        [(x, y) for x in range(1, n // 2 + 1) for y in range(1, n + 1)], sl.grid(n)
    )
    cfg = sl.AnalysisConfig(C=64, c_prime=0.03)
    spec = marginal_spectrum(half)
    gamma = int(np.argmax(spec[1:]) + 1)
    assert spec[gamma] >= 4 * cfg.c_prime * half.density
    res = sl.vertical_linfty_increment(half, gamma, cfg)
    assert res.small_density  # alpha < (4/c') sqrt(pi/n) at this scale


def test_l2_routes_none_when_hypothesis_fails():
    g = sl.make_grid_set([(1, 1), (5, 9), (9, 3)], sl.grid(16))
    assert sl.vertical_l2_increment(g) is None
    assert sl.horizontal_increment(g) is None
    empty = sl.make_grid_set([], sl.grid(16))
    assert sl.vertical_l2_increment(empty) is None
    assert sl.horizontal_increment(empty) is None


def test_vertical_l2_fires_then_small_density_verdict():
    # a single full column has a flat marginal spectrum: the L2 hypothesis
    # holds at C=1, and the progression guard then reports small density
    col = sl.make_grid_set([(7, y) for y in range(1, 33)], sl.grid(32))
    res = sl.vertical_l2_increment(col, sl.AnalysisConfig(C=1.0))
    assert res is not None and res.small_density
    assert len(res.gamma_set) >= 1


def test_horizontal_fires_then_small_density_verdict():
    # columns holding two points at distance 16 give rich row spectra
    comb = sl.make_grid_set(
        [(x, y) for x in range(1, 9) for y in (1, 17)], sl.grid(32)
    )
    assert sl.find_skew_corner(comb) is None
    res = sl.horizontal_increment(comb, sl.AnalysisConfig(C=1.0))
    assert res is not None and res.small_density


def test_extraction_helpers_preserve_freeness():
    # exercised through the relaxed best-effort path: every candidate's
    # extracted set passes the oracle (enforced inside increment_step)
    rng = np.random.default_rng(5)
    a = greedy_free_set(20, rng)
    out = sl.increment_step(a)
    assert out.extracted is not None
    assert sl.find_skew_corner(out.extracted) is None


# ---------------------------------------------------------------------------
# full step
# ---------------------------------------------------------------------------

def test_increment_empty_input_small_density():
    out = sl.increment_step(sl.make_grid_set([], sl.grid(8)))
    assert out.variant == "small_density"
    assert out.branch == "i"


def test_increment_rejects_non_free_input():
    bad = sl.make_grid_set([(1, 1), (1, 2), (2, 1)], sl.grid(2))
    with pytest.raises(sl.ParameterError):
        sl.increment_step(bad)


def test_increment_best_effort_on_construction():
    a, _ = sl.sphere_construction(32)
    out = sl.increment_step(a)
    assert out.variant == "subsquare"
    assert out.density >= a.density
    assert sl.find_skew_corner(out.extracted) is None
    assert out.extracted_count == len(out.extracted)
    assert out.box_area == out.n_prime**2


def test_increment_best_effort_guarantees_density():
    rng = np.random.default_rng(6)
    for n in (12, 20, 28):
        a = greedy_free_set(n, rng)
        out = sl.increment_step(a)
        assert out.variant == "subsquare"
        assert out.density >= a.density - 1e-12
        assert sl.find_skew_corner(out.extracted) is None
        # densities are exact ratios of recomputed cardinalities
        assert out.extracted_count == len(out.extracted)
        assert out.density == out.extracted_count / out.box_area


def test_increment_progression_postconditions():
    rng = np.random.default_rng(7)
    a = greedy_free_set(24, rng)
    out = sl.increment_step(a)
    p, t = out.progression, out.translate
    n = a.ambient.size
    for prog in (p, t):
        assert prog is not None
        assert prog.span == prog.length * prog.difference
        assert 1 <= prog.start and prog.last <= n
    assert p.length == t.length == out.n_prime
    assert p.difference == t.difference


def test_increment_guaranteed_small_density_at_desk_scale():
    rng = np.random.default_rng(8)
    a = greedy_free_set(16, rng)
    assert a.density <= 8 / 16
    out = sl.increment_step(a, mode="guaranteed")
    assert out.variant == "small_density" and out.branch == "i"


def test_increment_deterministic():
    rng = np.random.default_rng(9)
    a = greedy_free_set(18, rng)
    o1 = sl.increment_step(a)
    o2 = sl.increment_step(a)
    assert o1 == o2


def test_increment_single_point_input():
    a = sl.make_grid_set([(3, 5)], sl.grid(8))
    out = sl.increment_step(a)
    assert out.variant == "subsquare"
    assert out.density >= a.density


# ---------------------------------------------------------------------------
# product-set experiment
# ---------------------------------------------------------------------------

def test_experiment_beta_one_and_zero():
    rep = sl.product_set_experiment(1.0, 8, 2, 0)
    assert rep.skew_over_n4 == pytest.approx(1)
    assert rep.ratio_to_alpha_5_2 == pytest.approx(1)
    rep = sl.product_set_experiment(0.0, 8, 2, 0)
    assert rep.mean_skew_count == 0
    assert rep.ratio_to_alpha_5_2 is None


def test_experiment_is_seeded():
    a = sl.product_set_experiment(0.5, 16, 5, 123)
    b = sl.product_set_experiment(0.5, 16, 5, 123)
    assert a == b
    c = sl.product_set_experiment(0.5, 16, 5, 124)
    assert a != c


def test_experiment_rejects_large_N():
    with pytest.raises(sl.ParameterError):
        sl.product_set_experiment(0.5, 512, 1, 0)
