import time

import numpy as np
import pytest

import skewlab as sl
from conftest import (
    composition_2040,
    dense_square_scan,
    greedy_free_set,
    peak_memory,
    row_shift_definition,
)
from skewlab import fourier
from skewlab.fourier import cross_spectrum, marginal_spectrum
from skewlab.increment import (
    _COLUMN_ROUTE,
    _ROW_ROUTE,
    _best_translate,
    _column_extract,
    _guaranteed_step,
    _l2_route,
    _row_extract,
    _scan_candidates,
)


# ---------------------------------------------------------------------------
# pigeonhole
# ---------------------------------------------------------------------------

def _box_density(along, p: sl.Progression, translate: sl.Progression) -> float:
    """The share of the box P x P' that the band's values `along` fill."""
    return sum(v in translate.elements() for v in along) / p.length**2


def test_pigeonhole_full_band_reaches_density_one():
    p = sl.Progression(start=3, difference=2, length=5)
    along = np.array([y for x in p.elements() for y in range(1, 33)])
    assert _box_density(along, p, _best_translate(along, p, 32)) == pytest.approx(1)


def test_pigeonhole_empty_band():
    p = sl.Progression(start=1, difference=1, length=4)
    translate = _best_translate(np.zeros(0, dtype=np.int64), p, 16)
    assert translate == p  # the first start wins the all-zero tie


def test_pigeonhole_guarantee_on_random_bands():
    rng = np.random.default_rng(0)
    n = 32
    ties = 0
    for axis in ("columns", "rows"):
        for _ in range(20):
            d = int(rng.integers(1, 4))
            length = int(rng.integers(2, n // d // 2 + 2))
            start = int(rng.integers(1, n - (length - 1) * d))
            p = sl.Progression(start=start, difference=d, length=length)
            if p.span > n:
                continue
            rate = rng.choice((0.05, 0.3))
            pts = [  # (coordinate in P, coordinate matched against P')
                (u, v)
                for u in p.elements()
                for v in range(1, n + 1)
                if rng.random() < rate
            ]
            xy = pts if axis == "columns" else [(v, u) for u, v in pts]
            xs, ys = sl.make_grid_set(xy, sl.grid(n)).coordinates()
            translate = _best_translate(ys if axis == "columns" else xs, p, n)
            density = _box_density([v for _, v in pts], p, translate)
            assert density >= len(pts) / (length * n) - p.span / n - 1e-12
            # independent exhaustive check of the maximizer: the first start
            # reaching the best count wins
            counts = []
            for s in range(1, n - (length - 1) * d + 1):
                elems = set(range(s, s + length * d, d))
                counts.append(sum(1 for u, v in pts if v in elems))
            best = max(counts)
            assert density == best / length**2
            assert translate.start == counts.index(best) + 1
            assert (translate.difference, translate.length) == (d, length)
            ties += counts.count(best) > 1
    assert ties  # the tie rule was exercised


def test_pigeonhole_rows_axis():
    p = sl.Progression(start=2, difference=3, length=4)
    band = sl.make_grid_set(
        [(x, y) for y in p.elements() for x in range(1, 17)], sl.grid(16)
    )
    along = band.coordinates()[0]
    assert _box_density(along, p, _best_translate(along, p, 16)) == pytest.approx(1)


# ---------------------------------------------------------------------------
# spectral routes
# ---------------------------------------------------------------------------

def test_linfty_small_density_guard_at_desk_scale():
    # 32 full columns in [64]^2 (not free, so the step is called directly):
    # no L2 route opens, and the top marginal coefficient opens the dominant-
    # coefficient route for c' <= 0.03, whose block guard then reports small
    # density, as alpha < (4/c') sqrt(pi/n) at this scale
    n = 64
    half = sl.make_grid_set(
        [(x, y) for x in range(1, n // 2 + 1) for y in range(1, n + 1)], sl.grid(n)
    )
    spec = marginal_spectrum(half)
    for c_prime in (0.01, 0.02, 0.03):
        assert spec[1:].max() >= 4 * c_prime * half.density
        for C in (1, 2, 64):
            out = _guaranteed_step(half, sl.AnalysisConfig(C=C, c_prime=c_prime))
            assert out.variant == "small_density" and out.branch == "ii"
            assert out.note == "alpha below the block guard"
    # at c' = 0.05 the top coefficient stays below 4 c' alpha
    assert spec[1:].max() < 4 * 0.05 * half.density
    with pytest.raises(sl.FalsificationError, match="no spectral route opened"):
        _guaranteed_step(half, sl.AnalysisConfig(C=64, c_prime=0.05))


def _routes(a: sl.GridSet) -> list:
    """The two L2 routes of `a`, each with the spectrum it reads."""
    return [(_COLUMN_ROUTE, marginal_spectrum(a)), (_ROW_ROUTE, cross_spectrum(a))]


def test_l2_routes_none_when_hypothesis_fails():
    g = sl.make_grid_set([(1, 1), (5, 9), (9, 3)], sl.grid(16))
    for route, spec in _routes(g):
        assert _l2_route(g, spec, route, sl.AnalysisConfig()) is None


def test_shift_search_matches_definition():
    # the extractors against the definition on the torus Z/2n: the first
    # horizontal shift y maximizing sum over e in P of |A_(e+y)|, and per
    # column x the first y maximizing |(A_x - y) cap P|, then the points
    # those shifts bring onto P
    rng = np.random.default_rng(1)
    ties = wraps = 0
    for _ in range(40):
        n = int(rng.integers(3, 17))
        N = 2 * n
        a = greedy_free_set(n, rng)
        d = int(rng.integers(1, n + 1))
        length = int(rng.integers(1, n // d + 1))
        p = sl.Progression(int(rng.integers(1, n - (length - 1) * d + 1)), d, length)
        elems = list(p.elements())
        cols = [set(a.column(x)) if 1 <= x <= n else set() for x in range(N)]

        score = [sum(len(cols[(e + y) % N]) for e in elems) for y in range(N)]
        shift = score.index(max(score))
        want = {(e, y) for e in elems for y in cols[(e + shift) % N]}
        got = _column_extract(a, p)
        assert set(got.points()) == want
        ties += score.count(max(score)) > 1
        wraps += any(e + shift >= N for e in elems) and bool(want)

        shifts, want, hits = row_shift_definition(a, p)
        for col, h, y in zip(cols, hits, shifts):
            ties += bool(col) and h.count(max(h)) > 1
            wraps += any(e + y >= N and (e + y) % N in col for e in elems)
        got = _row_extract(a, p)
        assert set(got.points()) == want
    assert ties and wraps  # both the tie rule and the wraparound were exercised


def test_vertical_l2_fires_then_small_density_verdict():
    # a single full column has a flat marginal spectrum: the L2 hypothesis
    # holds at C=1, and the progression guard then reports small density
    col = sl.make_grid_set([(7, y) for y in range(1, 33)], sl.grid(32))
    res = _l2_route(col, marginal_spectrum(col), _COLUMN_ROUTE, sl.AnalysisConfig(C=1.0))
    assert res is not None and res.variant == "small_density"
    assert res.note == "alpha n below the progression guard"


def test_horizontal_fires_then_small_density_verdict():
    # columns holding two points at distance 16 give rich row spectra
    comb = sl.make_grid_set(
        [(x, y) for x in range(1, 9) for y in (1, 17)], sl.grid(32)
    )
    assert sl.find_skew_corner(comb) is None
    res = _l2_route(comb, cross_spectrum(comb), _ROW_ROUTE, sl.AnalysisConfig(C=1.0))
    assert res is not None and res.variant == "small_density"
    assert res.note == "alpha n below the progression guard"


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


def _count_column_power(monkeypatch) -> list:
    """Record each pass over `column_power` made through skewlab.fourier."""
    calls = []
    real = fourier.column_power

    def counted(a):
        calls.append(a.ambient)
        return real(a)

    monkeypatch.setattr(fourier, "column_power", counted)
    return calls


def test_a_step_makes_at_most_one_column_power_pass(monkeypatch):
    # the cross spectrum is the step's one pass over the column power
    # spectra: best effort computes it once, guaranteed mode reads the
    # dichotomy's, and below alpha = 8/n it needs none
    calls = _count_column_power(monkeypatch)
    a = sl.product_construction(sl.find_base_set(6), 216)
    sl.increment_step(a)
    assert len(calls) == 1
    calls.clear()
    sl.increment_step(a, mode="guaranteed")
    assert len(calls) <= 1
    calls.clear()
    out = sl.increment_step(composition_2040(), sl.AnalysisConfig(C=1.0), "guaranteed")
    assert out.note == "alpha n below the progression guard"  # in the route loop
    assert len(calls) == 1


def test_guaranteed_step_route_verdicts_above_eight_over_n():
    # the composition of the committed witnesses is free with alpha above
    # 8/n, so the step passes the dichotomy and reaches the route loop
    comp = composition_2040()
    n = comp.ambient.size
    assert sl.find_skew_corner(comp) is None
    assert len(comp) == 18_081 and comp.density > 8 / n
    at_one = sl.AnalysisConfig(C=1.0)
    row = _l2_route(comp, cross_spectrum(comp), _ROW_ROUTE, at_one)
    assert row is not None and row.variant == "small_density"  # row opens first
    out = sl.increment_step(comp, at_one, "guaranteed")
    assert out.variant == "small_density" and out.branch == "iv"
    assert out.note == "alpha n below the progression guard"
    # past C = 1 no L2 route opens; the top marginal coefficient opens the
    # dominant-coefficient route for these c', and its block guard stops it
    for route, spec in _routes(comp):
        assert _l2_route(comp, spec, route, sl.AnalysisConfig(C=2.0)) is None
    for C, c_prime in ((2, 0.01), (4, 0.02), (8, 0.01)):
        cfg = sl.AnalysisConfig(C=C, c_prime=c_prime)
        out = sl.increment_step(comp, cfg, "guaranteed")
        assert out.variant == "small_density" and out.branch == "ii"
        assert out.note == "alpha below the block guard"
    # at c' = 0.05 the top coefficient stays below 4 c' alpha
    for C in (2, 64):
        with pytest.raises(sl.FalsificationError, match="no spectral route opened"):
            sl.increment_step(comp, sl.AnalysisConfig(C=C, c_prime=0.05), "guaranteed")


def test_increment_deterministic():
    rng = np.random.default_rng(9)
    a = greedy_free_set(18, rng)
    o1 = sl.increment_step(a)
    o2 = sl.increment_step(a)
    assert o1 == o2


def test_increment_best_effort_on_product_at_512():
    # the 9^3-point product in [512]^2; an O(N^3) shift search once made
    # this step take 40 s, so the time gate is generous
    a = sl.product_construction(sl.find_base_set(6), 512)
    t0 = time.perf_counter()
    out = sl.increment_step(a)
    elapsed = time.perf_counter() - t0
    assert out.variant == "subsquare"
    assert sl.find_skew_corner(out.extracted) is None
    assert out.density >= a.density
    assert out.extracted_count == len(out.extracted)
    assert elapsed < 10


def test_increment_best_effort_at_the_cap_memory_and_time():
    # the 9^4 product in [2048]^2, at the side cap; a dense (n+1)^2 prefix-sum
    # table in the subsquare scan once made this step's traced peak 128 MiB
    a = sl.product_construction(sl.find_base_set(6), 2048)
    t0 = time.perf_counter()
    out = sl.increment_step(a)
    elapsed = time.perf_counter() - t0
    with peak_memory() as peak:
        assert sl.increment_step(a) == out
    assert out.variant == "subsquare" and out.density >= a.density
    assert elapsed < 5
    assert peak.bytes <= 32 * 2**20
    # one point in every column: the scan's prefix sums cover all n columns
    n = 2048
    ys = np.random.default_rng(14).integers(1, n + 1, n)
    b = sl.GridSet.from_arrays(np.arange(1, n + 1), ys, sl.grid(n))
    with peak_memory() as scan:
        _scan_candidates(b)
    assert scan.bytes <= 80 * 2**20
    # the rest of the step stays below the scan: the row shifts' indicator
    # and scores once were two nnz x N int64 arrays, 128 MiB here
    with peak_memory() as step:
        sl.increment_step(b)
    assert step.bytes <= scan.bytes + 2**20


def test_scan_matches_dense_reference():
    # the scan over the nonempty columns against the dense prefix-sum search,
    # on free sets with empty columns: greedy sets with some columns dropped
    # (n <= 128, every side L) and one point per kept column (n > 128)
    rng = np.random.default_rng(15)
    ties = 0
    for n in [*rng.integers(1, 129, 16).tolist(), 129, 300, 777]:
        if n <= 128:
            xs, ys = greedy_free_set(n, rng).coordinates()
        else:
            xs, ys = np.arange(1, n + 1), rng.integers(1, n + 1, n)
        keep = rng.random(n + 1)[xs] < rng.choice((0.2, 0.6))
        a = sl.GridSet.from_arrays(xs[keep], ys[keep], sl.grid(n))
        if len(a) == 0:
            continue
        got = [
            (c.n_prime, c.progression.start, c.translate.start)
            for c in _scan_candidates(a)
        ]
        want = dense_square_scan(a)
        assert got == want
        # a window starting at an empty column ties with the window at the
        # next nonempty column, if that one fits, and must win the tie
        sizes = a.column_sizes()
        for L, sx, _ in want:
            if sizes[sx - 1] == 0:
                ties += sx + int(np.argmax(sizes[sx - 1 :] > 0)) <= n - L + 1
    assert ties


def test_best_effort_skips_blocks_wider_than_the_grid():
    # at n = 4 the Dirichlet bound Q = 8 gives the dominant-coefficient
    # route a block of difference 8, which fits in no square of [4]^2
    a = sl.make_grid_set([(1, 2), (2, 1), (2, 4), (3, 3), (4, 3)], sl.grid(4))
    out = sl.increment_step(a)
    assert out.variant == "subsquare" and out.density >= a.density
    rng = np.random.default_rng(11)
    for n in range(1, 40):
        for _ in range(5):
            a = greedy_free_set(n, rng)
            assert sl.increment_step(a).density >= a.density - 1e-12


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


def test_experiment_counts_match_both_counters():
    # one trial reproduces the experiment's draw of B, so its means are the
    # closed forms |B| sum_d r_B(d)^2 and sum_d r_B(d)^2 of that single B x B
    for N in range(1, 25):
        for beta in (0, 0.3, 0.5, 1):
            for seed in range(3):
                elems = np.flatnonzero(np.random.default_rng(seed).random(N) < beta)
                xs, ys = np.repeat(elems, elems.size), np.tile(elems, elems.size)
                prod = sl.GridSet.from_arrays(xs, ys, sl.torus(N))
                rep = sl.product_set_experiment(beta, N, 1, seed)
                assert rep.mean_skew_count == sl.count_skew_corners_fft(prod).total
                assert rep.mean_corner_count == sl.count_corners(prod).total


def test_experiment_is_seeded():
    a = sl.product_set_experiment(0.5, 16, 5, 123)
    b = sl.product_set_experiment(0.5, 16, 5, 123)
    assert a == b
    c = sl.product_set_experiment(0.5, 16, 5, 124)
    assert a != c


def test_experiment_rejects_large_N():
    with pytest.raises(sl.ParameterError):
        sl.product_set_experiment(0.5, 512, 1, 0)
    for N in (0, -3):
        with pytest.raises(sl.ParameterError, match="1 <= N <= 256"):
            sl.product_set_experiment(0.5, N, 1, 0)
