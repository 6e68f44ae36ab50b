import itertools
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewlab as sl
from skewlab import _words, verify
from skewlab.verify import sample_skew_corner
from conftest import (
    brute_corner_tuples,
    brute_first_corner,
    brute_skew_tuples,
    column_skew_tuples,
    peak_memory,
    rand_grid_set,
    rand_torus_set,
    wide_sparse_grid_set,
)


def test_find_skew_corner_definition_instance():
    a = sl.make_grid_set([(1, 1), (1, 2), (2, 1)], sl.grid(2))
    w = sl.find_skew_corner(a)
    assert w is not None
    # witness points must belong to the set, with d != 0
    assert w.d != 0
    assert (w.x, w.y) in a and (w.x, w.y + w.d) in a and (w.x + w.d, w.y_prime) in a


def test_find_skew_corner_none_on_free_pair():
    a = sl.make_grid_set([(1, 1), (2, 2)], sl.grid(2))
    assert sl.find_skew_corner(a) is None


def test_find_skew_corner_torus_witness_wraps():
    a = sl.make_grid_set([(0, 0), (0, 3), (3, 1)], sl.torus(4))
    w = sl.find_skew_corner(a)
    assert w is not None


def test_a_corner_may_point_back_to_a_scanned_column():
    """Column x1 has no corner, and column x2 > x1 has one only through
    x1: clearing a column's own occupancy entry while it is scanned must
    not hide it from the columns after it."""
    for a in (
        sl.make_grid_set([(1, 1), (1, 6), (4, 1), (4, 4)], sl.grid(8)),
        sl.make_grid_set([(0, 0), (0, 5), (3, 0), (3, 3)], sl.torus(12)),
    ):
        w = sl.find_skew_corner(a)
        assert w == brute_first_corner(a) and w.d == -3
        assert sample_skew_corner(a, 64) == (w.x, w.x + w.d)


def test_exhaustive_grid2_matches_brute_force():
    cells = [(x, y) for x in range(1, 3) for y in range(1, 3)]
    for r in range(5):
        for combo in itertools.combinations(cells, r):
            a = sl.make_grid_set(list(combo), sl.grid(2))
            assert (sl.find_skew_corner(a) is None) == (
                brute_skew_tuples(a)[1] == 0
            )


def test_count_empty_and_singleton():
    assert sl.count_skew_corners_naive(sl.make_grid_set([], sl.grid(4))) == \
        sl.CornerCount(0, 0)
    single = sl.make_grid_set([(2, 3)], sl.torus(5))
    assert sl.count_skew_corners_naive(single) == sl.CornerCount(1, 0)


def test_count_full_torus_is_n4():
    for N in (2, 4):
        pts = [(x, y) for x in range(N) for y in range(N)]
        a = sl.make_grid_set(pts, sl.torus(N))
        assert sl.count_skew_corners_naive(a).total == N**4
        assert sl.count_skew_corners_fft(a).total == N**4


def test_counts_match_quadruple_loop_oracle():
    rng = np.random.default_rng(11)
    for N in (3, 5, 6):
        for density in (0.2, 0.5):
            a = rand_torus_set(rng, N, density)
            t, nt = brute_skew_tuples(a)
            assert sl.count_skew_corners_naive(a) == sl.CornerCount(t, nt)
            assert sl.count_skew_corners_fft(a) == sl.CornerCount(t, nt)


def test_grid_counts_match_oracle_no_wraparound():
    rng = np.random.default_rng(12)
    for n in (3, 4, 5):
        a = rand_grid_set(rng, n, 0.4)
        t, nt = brute_skew_tuples(a)
        assert sl.count_skew_corners_naive(a) == sl.CornerCount(t, nt)


def test_fft_equals_naive_on_random_torus_sets():
    rng = np.random.default_rng(13)
    for N in (8, 16, 32, 64):
        for _ in range(5):
            a = rand_torus_set(rng, N, 0.3)
            assert sl.count_skew_corners_fft(a) == sl.count_skew_corners_naive(a)


def test_fft_embeds_grid_inputs():
    rng = np.random.default_rng(14)
    a = rand_grid_set(rng, 8, 0.4)
    assert sl.count_skew_corners_fft(a) == sl.count_skew_corners_naive(
        sl.embed_torus(a)
    )


def test_trivial_component_is_sum_of_squared_columns():
    rng = np.random.default_rng(15)
    a = rand_torus_set(rng, 10, 0.5)
    expected = int((a.column_sizes() ** 2).sum())
    assert sl.count_skew_corners_naive(a).trivial == expected


@settings(max_examples=40, deadline=None)
@given(
    st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12),
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
)
def test_adding_a_point_never_decreases_counts(pts, extra):
    a = sl.make_grid_set(list(pts), sl.torus(6))
    b = sl.make_grid_set(list(pts | {extra}), sl.torus(6))
    ca, cb = sl.count_skew_corners_naive(a), sl.count_skew_corners_naive(b)
    assert cb.trivial >= ca.trivial
    assert cb.nontrivial >= ca.nontrivial


def test_find_none_iff_zero_nontrivial():
    rng = np.random.default_rng(16)
    for _ in range(20):
        a = rand_torus_set(rng, 6, 0.3)
        assert (sl.find_skew_corner(a) is None) == (
            sl.count_skew_corners_naive(a).nontrivial == 0
        )


def test_bi_skew_examples(eight_point_set):
    assert sl.is_bi_skew_corner_free(sl.make_grid_set([], sl.grid(3)))
    skew = sl.make_grid_set([(1, 1), (1, 2), (2, 1)], sl.grid(2))
    assert not sl.is_bi_skew_corner_free(skew)
    assert sl.find_skew_corner(eight_point_set) is None
    assert sl.is_bi_skew_corner_free(eight_point_set)


def test_count_corners_examples_and_oracle():
    assert sl.count_corners(sl.make_grid_set([], sl.torus(4))).total == 0
    single = sl.make_grid_set([(1, 2)], sl.torus(4))
    assert sl.count_corners(single) == sl.CornerCount(1, 0)
    rng = np.random.default_rng(17)
    sets = [rand_torus_set(rng, N, 0.4) for N in (4, 8, 16)]
    # lone points, whose columns the pair kernel skips, next to fuller columns
    sets.append(sl.make_grid_set([(0, 0), (0, 3), (1, 0), (3, 2), (4, 0)], sl.torus(5)))
    sets += [rand_torus_set(rng, N, 0.1) for N in (4, 8, 16)]
    for a in sets:
        t, nt = brute_corner_tuples(a)
        assert sl.count_corners(a) == sl.CornerCount(t, nt)


def test_count_corners_cost_is_the_pair_work():
    # a sparse torus of side 1024: about 4 * 10^5 pairs against N^3 = 10^9
    a = rand_torus_set(np.random.default_rng(18), 1024, 0.02)
    start = time.perf_counter()
    c = sl.count_corners(a)
    assert time.perf_counter() - start < 1
    assert c.trivial == len(a)
    with pytest.raises(sl.CapabilityError, match="bool table"):
        sl.count_corners(sl.make_grid_set([], sl.torus(1025)))


def test_count_corners_requires_torus():
    with pytest.raises(sl.ParameterError):
        sl.count_corners(sl.make_grid_set([(1, 1)], sl.grid(2)))


def test_fft_refuses_oversized_ambients():
    huge = sl.make_grid_set([(1, 1), (20000, 3)], sl.grid(65536))
    with pytest.raises(sl.CapabilityError):
        sl.count_skew_corners_fft(huge)
    # the naive counter handles sparse sets of any side
    assert sl.count_skew_corners_naive(huge) == sl.CornerCount(2, 0)


def test_fft_residue_guard_raises_precision_error(monkeypatch):
    import numpy.fft as nf

    real_irfft = nf.irfft

    def noisy_irfft(x, n=None, axis=-1, out=None):
        return real_irfft(x, n=n, axis=axis, out=out) + 0.002  # above the 1e-3 tolerance

    monkeypatch.setattr(nf, "irfft", noisy_irfft)
    a = sl.make_grid_set([(0, 0), (0, 1), (1, 0)], sl.torus(4))
    with pytest.raises(sl.PrecisionError):
        sl.count_skew_corners_fft(a)


@pytest.fixture(scope="module")
def kernel_corpus() -> list[tuple[sl.GridSet, tuple[int, int]]]:
    """Seeded torus and grid sets of small, odd and non-power-of-two sides,
    plus a grid set with one column of 300 points, each with its
    brute-force tuple counts."""
    rng = np.random.default_rng(21)
    sets = [
        make(rng, side, density)
        for make in (rand_torus_set, rand_grid_set)
        for side in (1, 2, 3, 5, 7, 12)
        for density in (0.3, 0.7, 1.0)
    ]
    tall = [(7, int(y)) for y in rng.choice(np.arange(1, 302), 300, replace=False)]
    extra = [(int(x), int(y)) for x, y in rng.integers(1, 302, (30, 2))]
    sets.append(sl.make_grid_set(tall + extra, sl.grid(301)))
    return [(a, brute_skew_tuples(a)) for a in sets]


@pytest.mark.parametrize("block", [1, 5, 64, None])
def test_pair_blocks_match_definitions(monkeypatch, kernel_corpus, block):
    """Row blocks of one row, a few rows and the default size give the
    brute-force count, the first corner in (column, j1, j2) order, and
    sampled probes that name two columns really forming a corner."""
    if block is not None:
        monkeypatch.setattr("skewlab.verify._PAIR_BLOCK", block)
    monkeypatch.setattr("skewlab.construct.VERIFY_EXHAUSTIVE_MAX", 0)
    raised = 0
    for a, (t, nt) in kernel_corpus:
        assert sl.count_skew_corners_naive(a) == sl.CornerCount(t, nt)
        w = sl.find_skew_corner(a)
        assert w == brute_first_corner(a)
        if w is not None:
            assert (w.x, w.y) in a and (w.x, w.y + w.d) in a
            x3 = w.x + w.d
            assert (x3 % a.ambient.size if a.ambient.kind == "torus" else x3, w.y_prime) in a
        try:
            assert sl.verify_free(a, probes=200, seed=block or 0) is True
        except sl.FalsificationError as exc:
            raised += 1
            x, x3 = map(int, re.search(r"columns (\d+) and (\d+)", str(exc)).groups())
            assert _columns_form_a_corner(a, x, x3), (a, str(exc))
    assert raised >= 10


def _columns_form_a_corner(a: sl.GridSet, x: int, x3: int) -> bool:
    """Some pair y, y + d of column x with d != 0 has x + d = x3 (mod N on
    a torus), and column x3 is nonempty."""
    N, col = a.ambient.size, a.column(x)
    on_torus = a.ambient.kind == "torus"
    for y1, y2 in itertools.product(col, col):
        d = y2 - y1
        if d != 0 and a.column(x3) and ((x + d - x3) % N == 0 if on_torus else x + d == x3):
            return True
    return False


def test_pair_kernel_memory_is_flat_in_the_column_height():
    # one free column of 4000 points: 1.6 * 10^7 pairs, no corner to stop at
    a = sl.make_grid_set([(1, y) for y in range(1, 4001)], sl.grid(4000))
    with peak_memory() as count_peak:
        assert sl.count_skew_corners_naive(a) == sl.CornerCount(4000**2, 0)
    with peak_memory() as find_peak:
        assert sl.find_skew_corner(a) is None
    assert count_peak.bytes < 8 * 2**20 and find_peak.bytes < 8 * 2**20


def test_wide_grid_kernels_hold_no_three_n_table():
    """On a sparse set in a grid of side 2^18, most pair differences point
    off the grid, and the lagged tables are n + 2 entries long: the count's
    int64 table stays under 3n * 8 bytes and find's bool occupancy under
    3n bytes, with everything else they allocate included."""
    n = 1 << 18
    rng = np.random.default_rng(5)
    xs = np.repeat(rng.integers(1, n + 1, 2000), 3)
    a = sl.GridSet.from_arrays(xs, rng.integers(1, n + 1, xs.size), sl.grid(n))
    cols = {x: a.column(x) for x in np.unique(xs).tolist()}
    trivial = sum(len(c) ** 2 for c in cols.values())
    first, total = None, 0
    for x, col in cols.items():
        for y1, y2 in itertools.product(col, col):
            x3 = x + y2 - y1
            total += len(cols.get(x3, ()))
            if first is None and x3 != x and x3 in cols:
                first = sl.Witness(x=x, y=y1, y_prime=cols[x3][0], d=y2 - y1)
    with peak_memory() as count_peak:
        count = sl.count_skew_corners_naive(a)
    with peak_memory() as find_peak:
        witness = sl.find_skew_corner(a)
    assert count == sl.CornerCount(trivial, total - trivial)
    assert witness == first
    assert count_peak.bytes < 3 * n * 8
    assert find_peak.bytes < 3 * n


def test_wide_grid_count_holds_one_byte_per_column():
    """About 6000 points in the grid of side 2^20, at most 3 a column: the
    lookup table holds the sizes as uint8 and the nonempty columns are
    found through a bool mask, so the count's memory stays under 2.5 MiB,
    where one int64 entry per column would take 8 MiB."""
    a, cols = wide_sparse_grid_set(1 << 20, 6)
    with peak_memory() as peak:
        count = sl.count_skew_corners_naive(a)
    assert count == sl.CornerCount(*column_skew_tuples(cols))
    assert peak.bytes <= 2.5 * 2**20


def test_pair_kernels_hold_one_block_buffer():
    """The free 9^6 product in [46656]^2, whose first column has 729
    points and whose later ones 486 and 324, in blocks of 64 881, 65 124
    and 65 448 pairs: one buffer of the largest block serves every column,
    so find stays under 1 MiB and the count under 1.25 MiB, where a buffer
    regrown for a larger block was held together with the one before."""
    a = sl.product_construction(sl.find_base_set(6), 46656)
    with peak_memory() as find_peak:
        assert sl.find_skew_corner(a) is None
    with peak_memory() as count_peak:
        count = sl.count_skew_corners_naive(a)
    assert count == sl.CornerCount(int((a.column_sizes() ** 2).sum()), 0)
    assert find_peak.bytes <= 2**20 and count_peak.bytes <= 1.25 * 2**20


def test_only_verify_knows_the_lookup_layout():
    import skewlab.construct
    import skewlab.fourier
    import skewlab.increment

    for mod in (skewlab.construct, skewlab.fourier, _words, skewlab.increment):
        for name in ("pair_targets", "_lag_pad", "_lagged_table", "_lookup", "_lag_column",
                     "_lagged_total", "lag_pad", "lagged_table", "lag_column"):
            assert not hasattr(mod, name), (mod.__name__, name)


_WORD_SIDES = (1, 2, 5, 63, 64, 65, 127, 128, 129)
_MIXED_SIDES = _WORD_SIDES[3:]


def _mixed_set(rng: np.random.Generator, kind: str, N: int) -> sl.GridSet:
    """Columns of N/2, exactly N/4 and N/4 - 1 points (the last one below
    the dense threshold), sparse columns of 2 and 3 points, lone points
    and empty columns."""
    amb = sl.torus(N) if kind == "torus" else sl.grid(N)
    heights = [N // 2, N // 4, N // 4 - 1, 3, 2, 1, 1]
    xs = rng.choice(N, len(heights), replace=False)
    pts = [
        (int(x) + amb.lo, int(y) + amb.lo)
        for x, k in zip(xs, heights)
        for y in rng.choice(N, k, replace=False)
    ]
    return sl.make_grid_set(pts, amb)


def _tall_column_set(rng: np.random.Generator, kind: str, top: int) -> sl.GridSet:
    """Side 257, a column of `top` points beside dense columns of 100 and 65
    points and sparse columns of 64, 3, 2 and 1: with top 255 the naive
    count's lookup table is uint8, with 256 uint16."""
    N = 257
    amb = sl.torus(N) if kind == "torus" else sl.grid(N)
    heights = [top, 100, 65, 64, 3, 2, 1]
    xs = rng.choice(N, len(heights), replace=False)
    pts = [
        (int(x) + amb.lo, int(y) + amb.lo)
        for x, k in zip(xs, heights)
        for y in rng.choice(N, k, replace=False)
    ]
    return sl.make_grid_set(pts, amb)


@pytest.fixture(scope="module")
def word_corpus() -> list[sl.GridSet]:
    """Seeded grid and torus sets at sides around the 64-bit word, at
    densities 0.3, 0.7 and 1.0, sets with a column of 255 and of 256
    points, and a mixed set at each side of at least 63 (these last)."""
    rng = np.random.default_rng(24)
    sets = [
        make(rng, side, density)
        for make in (rand_torus_set, rand_grid_set)
        for side in _WORD_SIDES
        for density in (0.3, 0.7, 1.0)
    ]
    sets += [_tall_column_set(rng, kind, top) for kind in ("torus", "grid") for top in (255, 256)]
    sets += [_mixed_set(rng, kind, N) for kind in ("torus", "grid") for N in _MIXED_SIDES]
    return sets


@pytest.mark.parametrize("words", [1, 40, None])
def test_dense_columns_match_the_pair_kernel_and_the_fft(monkeypatch, word_corpus, words):
    """Every column counted by its pairs, every column of two or more
    points counted from its autocorrelation words, and the default split
    give the same count.  It equals the brute force on the small sets and
    the FFT count, which on a grid set counts its embedding.
    Word buffers of one word and of a few words, which split the bit
    offsets into passes, run on the mixed sets."""
    if words is not None:
        monkeypatch.setattr(_words, "_WORD_BLOCK", words)
        word_corpus = word_corpus[-2 * len(_MIXED_SIDES) :]
    for a in word_corpus:
        counts = []
        for share in (0, verify._DENSE_SHARE, 1 << 40):
            with monkeypatch.context() as m:
                m.setattr(verify, "_DENSE_SHARE", share)
                counts.append(sl.count_skew_corners_naive(a))
        assert counts[0] == counts[1] == counts[2], a
        if a.ambient.size <= 5 or (a.ambient.size <= 65 and len(a) <= 200):
            assert counts[0] == sl.CornerCount(*brute_skew_tuples(a)), a
        if a.ambient.size > 1:
            assert sl.count_skew_corners_fft(a) == sl.count_skew_corners_naive(
                sl.embed_torus(a)
            ), a
            # a grid difference |d| < n never wraps onto an occupied
            # column of the side-2n torus, so the counts agree on grids too
            assert counts[0] == sl.count_skew_corners_fft(a), a


def test_the_dense_threshold_is_a_quarter_of_the_side(monkeypatch):
    """A column of exactly N/4 points takes the word path, one of N/4 - 1
    points and every lone point the pair kernel."""
    taken = []
    real = _words.column_autocorrelations

    def recorded(columns, ambient):
        taken.append(columns)
        return real(columns, ambient)

    monkeypatch.setattr(_words, "column_autocorrelations", recorded)
    rng = np.random.default_rng(25)
    for kind in ("torus", "grid"):
        for N in (64, 65):
            a = _mixed_set(rng, kind, N)
            taken.clear()
            count = sl.count_skew_corners_naive(a)
            heights = sorted(ys.size for _, ys in taken[0])
            assert heights == ([N // 4, N // 2] if N % 4 == 0 else [N // 2]), (kind, N)
            assert count == sl.CornerCount(*brute_skew_tuples(a))


def test_dense_count_holds_no_square_array():
    """The torus 1024 at density 1/2 (every column dense): the count equals
    the FFT count, and its memory beyond the set stays under 1 MiB, an
    eighth of one N x N int64 array."""
    a = rand_torus_set(np.random.default_rng(26), 1024, 0.5)
    with peak_memory() as peak:
        count = sl.count_skew_corners_naive(a)
    assert count == sl.count_skew_corners_fft(a)
    assert peak.bytes < 2**20
