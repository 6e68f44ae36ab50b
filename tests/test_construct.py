import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewlab as sl
from skewlab.construct import free_verification


def test_freiman_embed_examples():
    assert sl.freiman_embed([5], 7, 1) == 5  # d=1 collapses to identity
    assert sl.freiman_embed([1, 1, 1], 4, 3) == 1
    assert sl.freiman_embed([2, 1], 2, 2) == 2
    assert sl.freiman_embed([1, 2], 2, 2) == 5


def test_freiman_embed_rejects_out_of_range():
    with pytest.raises(sl.ParameterError):
        sl.freiman_embed([0, 1], 2, 2)
    with pytest.raises(sl.ParameterError):
        sl.freiman_embed([3, 1], 2, 2)
    with pytest.raises(sl.ParameterError):
        sl.freiman_embed([1, 1], 2, 3)


def test_freiman_embed_injective_into_range():
    m, d = 3, 3
    values = {
        sl.freiman_embed(x, m, d)
        for x in itertools.product(range(1, m + 1), repeat=d)
    }
    assert len(values) == m**d
    assert min(values) == 1 and max(values) <= (2 * m) ** d


def test_freiman_additive_structure_exhaustive():
    # phi(x) + phi(x') = phi(x'') + phi(x''') iff x + x' = x'' + x'''
    for m, d in ((2, 2), (3, 2), (2, 3), (3, 3)):
        box = list(itertools.product(range(1, m + 1), repeat=d))
        phi = {x: sl.freiman_embed(x, m, d) for x in box}
        arr = np.array(box)
        vals = np.array([phi[x] for x in box])
        k = len(box)
        sums_phi = vals[:, None] + vals[None, :]
        sums_vec = arr[:, None, :] + arr[None, :, :]
        flat_phi = sums_phi.reshape(-1)
        flat_vec = sums_vec.reshape(-1, d)
        order = np.argsort(flat_phi, kind="stable")
        sp, sv = flat_phi[order], flat_vec[order]
        # equal embedded sums must come from equal vector sums and conversely
        same_phi = sp[1:] == sp[:-1]
        same_vec = (sv[1:] == sv[:-1]).all(axis=1)
        assert (same_phi == same_vec).all()


def test_sphere_family_worked_example():
    fam = sl.sphere_family(2, 2, 5, 4)
    assert sorted(fam) == [((1, 2), (2, 1)), ((2, 1), (1, 2))]


def test_sphere_family_trivial_m1():
    assert sl.sphere_family(1, 1, 1, 1) == [((1,), (1,))]


def test_sphere_family_partition_identity():
    for m, d in ((2, 2), (3, 2)):
        total = sum(
            len(sl.sphere_family(m, d, r, t))
            for r in range(1, d * m * m + 1)
            for t in range(1, d * m * m + 1)
        )
        assert total == m ** (2 * d)


def test_sphere_family_bi_subset_of_plain():
    for r in range(1, 9):
        for t in range(1, 9):
            bi = set(sl.sphere_family(2, 2, r, t, bi=True))
            plain = set(sl.sphere_family(2, 2, r, t))
            assert bi <= plain


def test_sphere_family_sets_are_free_in_lattice():
    # spot-check: embedded family at (m, d) = (3, 2) has no skew corner
    for r, t in ((5, 6), (9, 9), (13, 12)):
        fam = sl.sphere_family(3, 2, r, t)
        if not fam:
            continue
        pts = [
            (sl.freiman_embed(x, 3, 2), sl.freiman_embed(y, 3, 2))
            for x, y in fam
        ]
        a = sl.make_grid_set(pts, sl.grid(36))
        assert sl.find_skew_corner(a) is None


def test_sphere_construction_n16_example():
    a, params = sl.sphere_construction(16)
    assert (params.m, params.d) == (2, 2)
    assert sl.find_skew_corner(a) is None
    assert len(a) * params.d**2 * params.m**4 >= params.m ** (2 * params.d)
    assert all(1 <= x <= 16 and 1 <= y <= 16 for x, y in a.points())


def test_sphere_construction_rejects_degenerate():
    with pytest.raises(sl.ParameterError):
        sl.sphere_construction(1)


def test_sphere_construction_deterministic():
    a1, p1 = sl.sphere_construction(4096)
    a2, p2 = sl.sphere_construction(4096)
    assert p1 == p2 and a1 == a2


def test_bi_sphere_construction_desk_instance():
    # n = 64 selects d = 3, m = 2
    a, params = sl.bi_sphere_construction(64)
    assert (params.m, params.d) == (2, 3)
    assert sl.is_bi_skew_corner_free(a)
    m, d = params.m, params.d
    assert len(a) * d**3 * m**6 >= m ** (2 * d)  # m^(2d-6)/d^3 floor


def test_bi_sphere_equal_params_subset():
    plain, p = sl.sphere_construction(64)
    bi_fam = set(sl.sphere_family(p.m, p.d, p.r, p.t, bi=True))
    plain_fam = set(sl.sphere_family(p.m, p.d, p.r, p.t))
    assert bi_fam <= plain_fam


def test_product_construction_single_digit_base():
    base = sl.BaseSet(2, sl.make_grid_set([(0, 0)], sl.torus(2)))
    a = sl.product_construction(base, 4)
    assert list(a.points()) == [(1, 1)]


def test_product_construction_size_and_freeness():
    base = sl.find_base_set(6)
    assert base is not None and len(base) > 6
    k = 2
    a = sl.product_construction(base, 36)
    assert len(a) == len(base) ** k
    assert sl.find_skew_corner(a) is None  # auto-verified for n <= 64 anyway


def test_product_construction_rejects_small_n():
    base = sl.BaseSet(2, sl.make_grid_set([(0, 0)], sl.torus(2)))
    with pytest.raises(sl.ParameterError):
        sl.product_construction(base, 1)


def test_base_set_requires_freeness():
    bad = sl.make_grid_set([(0, 0), (0, 1), (1, 0)], sl.torus(3))
    assert sl.find_skew_corner(bad) is not None
    with pytest.raises(sl.ParameterError):
        sl.BaseSet(3, bad)


def test_growth_table_formula():
    rows = sl.growth_table([1024])
    row = rows[0]
    lg = math.log2(1024)
    assert row.fitted_c == pytest.approx(
        (2 * lg - math.log2(row.size)) / math.sqrt(lg)
    )
    assert row.density == row.size / 1024**2


def test_verify_free_accepts_construction_and_flags_corners():
    a, _ = sl.sphere_construction(256)
    assert sl.verify_free(a)
    bad = sl.make_grid_set([(1, 1), (1, 2), (2, 1)], sl.grid(2))
    with pytest.raises(sl.FalsificationError):
        sl.verify_free(bad)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 2000))
def test_dimension_choice_matches_formulas(n):
    a, params = None, None
    try:
        a, params = sl.sphere_construction(n)
    except sl.ParameterError:
        pytest.skip("degenerate n")
    d_expect = math.isqrt(int(2 * math.log2(n)))
    assert params.d == d_expect
    assert (2 * params.m) ** params.d <= n
    assert (2 * (params.m + 1)) ** params.d > n


def test_verify_free_samples_above_the_exhaustive_limit():
    # one full column: pair work 4500^2 (+1 with the neighbour) > 2 * 10^7
    column = [(1, y) for y in range(1, 4501)]
    with_neighbour = sl.make_grid_set(column + [(2, 1)], sl.grid(4500))
    assert free_verification(with_neighbour) == "sampled"
    with pytest.raises(sl.FalsificationError, match="through columns 1 and 2"):
        sl.verify_free(with_neighbour)
    alone = sl.make_grid_set(column, sl.grid(4500))
    assert free_verification(alone) == "sampled"
    assert sl.verify_free(alone) is True
