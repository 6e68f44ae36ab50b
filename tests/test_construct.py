import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewlab as sl
from skewlab.construct import (
    _box_points,
    _embed_many,
    _sphere_pairs,
    _sphere_params,
    free_verification,
)
from conftest import peak_memory, reference_sphere_params


def _pairs(m, d, r, t, bi=False):
    """The pair set at (r, t) as coordinate tuples, in `_sphere_pairs` order."""
    box = _box_points(m, d)
    xs = box.tolist()
    return [
        (tuple(xs[i]), tuple(xs[j]))
        for i, j in zip(*(v.tolist() for v in _sphere_pairs(box, r, t, bi)))
    ]


def test_freiman_embed_examples():
    assert _embed_many(np.array([[5]]), 7).tolist() == [5]  # d=1: identity
    assert _embed_many(np.array([[1, 1, 1]]), 4).tolist() == [1]
    assert _embed_many(np.array([[2, 1], [1, 2]]), 2).tolist() == [2, 5]


def test_freiman_embed_injective_into_range():
    m, d = 3, 3
    values = set(_embed_many(_box_points(m, d), m).tolist())
    assert len(values) == m**d
    assert min(values) == 1 and max(values) <= (2 * m) ** d


def test_freiman_additive_structure_exhaustive():
    # phi(x) + phi(x') = phi(x'') + phi(x''') iff x + x' = x'' + x'''
    for m, d in ((2, 2), (3, 2), (2, 3), (3, 3)):
        arr = _box_points(m, d)
        vals = _embed_many(arr, m)
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
    assert sorted(_pairs(2, 2, 5, 4)) == [((1, 2), (2, 1)), ((2, 1), (1, 2))]


def test_sphere_family_trivial_m1():
    assert _pairs(1, 1, 1, 1) == [((1,), (1,))]


def test_sphere_family_partition_identity():
    for m, d in ((2, 2), (3, 2)):
        total = sum(
            len(_pairs(m, d, r, t))
            for r in range(1, d * m * m + 1)
            for t in range(1, d * m * m + 1)
        )
        assert total == m ** (2 * d)


def test_sphere_family_bi_subset_of_plain():
    for r in range(1, 9):
        for t in range(1, 9):
            assert set(_pairs(2, 2, r, t, bi=True)) <= set(_pairs(2, 2, r, t))


def test_sphere_family_sets_are_free_in_lattice():
    # spot-check: embedded family at (m, d) = (3, 2) has no skew corner
    box = _box_points(3, 2)
    phi = _embed_many(box, 3)
    for r, t in ((5, 6), (9, 9), (13, 12)):
        ii, jj = _sphere_pairs(box, r, t, False)
        if not ii.size:
            continue
        pts = zip(phi[ii].tolist(), phi[jj].tolist())
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
    a, params = sl.sphere_construction(64, bi=True)
    assert (params.m, params.d) == (2, 3)
    assert sl.is_bi_skew_corner_free(a)
    m, d = params.m, params.d
    assert len(a) * d**3 * m**6 >= m ** (2 * d)  # m^(2d-6)/d^3 floor


def test_bi_sphere_equal_params_subset():
    plain, p = sl.sphere_construction(64)
    bi_fam = set(_pairs(p.m, p.d, p.r, p.t, bi=True))
    plain_fam = set(_pairs(p.m, p.d, p.r, p.t))
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


def test_sampled_verification_memory_is_flat_in_the_probes(monkeypatch):
    # the default 10^6 probes, on many columns and on one tall column
    monkeypatch.setattr("skewlab.construct.VERIFY_EXHAUSTIVE_MAX", 0)
    sphere, _ = sl.sphere_construction(2**16)
    column = sl.make_grid_set([(1, y) for y in range(1, 4501)], sl.grid(4500))
    for a in (sphere, column):
        with peak_memory() as peak:
            assert sl.verify_free(a) is True
        assert peak.bytes <= 4 * 2**20


def test_sampled_verification_memory_is_one_byte_per_column():
    """The sphere set at n = 2^20, checked by sampling: the column walk
    takes the nonempty columns and their sizes without an int64 array of
    the 2^20 columns (8 MiB each), so the check stays under 3 MiB."""
    a, _ = sl.sphere_construction(2**20)
    assert free_verification(a) == "sampled"
    with peak_memory() as peak:
        assert sl.verify_free(a) is True
    assert peak.bytes <= 3 * 2**20


def _seeded_sphere_ns() -> list[int]:
    """40 distinct n, log-uniform up to 2^21."""
    rng = np.random.default_rng(2024)
    ns: set[int] = set()
    while len(ns) < 40:
        ns.add(int(2 ** rng.uniform(1, 21)))
    return sorted(ns)


@pytest.mark.parametrize("bi", [False, True])
def test_sphere_params_match_the_box_scan(bi):
    for n in list(range(2, 3001)) + _seeded_sphere_ns():
        assert _sphere_params(n, bi) == reference_sphere_params(n, bi), n


@pytest.mark.parametrize("bi", [False, True])
def test_growth_sizes_match_built_sets(bi):
    ns = [2**e for e in range(2, 21)]
    for row in sl.growth_table(ns, bi=bi):
        a, params = sl.sphere_construction(row.n, bi=bi)
        assert (row.size, row.params) == (len(a), params), row.n


def test_sphere_params_int64_boundary():
    params, count = _sphere_params(2**38, False)
    assert (params, count) == (sl.SphereParams(13, 8, 480, 384), 9_447_648_138_544)
    with peak_memory() as peak:
        for bi in (False, True):
            with pytest.raises(sl.CapabilityError, match="overflow int64"):
                _sphere_params(2**40, bi)  # m = 16, d = 8: 16^16 = 2^64
    assert peak.bytes < 2**20


def test_product_construction_builds_one_digit_at_a_time():
    base = sl.find_base_set(6)
    assert len(base) == 9
    with peak_memory() as peak:
        a = sl.product_construction(base, 6**6)
    assert len(a) == 9**6
    # one int64 key per point and the column split of the sorted keys
    assert peak.bytes <= 20 * 2**20


def _set_bytes(a: sl.GridSet) -> int:
    return a.offsets.nbytes + a.ys.nbytes


def test_product_construction_memory_is_the_set_plus_one_mib():
    base = sl.find_base_set(6)
    with peak_memory() as peak:
        a = sl.product_construction(base, 6**6)
    # the keys are written straight into an array that becomes the set's ys
    assert peak.bytes <= _set_bytes(a) + 2**20


def test_sphere_construction_memory_is_the_set_plus_four_mib():
    with peak_memory() as peak:
        a, _ = sl.sphere_construction(2**18)
    assert len(a) == 41_760
    assert peak.bytes <= _set_bytes(a) + 4 * 2**20


@pytest.mark.parametrize("bi", [False, True])
@pytest.mark.parametrize("m, d", [(1, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
def test_sphere_family_matches_the_box_enumeration(m, d, bi):
    """Every (r, t) gives the pairs of the definition, in (x, y)
    lexicographic order."""
    box = list(itertools.product(range(1, m + 1), repeat=d))
    norm = {x: sum(v * v for v in x) for x in box}
    top = d * m * m
    for r in range(1, top + 1):
        for t in range(1, top + 1):
            want = [
                (x, y)
                for x in box
                if norm[x] == r
                for y in box
                if (not bi or norm[y] == r) and sum(map(int.__mul__, x, y)) == t
            ]
            assert _pairs(m, d, r, t, bi=bi) == want, (r, t)
