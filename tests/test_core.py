import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewlab as sl
from conftest import brute_has_skew_corner, rand_torus_set


def test_make_grid_set_singleton():
    a = sl.make_grid_set([(1, 1)], sl.grid(2))
    assert len(a) == 1
    assert (1, 1) in a


def test_make_grid_set_dedup():
    a = sl.make_grid_set([(1, 1), (1, 1)], sl.grid(2))
    assert len(a) == 1


def test_make_grid_set_range_error_names_point():
    with pytest.raises(sl.CoordinateError, match=r"\(0, 7\)"):
        sl.make_grid_set([(0, 7)], sl.torus(6))
    with pytest.raises(sl.CoordinateError):
        sl.make_grid_set([(0, 1)], sl.grid(3))  # grid is 1-based


def test_column_access_and_sizes():
    a = sl.make_grid_set([(2, 5), (2, 1), (4, 3)], sl.grid(5))
    assert a.column(2) == (1, 5)
    assert a.column(1) == ()
    assert list(a.column_sizes()) == [0, 2, 0, 1, 0]
    assert list(a.points()) == [(2, 1), (2, 5), (4, 3)]


def test_embed_torus_identity_on_coordinates():
    a = sl.make_grid_set([(1, 1)], sl.grid(2))
    e = sl.embed_torus(a)
    assert e.ambient == sl.torus(4)
    assert list(e.points()) == [(1, 1)]


def test_embed_torus_preserves_freeness_both_ways_exhaustive():
    # all subsets of [2]^2 and [3]^2: grid-free iff torus-image free
    for n in (2, 3):
        cells = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
        for r in range(len(cells) + 1):
            for combo in itertools.combinations(cells, r):
                a = sl.make_grid_set(list(combo), sl.grid(n))
                grid_free = sl.find_skew_corner(a) is None
                torus_free = sl.find_skew_corner(sl.embed_torus(a)) is None
                assert grid_free == torus_free


def test_translate_identity_and_singleton():
    a = sl.make_grid_set([(0, 0)], sl.torus(6))
    assert sl.translate(a, 0, 0) == a
    moved = sl.translate(a, 1, {0: 2})
    assert list(moved.points()) == [(1, 2)]


def test_translate_requires_torus():
    with pytest.raises(sl.ParameterError):
        sl.translate(sl.make_grid_set([(1, 1)], sl.grid(2)), 1, 0)


def test_translate_preserves_nontrivial_tuple_count():
    rng = np.random.default_rng(42)
    for _ in range(10):
        a = rand_torus_set(rng, 8, 0.4)
        h = int(rng.integers(0, 8))
        v = {i: int(rng.integers(0, 8)) for i in range(8)}
        before = sl.count_skew_corners_naive(a)
        after = sl.count_skew_corners_naive(sl.translate(a, h, v))
        assert before == after


def test_translate_tuple_count_against_quadruple_loop():
    from conftest import brute_skew_tuples

    rng = np.random.default_rng(43)
    a = rand_torus_set(rng, 6, 0.4)
    moved = sl.translate(a, 2, {i: int(rng.integers(0, 6)) for i in range(6)})
    assert brute_skew_tuples(a) == brute_skew_tuples(moved)


def test_transpose_examples():
    a = sl.make_grid_set([(1, 2)], sl.grid(3))
    assert list(sl.transpose(a).points()) == [(2, 1)]


@settings(max_examples=50, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=20))
def test_transpose_involution_and_size(pts):
    a = sl.make_grid_set(list(pts), sl.torus(6))
    t = sl.transpose(a)
    assert len(t) == len(a)
    assert sl.transpose(t) == a


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([sl.grid(5), sl.torus(6)]),
    st.lists(st.tuples(st.integers(-1, 6), st.integers(-1, 6)), max_size=30),
)
def test_grid_set_matches_set_model(amb, pts):
    pts = [p for p in pts if amb.in_range(p[0]) and amb.in_range(p[1])]
    model = set(pts)
    a = sl.make_grid_set(pts, amb)
    assert len(a) == len(model)
    assert list(a.points()) == sorted(model)
    assert all(type(v) is int for p in a.points() for v in p)
    sizes = a.column_sizes()
    assert sizes.dtype == np.int64
    for x in range(amb.lo, amb.hi + 1):
        col = tuple(sorted(y for u, y in model if u == x))
        assert a.column(x) == col
        assert sizes[x - amb.lo] == len(col)
    for p in itertools.product(range(-1, 8), repeat=2):
        assert (p in a) == (p in model)
    same = sl.make_grid_set(list(reversed(pts)) * 2, amb)
    assert same == a and hash(same) == hash(a)
    assert sl.loads_skewset(sl.dumps_skewset(a)) == a
    other = sl.make_grid_set(list(model ^ {(amb.lo, amb.lo)}), amb)
    assert other != a
    assert not a.offsets.flags.writeable and not a.ys.flags.writeable


def test_skewset_roundtrip(tmp_path, eight_point_set):
    path = tmp_path / "set.txt"
    sl.save_skewset(eight_point_set, path)
    again = sl.load_skewset(path)
    assert again == eight_point_set
    text = path.read_text()
    assert text.startswith("skewset 1\nambient torus 6\n")


def test_skewset_rejects_bad_input():
    with pytest.raises(sl.FormatError):
        sl.loads_skewset("not a skewset\n")
    with pytest.raises(sl.FormatError):
        sl.loads_skewset("skewset 1\nambient ring 6\n")
    with pytest.raises(sl.FormatError, match="duplicate"):
        sl.loads_skewset("skewset 1\nambient torus 6\n1 1\n1 1\n")
    with pytest.raises(sl.CoordinateError):
        sl.loads_skewset("skewset 1\nambient torus 6\n0 7\n")
    with pytest.raises(sl.CoordinateError):
        sl.loads_skewset("skewset 1\nambient grid 6\n0 3\n")


def test_grid_set_immutable_value_semantics():
    a = sl.make_grid_set([(1, 1), (2, 2)], sl.grid(2))
    b = sl.make_grid_set([(2, 2), (1, 1), (1, 1)], sl.grid(2))
    assert a == b


def test_translate_freeness_invariance_spot(eight_point_set):
    rng = np.random.default_rng(3)
    for _ in range(5):
        h = int(rng.integers(0, 6))
        v = {i: int(rng.integers(0, 6)) for i in range(6)}
        moved = sl.translate(eight_point_set, h, v)
        assert sl.find_skew_corner(moved) is None
        assert not brute_has_skew_corner(moved)
