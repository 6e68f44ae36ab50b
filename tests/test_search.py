import itertools
import re
import time

import numpy as np
import pytest

import skewlab as sl
from skewlab import search
from conftest import DATA, brute_max_free, peak_memory, reference_search


def test_committed_witnesses_are_free_and_named_by_content():
    # every file in tests/data is `<kind><side>-<count>.txt` and holds a
    # free set of exactly that ambient and size
    files = sorted(DATA.iterdir())
    assert files
    for path in files:
        m = re.fullmatch(r"(grid|torus)(\d+)-(\d+)\.txt", path.name)
        assert m, path.name
        a = sl.load_skewset(path)
        assert a.ambient == sl.Ambient(m[1], int(m[2])), path.name
        assert len(a) == int(m[3]), path.name
        assert sl.find_skew_corner(a) is None, path.name


def test_grid_trivial_and_exhaustive_oracle():
    assert sl.max_skew_corner_free(sl.grid(1)).best_size == 1
    for n in (2, 3, 4):
        res = sl.max_skew_corner_free(sl.grid(n))
        assert res.optimal
        assert res.best_size == brute_max_free(n, torus=False)
        assert sl.find_skew_corner(res.witness) is None
        assert len(res.witness) == res.best_size


def test_grid2_value():
    assert sl.max_skew_corner_free(sl.grid(2)).best_size == 2


def test_torus_exhaustive_oracle_n_le_4():
    for N in (2, 3, 4):
        res = sl.max_skew_corner_free(sl.torus(N))
        assert res.optimal
        assert res.best_size == brute_max_free(N, torus=True)
        res_bi = sl.max_skew_corner_free(sl.torus(N), mode="bi_skew")
        assert res_bi.best_size == brute_max_free(N, torus=True, bi=True)
        assert sl.is_bi_skew_corner_free(res_bi.witness)


def test_grid_bi_exhaustive_oracle_n_le_3():
    for n in (2, 3, 4):
        res = sl.max_skew_corner_free(sl.grid(n), mode="bi_skew")
        assert res.optimal
        assert res.best_size == brute_max_free(n, torus=False, bi=True)
        assert sl.is_bi_skew_corner_free(res.witness)


def test_symmetry_breaking_never_changes_best_size():
    for N in (3, 4, 5):
        for mode in ("skew", "bi_skew"):
            sym = sl.max_skew_corner_free(sl.torus(N), mode=mode)
            plain = sl.max_skew_corner_free(sl.torus(N), mode=mode, symmetry=False)
            assert sym.best_size == plain.best_size
    for n in (2, 3, 4, 5):
        sym = sl.max_skew_corner_free(sl.grid(n))
        plain = sl.max_skew_corner_free(sl.grid(n), symmetry=False)
        assert sym.best_size == plain.best_size
    assert plain.best_size == 9


def test_torus6_bi_skew_matches_known_example(eight_point_set):
    res = sl.max_skew_corner_free(sl.torus(6), mode="bi_skew")
    assert res.best_size >= len(eight_point_set) == 8
    assert sl.is_bi_skew_corner_free(res.witness)


def test_nodes_deterministic():
    a = sl.max_skew_corner_free(sl.torus(5))
    b = sl.max_skew_corner_free(sl.torus(5))
    assert a.nodes_explored == b.nodes_explored
    assert a.witness == b.witness


def test_budget_exhaustion_flags_result():
    res = sl.max_skew_corner_free(sl.torus(6), budget=50)
    assert res.budget_exhausted and not res.optimal
    assert res.best_size <= 9
    if len(res.witness):
        assert sl.find_skew_corner(res.witness) is None


# The candidate order fixes which nodes are tried and which maximum is met
# first; any reordering of the mask stream changes these numbers.
@pytest.mark.parametrize(
    "ambient, mode, nodes, witness",
    [
        (sl.torus(6), "skew", 8909,
         [(0, 0), (0, 2), (0, 4), (1, 0), (1, 3), (3, 0), (3, 1), (5, 0), (5, 3)]),
        (sl.torus(6), "bi_skew", 153184,
         [(0, 0), (0, 2), (0, 4), (1, 0), (1, 3), (3, 2), (3, 3), (5, 3)]),
        (sl.torus(7), "skew", 54729, [(0, y) for y in range(7)]),
        (sl.grid(5), "skew", 2736,
         [(1, 1), (1, 2), (3, 1), (3, 4), (4, 1), (4, 3), (4, 5), (5, 1), (5, 4)]),
        (sl.grid(6), "skew", 43460, [(x, y) for x in (1, 6) for y in range(1, 6)]),
        (sl.grid(7), "skew", 296854,
         [(1, 1), (1, 3), (1, 5), (2, 1), (2, 4), (2, 7), (4, 1), (4, 2), (4, 6),
          (4, 7), (6, 1), (6, 4), (6, 7), (7, 1), (7, 3), (7, 5)]),
    ],
    ids=["torus6", "torus6-bi", "torus7", "grid5", "grid6", "grid7"],
)
def test_search_order_is_pinned(ambient, mode, nodes, witness):
    res = sl.max_skew_corner_free(ambient, mode=mode)
    assert res.optimal
    assert res.nodes_explored == nodes
    assert sorted(res.witness.points()) == witness


@pytest.mark.parametrize(
    "ambient, mode",
    [(sl.grid(40), "skew"), (sl.torus(64), "bi_skew")],
    ids=["grid40", "torus64-bi"],
)
def test_budgeted_search_runs_up_to_the_bitmask_limit(ambient, mode):
    # candidates are streamed, never listed: all 2^size subsets would not fit
    with peak_memory() as peak:
        t0 = time.perf_counter()
        res = sl.max_skew_corner_free(ambient, budget=1000, mode=mode)
        elapsed = time.perf_counter() - t0
    assert res.budget_exhausted and not res.optimal
    assert res.nodes_explored == 1001
    assert elapsed < 1.0
    assert peak.bytes < 1 << 20
    # the search reports the largest set it placed, here at least one full
    # column, even though no leaf was reached
    assert res.best_size >= ambient.size
    assert len(res.witness) == res.best_size
    if mode == "bi_skew":
        assert sl.is_bi_skew_corner_free(res.witness)
    else:
        assert sl.find_skew_corner(res.witness) is None


def _summary(res):
    return (res.best_size, res.optimal, res.budget_exhausted, res.nodes_explored,
            sorted(res.witness.points()))


def _reference_summary(ref):
    return (ref.best_size, ref.optimal, ref.budget_exhausted, ref.nodes_explored,
            ref.witness)


@pytest.mark.parametrize("mode", ["skew", "bi_skew"])
@pytest.mark.parametrize("kind", ["grid", "torus"])
@pytest.mark.parametrize("n", range(1, 8))
def test_search_matches_the_node_by_node_reference(n, kind, mode):
    ambient = sl.Ambient(kind, n)
    for symmetry in (True, False) if n <= 5 else (True,):
        res = sl.max_skew_corner_free(ambient, mode=mode, symmetry=symmetry)
        ref = reference_search(ambient, mode=mode, symmetry=symmetry)
        assert _summary(res) == _reference_summary(ref)


# Small budgets run out inside skipped stretches of rejected candidates and
# inside blocked columns, not only at a visited candidate.
@pytest.mark.parametrize(
    "ambient, mode",
    [(sl.torus(5), "bi_skew"), (sl.grid(6), "skew"), (sl.grid(6), "bi_skew")],
    ids=["torus5-bi", "grid6", "grid6-bi"],
)
def test_every_small_budget_stops_where_the_reference_stops(ambient, mode):
    for budget in range(1, 401):
        res = sl.max_skew_corner_free(ambient, budget=budget, mode=mode)
        ref = reference_search(ambient, budget=budget, mode=mode)
        assert _summary(res) == _reference_summary(ref), budget


def test_dropping_the_survivor_lists_midway_changes_nothing(monkeypatch):
    monkeypatch.setattr(search, "_CACHE_ENTRIES", 3)
    for ambient, mode in [(sl.torus(6), "bi_skew"), (sl.grid(6), "skew")]:
        for budget in (333, 10**9):
            res = sl.max_skew_corner_free(ambient, budget=budget, mode=mode)
            ref = reference_search(ambient, budget=budget, mode=mode)
            assert _summary(res) == _reference_summary(ref)


@pytest.mark.parametrize(
    "ambient, mode",
    [(sl.grid(18), "skew"), (sl.torus(16), "bi_skew")],
    ids=["grid18", "torus16-bi"],
)
def test_budgeted_wide_search_scans_only_what_the_budget_reaches(ambient, mode):
    # Survivor lists grow only as far as the budget reaches; scanning a
    # whole pool of 2^17 masks per column state up front took seconds.
    t0 = time.perf_counter()
    res = sl.max_skew_corner_free(ambient, budget=10**6, mode=mode)
    elapsed = time.perf_counter() - t0
    assert res.budget_exhausted and res.nodes_explored == 1_000_001
    assert elapsed < 2.0
    with peak_memory() as peak:
        again = sl.max_skew_corner_free(ambient, budget=10**6, mode=mode)
    assert _summary(again) == _summary(res)
    assert peak.bytes < 16 << 20


def test_searches_without_symmetry_breaking_confirm_grid7_and_bi_torus7():
    grid = sl.max_skew_corner_free(sl.grid(7), symmetry=False)
    assert grid.optimal and grid.best_size == 16
    assert sl.find_skew_corner(grid.witness) is None
    bi = sl.max_skew_corner_free(sl.torus(7), mode="bi_skew", symmetry=False)
    assert bi.optimal and bi.best_size == 7
    assert sl.is_bi_skew_corner_free(bi.witness)


def test_budget_below_one_is_refused():
    for budget in (0, -5):
        with pytest.raises(sl.ParameterError):
            sl.max_skew_corner_free(sl.torus(4), budget=budget)


def test_capability_guard():
    with pytest.raises(sl.CapabilityError):
        sl.max_skew_corner_free(sl.grid(65))


def test_find_base_set_edge_cases():
    assert sl.find_base_set(1) is None
    with pytest.raises(sl.ParameterError):
        sl.find_base_set(0)
    with pytest.raises(sl.CapabilityError):
        sl.find_base_set(65)
    base = sl.find_base_set(6)
    assert base is not None
    assert len(base) > 6
    assert sl.find_skew_corner(base.points) is None


def test_s_table_monotone_and_certified():
    rows = [sl.max_skew_corner_free(sl.grid(n)) for n in range(1, 5)]
    assert [r.ambient.size for r in rows] == [1, 2, 3, 4]
    assert rows[0].best_size == 1 and rows[1].best_size == 2
    assert all(r.optimal for r in rows)
    sizes = [r.best_size for r in rows]
    assert sizes == sorted(sizes)
    assert all(s <= n**2 for n, s in enumerate(sizes, 1))


def test_witnesses_pass_oracle_modes():
    for mode in ("skew", "bi_skew"):
        res = sl.max_skew_corner_free(sl.torus(6), mode=mode)
        assert sl.find_skew_corner(res.witness) is None
        if mode == "bi_skew":
            assert sl.is_bi_skew_corner_free(res.witness)


def _corner_triples(ambient: sl.Ambient, bi: bool) -> set[frozenset[int]]:
    """Every skew corner (x, y), (x, y + d), (x + d, y') with d != 0 of the
    ambient as a set of three cell indices x * size + y (coordinates from
    0), plus the transposed triples for bi-skew."""
    n, torus = ambient.size, ambient.kind == "torus"
    triples = set()
    for x, y, y3 in itertools.product(range(n), repeat=3):
        for d in range(1 - n, n):
            x3, y2 = x + d, y + d
            if torus:
                x3, y2 = x3 % n, y2 % n
            if d == 0 or not (0 <= x3 < n and 0 <= y2 < n):
                continue
            triples.add(frozenset((x * n + y, x * n + y2, x3 * n + y3)))
            if bi:
                triples.add(frozenset((y * n + x, y2 * n + x, y3 * n + x3)))
    return triples


@pytest.mark.parametrize(
    "ambient, mode",
    [(sl.torus(6), "skew"), (sl.grid(6), "skew"), (sl.torus(5), "bi_skew"),
     (sl.torus(6), "bi_skew")],
    ids=str,
)
def test_ilp_optimum_matches_the_search(ambient, mode):
    # a third route that needs neither the search nor its pruning: a 0/1
    # program with one binary per cell and x_p + x_q + x_r <= 2 for every
    # skew-corner triple {p, q, r}
    optimize = pytest.importorskip("scipy.optimize")
    n = ambient.size
    triples = sorted(map(sorted, _corner_triples(ambient, mode == "bi_skew")))
    rows = np.zeros((len(triples), n * n))
    for i, cells in enumerate(triples):
        rows[i, cells] = 1
    res = optimize.milp(
        -np.ones(n * n),
        constraints=optimize.LinearConstraint(rows, ub=2),
        integrality=np.ones(n * n),
        bounds=optimize.Bounds(0, 1),
    )
    assert res.status == 0
    cells = np.flatnonzero(res.x > 0.5)
    witness = sl.GridSet.from_arrays(cells // n + ambient.lo, cells % n + ambient.lo, ambient)
    assert len(witness) == round(-res.fun)
    if mode == "bi_skew":
        assert sl.is_bi_skew_corner_free(witness)
    else:
        assert sl.find_skew_corner(witness) is None
    assert len(witness) == sl.max_skew_corner_free(ambient, mode=mode).best_size
