import contextlib
import importlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewlab as sl
from skewlab import cli
from conftest import (
    EIGHT_POINTS,
    brute_skew_tuples,
    composition_2040,
    peak_memory,
    rand_grid_set,
    rand_torus_set,
    reference_dumps,
)


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def eight_file(tmp_path):
    path = tmp_path / "eight.txt"
    sl.save_skewset(sl.make_grid_set(EIGHT_POINTS, sl.torus(6)), path)
    return str(path)


def test_verify_free_set(capsys, eight_file):
    code, out, _ = run_cli(capsys, "verify", "--in", eight_file, "--bi")
    assert code == 0
    rep = json.loads(out)
    assert rep == {"free": True, "witness": None, "bi_free": True}


def test_verify_reports_witness(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    sl.save_skewset(sl.make_grid_set([(1, 1), (1, 2), (2, 1)], sl.grid(2)), path)
    code, out, _ = run_cli(capsys, "verify", "--in", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["free"] is False and rep["witness"]["d"] != 0


def test_count_methods_agree_on_torus_file(capsys, eight_file):
    code, out_naive, _ = run_cli(
        capsys, "count", "--in", eight_file, "--method", "naive"
    )
    assert code == 0
    code, out_fft, _ = run_cli(capsys, "count", "--in", eight_file, "--method", "fft")
    assert code == 0
    assert json.loads(out_naive) == json.loads(out_fft)
    rep = json.loads(out_fft)
    assert rep["total"] == rep["trivial"] + rep["nontrivial"]
    assert rep["lambda"] == pytest.approx(rep["total"] / 6**4)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(
        [sl.grid(1), sl.grid(4), sl.grid(7), sl.torus(1), sl.torus(5), sl.torus(8)]
    ),
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=25),
)
def test_count_round_trip_through_the_cli(amb, pts):
    pts = [p for p in pts if amb.in_range(p[0]) and amb.in_range(p[1])]
    a = sl.make_grid_set(pts, amb)
    text = sl.dumps_skewset(a)
    assert sl.loads_skewset(text) == a
    counts = {}
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "a.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for method in ("naive", "fft"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.run(["count", "--in", path, "--method", method]) == 0
            rep = json.loads(out.getvalue())
            counts[method] = (rep["trivial"], rep["nontrivial"])
    assert counts["naive"] == brute_skew_tuples(a)
    on_torus = a if amb.kind == "torus" else sl.embed_torus(a)
    assert counts["fft"] == brute_skew_tuples(on_torus)


def test_count_grid_naive_has_no_lambda(capsys, tmp_path):
    path = tmp_path / "g.txt"
    sl.save_skewset(sl.make_grid_set([(1, 1), (2, 2)], sl.grid(2)), path)
    code, out, _ = run_cli(capsys, "count", "--in", str(path), "--method", "naive")
    assert code == 0
    assert json.loads(out)["lambda"] is None


def test_construct_sphere_deterministic_bytes(capsys, tmp_path):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    code, rep1, _ = run_cli(
        capsys, "construct", "sphere", "--n", "1024", "--out", str(out1)
    )
    assert code == 0
    code, rep2, _ = run_cli(
        capsys, "construct", "sphere", "--n", "1024", "--out", str(out2)
    )
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    r1, r2 = json.loads(rep1), json.loads(rep2)
    r1.pop("out"), r2.pop("out")
    assert r1 == r2
    assert r1["verified"] is True
    loaded = sl.load_skewset(out1)
    assert len(loaded) == r1["size"]


def test_construct_product_roundtrip(capsys, tmp_path):
    base_path = tmp_path / "base.txt"
    base = sl.find_base_set(6)
    sl.save_skewset(base.points, base_path)
    out_path = tmp_path / "p.txt"
    code, rep, _ = run_cli(
        capsys, "construct", "product", "--n", "36",
        "--base", str(base_path), "--out", str(out_path),
    )
    assert code == 0
    r = json.loads(rep)
    assert r["size"] == len(base) ** 2
    assert len(sl.load_skewset(out_path)) == r["size"]


def test_search_writes_witness(capsys, tmp_path):
    out_path = tmp_path / "w.txt"
    code, rep, _ = run_cli(
        capsys, "search", "--ambient", "torus", "--size", "6",
        "--bi", "--out", str(out_path),
    )
    assert code == 0
    r = json.loads(rep)
    assert r["best_size"] == 8 and r["optimal"] is True
    w = sl.load_skewset(out_path)
    assert len(w) == 8 and sl.is_bi_skew_corner_free(w)


def test_search_refuses_budget_below_one(capsys, tmp_path):
    out_path = tmp_path / "w.txt"
    for budget in ("0", "-5"):
        code, out, err = run_cli(
            capsys, "search", "--ambient", "torus", "--size", "4",
            "--budget", budget, "--out", str(out_path),
        )
        assert code == 2 and out == "" and "budget" in err
    assert not out_path.exists()


def test_growth_csv_columns(capsys):
    code, out, _ = run_cli(capsys, "growth", "--exps", "10..12..2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(cli.GROWTH_CSV_COLUMNS)
    assert len(lines) == 3


def test_growth_bi_json(capsys):
    code, out, _ = run_cli(capsys, "growth", "--exps", "10..10", "--bi")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 1 and rows[0]["n"] == 1024


def test_growth_guards_at_their_boundaries(capsys):
    code, _, err = run_cli(capsys, "growth", "--exps", "40..40")
    assert code == 2 and "overflow int64" in err
    code, out, _ = run_cli(
        capsys, "growth", "--bi", "--exps", "28..28", "--format", "csv"
    )
    assert code == 0 and out.splitlines()[1].startswith("268435456,")
    start = time.perf_counter()
    with peak_memory() as peak:
        code, _, err = run_cli(capsys, "growth", "--bi", "--exps", "30..30")
    assert time.perf_counter() - start < 1
    assert code == 2 and "exceeds 4194304 entries" in err
    assert peak.bytes < 2**20


def test_ambients_past_the_side_limit_are_refused_before_allocating(capsys, tmp_path):
    base = tmp_path / "base.txt"
    sl.save_skewset(sl.make_grid_set([(0, 0), (0, 1)], sl.torus(64)), base)
    runs = [("construct", "product", "--n", "1073741824", "--base", str(base))]
    for side in ("1000000000", "100000000000000000000000"):
        path = tmp_path / f"wide{len(side)}.txt"
        path.write_text(f"skewset 1\nambient grid {side}\n1 1\n")
        runs.append(("verify", "--in", str(path)))
    for argv in runs:
        start = time.perf_counter()
        with peak_memory() as peak:
            code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == "" and "exceeds the limit 134217728" in err
        assert peak.bytes < 2**20


def test_construct_sphere_refuses_above_the_point_limit(capsys, tmp_path):
    out_path = tmp_path / "big.txt"
    start = time.perf_counter()
    with peak_memory() as peak:
        code, out, err = run_cli(
            capsys, "construct", "sphere", "--n", "268435456", "--out", str(out_path)
        )
    assert time.perf_counter() - start < 1
    assert code == 2 and "502301100 points" in err and out == ""  # > 5 * 10^7
    assert peak.bytes < 8 * 2**20
    assert not out_path.exists()


def test_diagnose_checks(capsys, eight_file):
    for check in ("gvn", "dichotomy", "parseval", "lambda"):
        if check == "dichotomy":
            continue  # needs a grid-ambient input, covered below
        code, out, _ = run_cli(capsys, "diagnose", "--in", eight_file, "--check", check)
        assert code == 0, check
        assert json.loads(out)["check"] == check


def test_diagnose_lambda_report(capsys, tmp_path):
    # the report keeps its keys, and its lambda matches the dense oracle
    rng = np.random.default_rng(47)
    for a, N in ((rand_torus_set(rng, 12, 0.3), 12), (rand_grid_set(rng, 9, 0.4), 18)):
        path = tmp_path / "a.txt"
        sl.save_skewset(a, path)
        code, out, _ = run_cli(capsys, "diagnose", "--in", str(path), "--check", "lambda")
        assert code == 0
        rep = json.loads(out)
        assert set(rep) == {"check", "lambda", "n4_lambda", "count_total", "relative_gap"}
        ind = sl.TwoDFunction.indicator(a)
        assert rep["lambda"] == pytest.approx(sl.lambda_form(ind, ind, ind), rel=1e-12)
        assert rep["count_total"] == sl.count_skew_corners_fft(a).total
        assert rep["n4_lambda"] == pytest.approx(rep["lambda"] * N**4)
        assert rep["relative_gap"] < 1e-12


def test_diagnose_dichotomy_grid(capsys, tmp_path):
    path = tmp_path / "g.txt"
    a, _ = sl.sphere_construction(16)
    sl.save_skewset(a, path)
    code, out, _ = run_cli(capsys, "diagnose", "--in", str(path), "--check", "dichotomy")
    assert code == 0
    assert json.loads(out)["branch"] in ("i", "ii")


@pytest.fixture(scope="module")
def comp_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("comp") / "comp.txt"
    sl.save_skewset(composition_2040(), path)
    return str(path)


def test_diagnose_dichotomy_branch_ii_on_the_composition(capsys, comp_file):
    code, out, _ = run_cli(capsys, "diagnose", "--in", comp_file, "--check", "dichotomy")
    assert code == 0
    rep = json.loads(out)
    assert rep["branch"] == "ii" and rep["alpha"] > rep["small_density_threshold"]


def test_increment_best_effort_past_the_guard(capsys, comp_file, tmp_path):
    # the composition's best step is the difference-1 subsquare of side 1020
    out_path = tmp_path / "inc.txt"
    code, out, _ = run_cli(capsys, "increment", "--in", comp_file, "--out", str(out_path))
    assert code == 0
    rep = json.loads(out)
    assert rep["nprime"] == 1020
    assert rep["density"] >= (1 + sl.AnalysisConfig().c_prime) * rep["alpha"]
    extracted = sl.load_skewset(out_path)
    assert extracted.ambient == sl.grid(1020)
    assert sl.find_skew_corner(extracted) is None


def test_increment_json_keys(capsys, tmp_path):
    path = tmp_path / "g.txt"
    a, _ = sl.sphere_construction(64)
    sl.save_skewset(a, path)
    out_path = tmp_path / "inc.txt"
    code, out, _ = run_cli(
        capsys, "increment", "--in", str(path), "--mode", "best-effort",
        "--out", str(out_path),
    )
    assert code == 0
    rep = json.loads(out)
    for key in ("variant", "branch", "alpha", "nprime", "density", "m", "note"):
        assert key in rep
    extracted = sl.load_skewset(out_path)
    assert sl.find_skew_corner(extracted) is None


def test_increment_iterations(capsys, tmp_path):
    path = tmp_path / "g.txt"
    base = sl.find_base_set(6)
    sl.save_skewset(sl.product_construction(base, 36), path)
    code, out, _ = run_cli(
        capsys, "increment", "--in", str(path), "--iterations", "3"
    )
    assert code == 0
    steps = json.loads(out)["steps"]
    assert 1 <= len(steps) <= 3
    assert all(s["density"] >= steps[0]["alpha"] for s in steps)


def test_increment_small_grid_exits_zero(capsys, tmp_path):
    # a best-effort block of difference 8 > n = 4 was once refused with exit 2
    path = tmp_path / "f.txt"
    pts = [(1, 2), (2, 1), (2, 4), (3, 3), (4, 3)]
    sl.save_skewset(sl.make_grid_set(pts, sl.grid(4)), path)
    code, out, _ = run_cli(capsys, "increment", "--in", str(path))
    assert code == 0
    assert json.loads(out)["density"] >= 5 / 16


def test_increment_refuses_fewer_than_one_iteration(capsys, tmp_path):
    path = tmp_path / "g.txt"
    sl.save_skewset(sl.make_grid_set([(1, 1), (2, 3)], sl.grid(4)), path)
    out_path = tmp_path / "inc.txt"
    for k in ("0", "-1"):
        code, out, err = run_cli(
            capsys, "increment", "--in", str(path), "--iterations", k,
            "--out", str(out_path),
        )
        assert code == 2 and out == "" and "--iterations" in err
    assert not out_path.exists()


def test_increment_refuses_above_the_cap(capsys, tmp_path):
    # grid 2049 embeds in a torus of side 4098 > MAX_FFT_SIDE; the refusal
    # comes before any N x N array, which would take 16 MiB even as bool
    a = sl.make_grid_set([(1, 1), (2049, 2049)], sl.grid(2049))
    path = tmp_path / "big.txt"
    sl.save_skewset(a, path)
    with peak_memory() as peak:
        with pytest.raises(sl.CapabilityError):
            sl.increment_step(a)
        code, _, err = run_cli(capsys, "increment", "--in", str(path))
    assert code == 2 and "error" in err
    assert peak.bytes < 4 * 2**20


@pytest.mark.parametrize(
    "argv",
    [["count", "--method", "fft"], ["diagnose", "--check", "lambda"]],
    ids=["count-fft", "diagnose-lambda"],
)
def test_spectral_jobs_refuse_above_the_cap(capsys, tmp_path, argv):
    # grid 2^17 embeds in a torus of side 2^18 > MAX_FFT_SIDE; loading the
    # set takes its 1 MiB of offsets, and the refusal comes before the
    # embedding's 2 MiB or any array of side 2^18
    path = tmp_path / "wide.txt"
    sl.save_skewset(sl.make_grid_set([(1, 1), (3, 2)], sl.grid(1 << 17)), path)
    with peak_memory() as peak:
        code, out, err = run_cli(capsys, *argv, "--in", str(path))
    assert code == 2 and out == "" and "capped at side 4096" in err
    assert peak.bytes < 2 * 2**20


def test_experiment_cli(capsys):
    code, out, _ = run_cli(
        capsys, "experiment", "product-set", "--beta", "1.0",
        "--N", "8", "--trials", "1", "--seed", "0",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["ratio_to_alpha_5_2"] == pytest.approx(1)
    for N in ("0", "-3"):
        code, out, err = run_cli(
            capsys, "experiment", "product-set", "--beta", "0.5",
            "--N", N, "--trials", "1", "--seed", "0",
        )
        assert code == 2 and "1 <= N <= 256" in err and out == ""


def test_exit_code_2_on_bad_input(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify", "--in", str(tmp_path / "missing.txt"))
    assert code == 2 and "error" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("skewset 1\nambient torus 6\n9 9\n")
    code, _, err = run_cli(capsys, "verify", "--in", str(bad))
    assert code == 2
    code, _, _ = run_cli(capsys, "count", "--in", str(bad), "--badflag")
    assert code == 2


def test_unreadable_input_exits_2(capsys, tmp_path):
    # a directory, and a file holding a byte that is not UTF-8
    code, out, err = run_cli(capsys, "verify", "--in", str(tmp_path))
    assert code == 2 and out == "" and "error" in err
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"skewset 1\nambient torus 6\n1 \xff\n")
    code, out, err = run_cli(capsys, "verify", "--in", str(bad))
    assert code == 2 and out == "" and "bad point line" in err


def test_verify_refuses_a_file_beyond_max_points(capsys, tmp_path, monkeypatch):
    path = tmp_path / "p.txt"
    sl.save_skewset(sl.product_construction(sl.find_base_set(6), 1296), path)
    monkeypatch.setattr("skewlab.core.MAX_POINTS", 1000)  # the file has 9^4
    code, out, err = run_cli(capsys, "verify", "--in", str(path))
    assert code == 2 and out == "" and "more than 1000 points" in err


def test_construct_product_out_matches_the_reference_writer(capsys, tmp_path):
    out_path = tmp_path / "p.txt"
    code, _, _ = run_cli(
        capsys, "construct", "product", "--n", "1296", "--out", str(out_path)
    )
    assert code == 0
    want = reference_dumps(sl.product_construction(sl.find_base_set(6), 1296))
    assert out_path.read_bytes() == want.encode()


def test_exit_code_3_on_falsification(capsys, eight_file, monkeypatch):
    def blow_up(*args, **kwargs):
        raise sl.FalsificationError("synthetic falsification for exit-code test")

    monkeypatch.setattr("skewlab.fourier.check_gvn", blow_up)
    code, _, err = run_cli(capsys, "diagnose", "--in", eight_file, "--check", "gvn")
    assert code == 3
    assert "falsification" in err


def test_report_file_written(capsys, eight_file, tmp_path):
    rep_path = tmp_path / "rep.json"
    code, out, _ = run_cli(
        capsys, "verify", "--in", eight_file, "--report", str(rep_path)
    )
    assert code == 0 and out == ""
    assert json.loads(rep_path.read_text())["free"] is True


def test_skewset_roundtrip_through_cli(capsys, tmp_path):
    out_path = tmp_path / "w.txt"
    code, _, _ = run_cli(
        capsys, "search", "--ambient", "grid", "--size", "4", "--out", str(out_path)
    )
    assert code == 0
    a = sl.load_skewset(out_path)
    sl.save_skewset(a, out_path)
    assert sl.load_skewset(out_path) == a


SEARCH_WRITER_CASES = [
    (kind, size, bi, None)
    for kind in ("grid", "torus")
    for size in range(1, 8)
    for bi in (False, True)
] + [("grid", 20, False, 10), ("grid", 40, False, 1000)]


def test_search_writer_matches_the_set_writer(capsys, tmp_path):
    """`search --out` writes the result's points itself: the file is the
    `dumps_skewset` text of `res.witness`, which is the GridSet of
    `res.points`, and the report holds every other field of the result."""
    for kind, size, bi, budget in SEARCH_WRITER_CASES:
        amb = sl.Ambient(kind, size)
        mode = "bi_skew" if bi else "skew"
        kw = {} if budget is None else {"budget": budget}
        res = sl.max_skew_corner_free(amb, mode=mode, **kw)
        assert res.witness == sl.make_grid_set(res.points, amb)
        assert list(res.witness.points()) == list(res.points)
        out = tmp_path / f"{kind}{size}{mode}.txt"
        argv = ["search", "--ambient", kind, "--size", str(size), "--out", str(out)]
        argv += ["--bi"] * bi + ([] if budget is None else ["--budget", str(budget)])
        code, stdout, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.read_bytes() == sl.dumps_skewset(res.witness).encode("ascii")
        assert json.loads(stdout) == {
            "ambient": {"kind": kind, "size": size},
            "mode": mode,
            "best_size": res.best_size,
            "optimal": res.optimal,
            "nodes_explored": res.nodes_explored,
            "budget_exhausted": res.budget_exhausted,
            "out": str(out),
        }


def test_construct_reports_how_it_verified(capsys, monkeypatch):
    cases = [
        (("sphere", "--n", "1024"), "exhaustive"),
        (("sphere", "--n", "1024", "--no-verify"), "skipped"),
        (("product", "--n", "36"), "exhaustive"),
        (("product", "--n", "216"), "skipped"),
        (("product", "--n", "216", "--force-verify"), "exhaustive"),
    ]
    for argv, want in cases:
        code, out, _ = run_cli(capsys, "construct", *argv)
        assert code == 0
        rep = json.loads(out)
        assert rep["verification"] == want, argv
        assert rep["verified"] is (want == "exhaustive"), argv
        assert "probes" not in rep and "seed" not in rep, argv
    # above the exhaustive limit the probes still pass a free set, and the
    # report says they were probes, how many and from which seed
    monkeypatch.setattr("skewlab.construct.VERIFY_EXHAUSTIVE_MAX", 0)
    for argv, seed in [((), 0), (("--seed", "7"), 7)]:
        code, out, _ = run_cli(capsys, "construct", "sphere", "--n", "1024", *argv)
        rep = json.loads(out)
        assert code == 0 and rep["verified"] is True
        assert rep["verification"] == "sampled"
        assert rep["probes"] == 10**6 and rep["seed"] == seed


def _cli_imports(cwd, *argv) -> tuple[set[str], str]:
    """Run `python -X importtime -m skewlab.cli argv` in `cwd`; return the
    modules it loaded and its stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sl.__file__)))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "skewlab.cli", *argv],
        cwd=cwd, env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    # each -X importtime line ends in "| <module name>"
    loaded = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    return loaded, proc.stdout


# job: (argv, modules it must load, modules it must not load)
IMPORT_BUDGET = {
    "search": (
        ("search", "--ambient", "torus", "--size", "6", "--out", "w.txt"),
        {"skewlab.ambient", "skewlab.search"},
        {"numpy"},
    ),
    "version": (("--version",), set(), {"numpy"}),
    "help": (("--help",), set(), {"numpy"}),
    "experiment": (
        ("experiment", "product-set", "--beta", "0.5", "--N", "16",
         "--trials", "3", "--seed", "1"),
        {"numpy", "skewlab.experiment"},
        {"skewlab.core", "skewlab.verify", "skewlab.fourier", "skewlab.increment"},
    ),
    # the columns of two or more points in eight.txt are dense, so the count
    # loads the word kernel
    "count-naive": (
        ("count", "--method", "naive", "--in", "eight.txt"),
        {"skewlab.core", "skewlab.verify", "skewlab._words"},
        {"skewlab.fourier", "skewlab.increment", "skewlab.search"},
    ),
    # no column of sparse.txt is dense, so the count runs without it
    "count-naive-sparse": (
        ("count", "--method", "naive", "--in", "sparse.txt"),
        {"skewlab.core", "skewlab.verify"},
        {"skewlab._words", "skewlab.fourier", "skewlab.increment", "skewlab.search"},
    ),
}


@pytest.mark.parametrize("job", sorted(IMPORT_BUDGET))
def test_cli_jobs_import_only_what_they_run(job, eight_file, capsys, monkeypatch):
    """Each CLI job, run as a fresh process, loads the modules it runs and
    none of those listed against it, and prints what an in-process run
    prints."""
    argv, loads, skips = IMPORT_BUDGET[job]
    cwd = os.path.dirname(eight_file)
    # a grid of side 64 whose columns hold at most 2 points
    sparse = [(x, y) for x in range(1, 65) for y in {1 + x % 3, 40}]
    sl.save_skewset(sl.make_grid_set(sparse, sl.grid(64)), os.path.join(cwd, "sparse.txt"))
    loaded, stdout = _cli_imports(cwd, *argv)
    assert loads <= loaded
    assert not loaded & skips
    if job.startswith("count-naive"):
        assert json.loads(stdout)["total"] > 0
    monkeypatch.chdir(cwd)
    assert cli.run(list(argv)) == 0
    assert stdout == capsys.readouterr().out


def test_every_public_name_resolves():
    """The package imports its modules lazily; each name in `__all__`
    still resolves to the object of its module, and `dir` lists it."""
    import importlib

    for name in sl.__all__:
        mod = importlib.import_module(f"skewlab.{sl._MODULE_OF[name]}")
        assert getattr(sl, name) is getattr(mod, name)
    assert set(sl.__all__) <= set(dir(sl))
    with pytest.raises(AttributeError):
        sl.no_such_name


def test_readme_cli_lines_parse():
    """Every `skewlab ...` line in the README's shell blocks parses with the
    CLI's own parser, comments stripped; no command is run."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [
        shlex.split(line, comments=True)
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.splitlines()
        if line.startswith("skewlab ")
    ]
    assert lines
    parser = cli._build_parser()
    for argv in lines:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {shlex.join(argv)}")


def test_console_script_entry_point_exits_zero_on_version(monkeypatch, capsys):
    """The `skewlab` console script named in pyproject.toml resolves to a
    callable that prints the version and exits 0."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    target = tomllib.loads(pyproject)["project"]["scripts"]["skewlab"]
    assert target == "skewlab.cli:main"
    module, func = target.split(":")
    main = getattr(importlib.import_module(module), func)
    monkeypatch.setattr(sys, "argv", ["skewlab", "--version"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == sl.__version__
