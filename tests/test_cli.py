import json

import pytest

import skewlab as sl
from skewlab import cli
from conftest import EIGHT_POINTS


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


def test_diagnose_checks(capsys, eight_file):
    for check in ("gvn", "dichotomy", "parseval", "lambda"):
        if check == "dichotomy":
            continue  # needs a grid-ambient input, covered below
        code, out, _ = run_cli(capsys, "diagnose", "--in", eight_file, "--check", check)
        assert code == 0, check
        assert json.loads(out)["check"] == check


def test_diagnose_dichotomy_grid(capsys, tmp_path):
    path = tmp_path / "g.txt"
    a, _ = sl.sphere_construction(16)
    sl.save_skewset(a, path)
    code, out, _ = run_cli(capsys, "diagnose", "--in", str(path), "--check", "dichotomy")
    assert code == 0
    assert json.loads(out)["branch"] in ("i", "ii")


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


def test_experiment_cli(capsys):
    code, out, _ = run_cli(
        capsys, "experiment", "product-set", "--beta", "1.0",
        "--N", "8", "--trials", "1", "--seed", "0",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["ratio_to_alpha_5_2"] == pytest.approx(1)


def test_exit_code_2_on_bad_input(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify", "--in", str(tmp_path / "missing.txt"))
    assert code == 2 and "error" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("skewset 1\nambient torus 6\n9 9\n")
    code, _, err = run_cli(capsys, "verify", "--in", str(bad))
    assert code == 2
    code, _, _ = run_cli(capsys, "count", "--in", str(bad), "--badflag")
    assert code == 2


def test_exit_code_3_on_falsification(capsys, eight_file, monkeypatch):
    def blow_up(*args, **kwargs):
        raise sl.FalsificationError("synthetic falsification for exit-code test")

    monkeypatch.setattr(cli, "check_gvn", blow_up)
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
    # above the exhaustive limit the probes still pass a free set, and the
    # report says they were probes
    monkeypatch.setattr("skewlab.construct.VERIFY_EXHAUSTIVE_MAX", 0)
    code, out, _ = run_cli(capsys, "construct", "sphere", "--n", "1024")
    rep = json.loads(out)
    assert code == 0 and rep["verified"] is True
    assert rep["verification"] == "sampled"
