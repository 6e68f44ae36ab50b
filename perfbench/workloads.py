"""The two workloads: their seeded inputs, their CLI jobs, each job's
in-process replay and each job's output check.

A job is one `python -m skewlab.cli ...` invocation.  Its replay makes the
same calls through skewlab's public functions, with a span around each
call, and returns a report shaped like the CLI's, so one check serves both.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from skewio import PointFile, oracle_free, read_skewset, write_skewset

# A 9-point skew-corner-free set on the torus of side 6, the certified
# maximum.  Inputs use a seeded symmetry image of it as the product base.
BASE6 = ((0, 0), (0, 2), (0, 4), (1, 0), (1, 3), (3, 0), (3, 1), (5, 0), (5, 3))

# Search sizes certified in the README; other sizes are reported, not asserted.
CERTIFIED = {("torus", 6, False): 9, ("torus", 6, True): 8}

# verify_free switches from the exhaustive check to random probes above
# this column-pair work (construct.py); the trace reports which one ran.
VERIFY_FREE_EXHAUSTIVE_MAX = 20_000_000


class CheckFailed(Exception):
    pass


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _base6(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Seeded image of BASE6 under the freeness-preserving torus maps
    (x, y) -> (x + h, y + v(x)) and (x, y) -> (-x, -y)."""
    h = int(rng.integers(6))
    v = rng.integers(6, size=6)
    sign = 1 if rng.integers(2) else -1
    pts = sorted(
        ((sign * (x + h)) % 6, (sign * (y + int(v[x]))) % 6) for x, y in BASE6
    )
    xs, ys = np.array(pts, dtype=np.int64).T
    return xs, ys


def _random_torus(rng: np.random.Generator, n: int, density: float):
    """Each cell of the torus of side n is kept with probability `density`."""
    xs, ys = [], []
    for x0 in range(0, n, 256):
        block = rng.random((min(256, n - x0), n), dtype=np.float32) < density
        bx, by = np.nonzero(block)
        xs.append(bx + x0)
        ys.append(by)
    return np.concatenate(xs), np.concatenate(ys)


@dataclass(frozen=True)
class Sizes:
    sphere_n: int
    product_n: int
    growth_exps: tuple[int, int, int]
    sparse_side: int
    budget_grid: int
    increment_n: int
    dichotomy_n: int
    dense_side: int
    experiment_n: int
    experiment_trials: int
    searches: tuple[tuple[str, int, bool], ...]


FULL = Sizes(
    sphere_n=2**18, product_n=46656, growth_exps=(10, 18, 2), sparse_side=4096,
    budget_grid=20, increment_n=256, dichotomy_n=1296, dense_side=1024,
    experiment_n=64, experiment_trials=100,
    searches=(("torus", 6, False), ("torus", 6, True), ("torus", 7, False),
              ("grid", 7, False), ("torus", 7, True)),
)

SMOKE = Sizes(
    sphere_n=4096, product_n=216, growth_exps=(10, 12, 2), sparse_side=128,
    budget_grid=10, increment_n=36, dichotomy_n=216, dense_side=64,
    experiment_n=16, experiment_trials=5,
    searches=(("torus", 6, False), ("torus", 6, True), ("torus", 5, False),
              ("grid", 5, False), ("torus", 5, True)),
)


def make_inputs(workload: str, sizes: Sizes, seed: int, workdir: str) -> dict[str, str]:
    """Write the workload's seeded input files; return their sha256 by name."""
    rng = np.random.default_rng(seed)
    out = {}

    def write(name, kind, side, xs, ys):
        out[name] = write_skewset(os.path.join(workdir, name), kind, side, xs, ys)

    write("base6.txt", "torus", 6, *_base6(rng))
    if workload == "large-sparse":
        n = sizes.sparse_side
        write("sparse.txt", "torus", n, *_random_torus(rng, n, 1 / 50))
    else:
        n = sizes.dense_side
        write("dense.txt", "torus", n, *_random_torus(rng, n, 1 / 2))
        write("gvn.txt", "torus", n, *_random_torus(rng, n, 1 / 8))
    return out


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

class Pass:
    """State shared by the jobs of one pass: parsed files and count totals."""

    def __init__(self, workdir: str, inputs: dict[str, PointFile]):
        self.workdir = workdir
        self.files = dict(inputs)
        self.totals: dict[tuple[str, str], int] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def parse(self, name: str, fresh: bool = False) -> PointFile:
        if fresh or name not in self.files:
            self.files[name] = read_skewset(self.path(name))
        return self.files[name]


@dataclass(frozen=True)
class Job:
    name: str
    sub: str  # CLI subcommand, the key of the per-subcommand time
    argv: tuple[str, ...]
    replay: Callable[["Replay", Pass], dict]
    check: Callable[[dict, Pass], None]
    peak: bool = False  # replayed in the tracemalloc pass
    csv: bool = False  # stdout is CSV rather than JSON

    def parse_stdout(self, text: str) -> dict:
        if not self.csv:
            return json.loads(text)
        lines = text.strip().splitlines()
        head = lines[0].split(",")
        return {"rows": [dict(zip(head, map(float, ln.split(",")))) for ln in lines[1:]]}


def _product_k(n: int, b: int = 6) -> int:
    k = 0
    while b ** (k + 1) <= n:
        k += 1
    return k


def construct_sphere(n: int, out: str) -> Job:
    def check(rep, p):
        expect(rep.get("verified") is True, "sphere construction not verified")
        pf = p.parse(out, fresh=True)
        expect(rep["size"] == pf.count, f"sphere size {rep['size']} != {pf.count} points in {out}")
        expect(pf.kind == "grid" and pf.size == n, f"{out} has the wrong ambient")

    return Job(f"construct-sphere-{n}", "construct",
               ("construct", "sphere", "--n", str(n), "--out", out),
               lambda r, p: r.construct_sphere(n, p.path(out)), check)


def construct_product(n: int, out: str, force_verify: bool) -> Job:
    k = _product_k(n)

    def check(rep, p):
        expect(rep["size"] == len(BASE6) ** k, f"product size {rep['size']} != 9^{k}")
        if force_verify:
            expect(rep.get("verified") is True, "product construction not verified")
        pf = p.parse(out, fresh=True)
        expect(pf.count == len(BASE6) ** k, f"{out} holds {pf.count} points, not 9^{k}")

    argv = ("construct", "product", "--n", str(n), "--base", "base6.txt", "--out", out)
    return Job(f"construct-product-{n}", "construct",
               argv + (("--force-verify",) if force_verify else ()),
               lambda r, p: r.construct_product(n, p.path("base6.txt"), p.path(out), force_verify),
               check)


def verify(infile: str) -> Job:
    def check(rep, p):
        expect(rep["free"] is True, f"verify says {infile} is not free: {rep.get('witness')}")

    return Job(f"verify-{infile}", "verify", ("verify", "--in", infile),
               lambda r, p: r.verify(p.path(infile), p.parse(infile)), check)


def count(infile: str, method: str, free: bool, peak: bool = False) -> Job:
    """`free`: the input is a construction output, so nontrivial must be 0."""

    def check(rep, p):
        pf = p.parse(infile)
        expect(rep["trivial"] == pf.trivial,
               f"{method} trivial {rep['trivial']} != own sum |A_x|^2 {pf.trivial}")
        expect(rep["total"] == rep["trivial"] + rep["nontrivial"], "total != trivial + nontrivial")
        if free:
            expect(rep["nontrivial"] == 0, f"{infile} has {rep['nontrivial']} nontrivial tuples")
        p.totals[(infile, method)] = rep["total"]
        other = p.totals.get((infile, "naive" if method == "fft" else "fft"))
        if pf.kind == "torus" and other is not None:
            expect(other == rep["total"], f"fft and naive totals differ on {infile}")

    return Job(f"count-{method}-{infile}", "count", ("count", "--in", infile, "--method", method),
               lambda r, p: r.count(p.path(infile), method), check, peak=peak)


def growth(exps: tuple[int, int, int]) -> Job:
    a, b, step = exps
    ns = [2**e for e in range(a, b + 1, step)]

    def check(rep, p):
        rows = rep["rows"]
        expect([int(r["n"]) for r in rows] == ns, "growth rows do not match the requested n")
        for r in rows:
            expect(r["size"] > 0 and math.isclose(r["density"], r["size"] / r["n"] ** 2),
                   f"bad growth row {r}")

    return Job("growth-bi", "growth",
               ("growth", "--exps", f"{a}..{b}..{step}", "--bi", "--format", "csv"),
               lambda r, p: r.growth(ns), check, csv=True)


def search(kind: str, size: int, bi: bool, budget: Optional[int] = None) -> Job:
    out = f"witness-{kind}{size}{'-bi' if bi else ''}.txt"

    def check(rep, p):
        pf = p.parse(out, fresh=True)
        expect(pf.kind == kind and pf.size == size, f"{out} has the wrong ambient")
        expect(pf.count == rep["best_size"], f"witness has {pf.count} points, best_size {rep['best_size']}")
        expect(oracle_free(pf, bi), f"search witness {out} fails the brute-force oracle")
        want = CERTIFIED.get((kind, size, bi))
        if want is not None and budget is None:
            expect(rep["best_size"] == want and rep["optimal"], f"{out}: best {rep['best_size']} != {want}")

    argv = ("search", "--ambient", kind, "--size", str(size)) + (("--bi",) if bi else ())
    if budget is not None:
        argv += ("--budget", str(budget))
    return Job(f"search-{kind}{size}{'-bi' if bi else ''}", "search", argv + ("--out", out),
               lambda r, p: r.search(kind, size, bi, budget, p.path(out)), check)


def diagnose(infile: str, which: str, peak: bool = False) -> Job:
    def check(rep, p):
        pf = p.parse(infile)
        if which == "lambda":
            expect(rep["count_total"] == pf.trivial, "lambda check: a free set has only trivial tuples")
            expect(rep["relative_gap"] < 1e-6, f"lambda vs count gap {rep['relative_gap']}")
            return
        expect(math.isclose(rep["alpha"], pf.density), f"{which}: alpha {rep['alpha']} != {pf.density}")
        if which == "gvn":
            expect(rep["inequality_holds"] is True, "counting inequality reported as failing")
        else:
            expect(rep["branch"] in ("i", "ii"), f"dichotomy branch {rep['branch']!r}")

    return Job(f"diagnose-{which}-{infile}", "diagnose", ("diagnose", "--in", infile, "--check", which),
               lambda r, p: r.diagnose(p.path(infile), which), check, peak=peak)


def increment(infile: str) -> Job:
    def check(rep, p):
        pf = p.parse(infile)
        expect(rep["density"] >= pf.density - 1e-12,
               f"extracted density {rep['density']} below the input's {pf.density}")
        expect(1 <= rep["nprime"] <= pf.size, f"n' = {rep['nprime']} outside [1, {pf.size}]")

    return Job(f"increment-{infile}", "increment", ("increment", "--in", infile, "--mode", "best-effort"),
               lambda r, p: r.increment(p.path(infile)), check, peak=True)


def experiment(n: int, trials: int, seed: int) -> Job:
    def check(rep, p):
        expect(rep["N"] == n and rep["trials"] == trials, "experiment echoes the wrong N/trials")
        expect(math.isclose(rep["alpha"], 0.25), f"alpha {rep['alpha']} != beta^2")
        expect(rep["mean_skew_count"] > 0 and rep["mean_corner_count"] > 0, "empty experiment")

    return Job("experiment-product-set", "experiment",
               ("experiment", "product-set", "--beta", "0.5", "--N", str(n),
                "--trials", str(trials), "--seed", str(seed)),
               lambda r, p: r.experiment(n, trials, seed), check)


def jobs(workload: str, sizes: Sizes, seed: int) -> list[Job]:
    """The workload's timed jobs, in the order one pass runs them."""
    s = sizes
    if workload == "large-sparse":
        return [
            construct_sphere(s.sphere_n, "sphere.txt"),
            verify("sphere.txt"),
            count("sphere.txt", "naive", free=True),
            construct_product(s.product_n, "product.txt", force_verify=True),
            growth(s.growth_exps),
            count("sparse.txt", "fft", free=False, peak=True),
            count("sparse.txt", "naive", free=False),
            search("grid", s.budget_grid, False, budget=10),
        ]
    if workload == "dense-spectral":
        small, big = "product-small.txt", "product-big.txt"
        return [
            construct_product(s.increment_n, small, force_verify=False),
            construct_product(s.dichotomy_n, big, force_verify=False),
            verify(big),
            count(big, "naive", free=True),
            increment(small),
            diagnose(small, "lambda"),
            diagnose(big, "dichotomy", peak=True),
            diagnose("gvn.txt", "gvn"),
            count("dense.txt", "fft", free=False, peak=True),
            count("dense.txt", "naive", free=False),
            experiment(s.experiment_n, s.experiment_trials, seed),
        ] + [search(kind, size, bi) for kind, size, bi in s.searches]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# in-process replay
# ---------------------------------------------------------------------------

@dataclass
class Replay:
    """Calls skewlab's public functions the way each CLI job does, with a
    span around every call.  `sk` is the imported skewlab package."""

    sk: object
    tracer: object

    def _load(self, path: str):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with self.tracer.span("core.loads_skewset") as s:
            a = self.sk.loads_skewset(text)
            s.count("core.points", len(a))
        return a

    def _save(self, a, path: str) -> None:
        with self.tracer.span("core.dumps_skewset"):
            text = self.sk.dumps_skewset(a)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)

    def construct_sphere(self, n: int, out: str) -> dict:
        sk = self.sk
        with self.tracer.span("construct.sphere_construction"):
            a, _ = sk.sphere_construction(n)
        sizes = a.column_sizes()
        with self.tracer.span("construct.verify_free") as s:
            verified = sk.verify_free(a, seed=0)
            s.count("construct.verify_free_sampled",
                    int(int((sizes * sizes).sum()) > VERIFY_FREE_EXHAUSTIVE_MAX))
        self._save(a, out)
        return {"size": len(a), "verified": verified}

    def construct_product(self, n: int, base: str, out: str, force: bool) -> dict:
        sk = self.sk
        pts = self._load(base)
        b = sk.BaseSet(pts.ambient.size, pts)
        with self.tracer.span("construct.product_construction"):
            a = sk.product_construction(b, n, verify=True if force else None)
        self._save(a, out)
        return {"size": len(a), "verified": bool(force or n <= 64)}

    def verify(self, path: str, own: PointFile) -> dict:
        sk = self.sk
        a = self._load(path)
        # the same points through the array constructor, pre-parsed by skewio
        amb = sk.Ambient(own.kind, own.size)
        with self.tracer.span("core.from_arrays"):
            sk.GridSet.from_arrays(own.xs, own.ys, amb)
        with self.tracer.span("verify.find_skew_corner"):
            w = sk.find_skew_corner(a)
        return {"free": w is None, "witness": None if w is None else str(w)}

    def count(self, path: str, method: str) -> dict:
        sk = self.sk
        a = self._load(path)
        if method == "naive":
            sizes = a.column_sizes()
            with self.tracer.span("verify.count_skew_corners_naive") as s:
                c = sk.count_skew_corners_naive(a)
                s.count("verify.pair_work", int((sizes * sizes).sum()))
        else:
            t = a if a.ambient.kind == "torus" else sk.embed_torus(a)
            with self.tracer.span("core.indicator_matrix"):
                t.indicator_matrix()
            with self.tracer.span("verify.count_skew_corners_fft") as s:
                c = sk.count_skew_corners_fft(a)
                n = t.ambient.size
                s.count("verify.fft_side", n)
                # float64 indicator + complex128 spectrum + complex128 inverse
                s.count("verify.fft_bytes_computed", 40 * n * n)
        return {"trivial": c.trivial, "nontrivial": c.nontrivial, "total": c.total}

    def growth(self, ns: list[int]) -> dict:
        with self.tracer.span("construct.growth_table"):
            rows = self.sk.growth_table(ns, bi=True)
        return {"rows": [{"n": r.n, "size": r.size, "density": r.density} for r in rows]}

    def search(self, kind: str, size: int, bi: bool, budget, out: str) -> dict:
        sk = self.sk
        kw = {} if budget is None else {"budget": budget}
        with self.tracer.span("search.max_skew_corner_free") as s:
            res = sk.max_skew_corner_free(sk.Ambient(kind, size), mode="bi_skew" if bi else "skew", **kw)
            s.count("search.nodes", res.nodes_explored)
            s.count("search.budgeted", int(budget is not None))
        self._save(res.witness, out)
        return {"best_size": res.best_size, "optimal": res.optimal,
                "nodes_explored": res.nodes_explored}

    def diagnose(self, path: str, which: str) -> dict:
        sk = self.sk
        a = self._load(path)
        if which == "gvn":
            with self.tracer.span("fourier.check_gvn"):
                g = sk.check_gvn(a if a.ambient.kind == "torus" else sk.embed_torus(a))
            return {"alpha": g.alpha, "inequality_holds": g.inequality_holds}
        if which == "dichotomy":
            with self.tracer.span("fourier.row_transforms"):
                sk.row_transforms(sk.TwoDFunction.indicator(a))
            with self.tracer.span("fourier.dichotomy_report"):
                d = sk.dichotomy_report(a)
            return {"alpha": d.alpha, "branch": d.branch}
        t = a if a.ambient.kind == "torus" else sk.embed_torus(a)
        with self.tracer.span("core.indicator_matrix"):
            m = t.indicator_matrix()
        ind = sk.TwoDFunction(t.ambient.size, m)
        with self.tracer.span("fourier.lambda_form"):
            lam = sk.lambda_form(ind, ind, ind)
        with self.tracer.span("verify.count_skew_corners_fft") as s:
            c = sk.count_skew_corners_fft(a)
            n = t.ambient.size
            s.count("verify.fft_side", n)
            s.count("verify.fft_bytes_computed", 40 * n * n)
        n4 = lam * n**4
        return {"count_total": c.total, "relative_gap": abs(n4 - c.total) / max(c.total, 1)}

    def increment(self, path: str) -> dict:
        sk = self.sk
        a = self._load(path)
        with self.tracer.span("increment.increment_step") as s:
            out = sk.increment_step(a, config=sk.AnalysisConfig(C=64.0, c_prime=0.05), mode="best_effort")
            s.count("increment.n_prime", out.n_prime)
            s.count("increment.density_ratio", out.density / a.density)
        return {"density": out.density, "nprime": out.n_prime}

    def experiment(self, n: int, trials: int, seed: int) -> dict:
        sk = self.sk
        rng = np.random.default_rng(seed)
        elems = np.flatnonzero(rng.random(n) < 0.5)
        b2 = sk.GridSet.from_arrays(np.repeat(elems, elems.size), np.tile(elems, elems.size), sk.torus(n))
        with self.tracer.span("verify.count_corners"):
            sk.count_corners(b2)
        with self.tracer.span("increment.product_set_experiment"):
            rep = sk.product_set_experiment(0.5, n, trials, seed)
        return {"N": rep.N, "trials": rep.trials, "alpha": rep.alpha,
                "mean_skew_count": rep.mean_skew_count, "mean_corner_count": rep.mean_corner_count}
