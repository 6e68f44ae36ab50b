"""The benchmark proper: set-up, CLI passes, in-process replays and the
metrics they give.  `run.py` is the entry point; see its docstring.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import sys
import time

import numpy as np

import workloads as wl
from launcher import Launcher
from skewio import read_skewset
from spans import Tracer, self_times

SETUP_REPEATS = 5
# A job still running this long after the benchmark started is killed and
# counted as failed, so that a hung job cannot keep the run from reporting.
DEADLINE_S = 165
SUBCOMMANDS = ("construct", "verify", "count", "growth", "search", "diagnose",
               "increment", "experiment")

# Per-layer span names; each gives the metric `<name>_s`, its summed self time.
LAYER_SPANS = (
    "core.loads_skewset", "core.from_arrays", "core.dumps_skewset", "core.indicator_matrix",
    "verify.find_skew_corner", "verify.count_skew_corners_naive",
    "verify.count_skew_corners_fft", "verify.count_corners",
    "construct.sphere_construction", "construct.product_construction",
    "construct.verify_free", "construct.growth_table",
    "search.max_skew_corner_free",
    "fourier.lambda_form", "fourier.dichotomy_report", "fourier.check_gvn",
    "fourier.row_transforms",
    "increment.increment_step", "increment.product_set_experiment",
)
# Counters recorded on spans: summed over a pass, except these maxima.
SUM_COUNTS = ("core.points", "verify.pair_work", "verify.fft_bytes_computed", "search.nodes")
MAX_COUNTS = ("verify.fft_side", "construct.verify_free_sampled", "increment.n_prime",
              "increment.density_ratio")
PEAK_SPANS = {
    "verify.count_skew_corners_fft_peak_mb": "verify.count_skew_corners_fft",
    "fourier.dichotomy_report_peak_mb": "fourier.dichotomy_report",
    "increment.increment_step_peak_mb": "increment.increment_step",
}


class Run:
    def __init__(self, root: str, workload: str, seed: int, smoke: bool, launcher: Launcher):
        self.root = root
        self.launcher = launcher
        self.workload = workload
        self.seed = seed
        tag = workload + ("-smoke" if smoke else "")
        self.workdir = os.path.join(root, ".perfbench", tag)
        self.result_path = os.path.join(
            root, ".perfbench", f"result-{tag}-seed{seed}.json")
        self.sizes = wl.SMOKE if smoke else wl.FULL
        self.jobs = wl.jobs(workload, self.sizes, seed)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.attempted = 0
        self.failures: list[str] = []
        self.record: dict = {"workload": workload, "seed": seed, "smoke": smoke}
        self.deadline = time.perf_counter() + DEADLINE_S

    # -- one CLI process ----------------------------------------------------

    def cli(self, argv) -> tuple[float, float, int, float, str, str]:
        """Run `python -m skewlab.cli argv`; (wall seconds, CPU seconds, exit
        code, peak RSS MB, stdout, stderr).  CPU and RSS are the job's own,
        from wait4."""
        out_path = os.path.join(self.workdir, ".stdout")
        err_path = os.path.join(self.workdir, ".stderr")
        seconds, cpu, code, rss = self.launcher.run(
            [sys.executable, "-m", "skewlab.cli", *argv], self.workdir, self.env,
            out_path, err_path, max(self.deadline - time.perf_counter(), 1.0))
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return seconds, cpu, code, rss, stdout, stderr

    # -- set-up -------------------------------------------------------------

    def setup(self) -> dict:
        """Write the seeded inputs, parse them back with the benchmark's own
        reader, and run one discarded warm-up job (`--version`)."""
        if os.path.isdir(self.workdir):
            shutil.rmtree(self.workdir)
        os.makedirs(self.workdir)
        t0 = time.perf_counter()
        shas = wl.make_inputs(self.workload, self.sizes, self.seed, self.workdir)
        facts = {name: read_skewset(os.path.join(self.workdir, name)) for name in shas}
        startup, _, code, _, version, err = self.cli(["--version"])
        if code != 0:
            raise SystemExit(f"skewlab does not start: {err.strip()}")
        return {"seconds": time.perf_counter() - t0, "startup_s": startup,
                "version": version.strip(), "sha256": shas, "facts": facts}

    def setups(self) -> tuple[dict, list[dict]]:
        runs = [self.setup() for _ in range(SETUP_REPEATS)]
        if any(r["sha256"] != runs[0]["sha256"] for r in runs):
            raise SystemExit("inputs differ between set-ups of one seed")
        self.record["inputs_sha256"] = runs[0]["sha256"]
        self.record["skewlab_version"] = runs[0]["version"]
        self.record["setup_s"] = [r["seconds"] for r in runs]
        return runs[-1], runs

    # -- passes -------------------------------------------------------------

    def fail(self, job: wl.Job, msg: str) -> None:
        self.failures.append(f"{job.name}: {msg}")

    def cli_pass(self, inputs) -> dict:
        p = wl.Pass(self.workdir, inputs)
        jobs = []
        for job in self.jobs:
            self.attempted += 1
            seconds, cpu, code, rss, stdout, stderr = self.cli(job.argv)
            jobs.append({"job": job.name, "sub": job.sub, "s": seconds, "cpu_s": cpu,
                         "rss_mb": rss, "rc": code, "budgeted": "--budget" in job.argv})
            if code != 0:
                self.fail(job, f"exit {code}: {stderr.strip()[-300:]}")
                continue
            try:
                job.check(job.parse_stdout(stdout), p)
            except (wl.CheckFailed, KeyError, TypeError, ValueError) as exc:
                self.fail(job, f"check failed: {exc!r}")
        return {"wall_s": sum(j["s"] for j in jobs), "cpu_s": sum(j["cpu_s"] for j in jobs),
                "jobs": jobs}

    def replay_pass(self, sk, tracer: Tracer, jobs, index: int) -> float:
        replay = wl.Replay(sk, tracer)
        p = wl.Pass(self.workdir, self.inputs)
        t0 = time.perf_counter()
        for job in jobs:
            self.attempted += 1
            tracer.job = f"{index}:{job.name}"
            try:
                with tracer.span("job:" + job.sub):
                    report = job.replay(replay, p)
                job.check(report, p)
            except Exception as exc:  # a skewlab error or failed check: count it, go on
                self.fail(job, f"replay: {exc!r}")
        return time.perf_counter() - t0

    # -- modes --------------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        last, runs = self.setups()
        self.inputs = last["facts"]
        passes = []
        t0 = time.perf_counter()
        while True:
            passes.append(self.cli_pass(self.inputs))
            typical = statistics.median(p["wall_s"] for p in passes)
            if time.perf_counter() - t0 + typical / 2 >= seconds:
                break
        self.record["passes"] = passes
        ok = 1 - len(self.failures) / self.attempted
        return {
            "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
            "setup_s": (statistics.median(r["seconds"] for r in runs), "s"),
            "peak_rss_mb": (max(j["rss_mb"] for p in passes for j in p["jobs"]), "MB"),
            "ok_frac": (ok, "ratio"),
        }

    def trace(self, seconds: float) -> dict:
        last, runs = self.setups()
        self.inputs = last["facts"]
        t0 = time.perf_counter()
        cli = self.cli_pass(self.inputs)
        self.record["passes"] = [cli]
        metrics = {f"{sub}_s": (0.0, "s") for sub in SUBCOMMANDS}
        for j in cli["jobs"]:
            metrics[f"{j['sub']}_s"] = (metrics[f"{j['sub']}_s"][0] + j["s"], "s")
        metrics["cli.startup_s"] = (statistics.median(r["startup_s"] for r in runs), "s")

        sk = import_skewlab(self.root)
        # The first replay in a process is slower (lazy imports, caches,
        # first large allocations); it is run and checked, not timed.
        self.replay_pass(sk, Tracer(enabled=False), self.jobs, -1)
        traced, untraced, per_pass, spans = [], [], [], []
        budget = max(seconds - (time.perf_counter() - t0), 0.0)
        t1 = time.perf_counter()
        while True:
            on = Tracer(enabled=True)
            off = Tracer(enabled=False)
            order = (on, off) if len(traced) % 2 == 0 else (off, on)
            for tr in order:
                wall = self.replay_pass(sk, tr, self.jobs, len(traced))
                (traced if tr is on else untraced).append(wall)
            per_pass.append(layer_metrics(on.spans))
            spans.extend(on.spans)
            typical = statistics.median(traced) + statistics.median(untraced)
            if time.perf_counter() - t1 + typical / 2 >= budget:
                break
        for name, (_, unit) in per_pass[0].items():
            vals = [m[name][0] for m in per_pass]
            # counts stay whole numbers: they repeat exactly between passes
            mid = statistics.median_low if all(isinstance(v, int) for v in vals) else statistics.median
            metrics[name] = (mid(vals), unit)
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")

        peak_jobs = [j for j in self.jobs if j.peak]
        peaks = Tracer(enabled=True, peaks=frozenset(PEAK_SPANS.values()))
        self.replay_pass(sk, peaks, peak_jobs, -2)
        for metric, span_name in PEAK_SPANS.items():
            vals = [s.peak_bytes for s in peaks.spans if s.name == span_name]
            metrics[metric] = (max(vals, default=0) / 2**20, "MB")
        # tracemalloc makes the budgeted search, which allocates millions of
        # Python ints, about 18x slower; its peak is the CLI job's RSS instead.
        metrics["search.budgeted_peak_mb"] = (
            max((j["rss_mb"] for j in cli["jobs"] if j["budgeted"]), default=0.0), "MB")
        metrics["failed_frac"] = (len(self.failures) / self.attempted, "ratio")
        self.record["replay_wall_s"] = {"traced": traced, "untraced": untraced}
        self.record["spans"] = [vars(s) for s in spans]
        return metrics


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced replay pass."""
    selfs = self_times(spans)
    out = {f"{name}_s": (0.0, "s") for name in LAYER_SPANS}
    out["search.budgeted_s"] = (0.0, "s")
    counts = {name: 0 for name in SUM_COUNTS + MAX_COUNTS}
    for s, self_s in zip(spans, selfs):
        key = f"{s.name}_s"
        if key in out:
            out[key] = (out[key][0] + self_s, "s")
        if s.counts.get("search.budgeted"):
            out["search.budgeted_s"] = (out["search.budgeted_s"][0] + self_s, "s")
        for name, value in s.counts.items():
            if name in SUM_COUNTS:
                counts[name] += value
            elif name in MAX_COUNTS:
                counts[name] = max(counts[name], value)
    for name, value in counts.items():
        out[name] = (value, "ratio" if name == "increment.density_ratio" else
                     "B" if name.endswith("_bytes_computed") else "count")
    t = out["search.max_skew_corner_free_s"][0]
    out["search.nodes_per_s"] = (counts["search.nodes"] / t if t > 0 else 0.0, "1/s")
    return out


def import_skewlab(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import skewlab

    if not os.path.abspath(skewlab.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported skewlab from {skewlab.__file__}, not from {src}")
    return skewlab


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown'
    in a tree that is not a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(args, launcher: Launcher) -> int:
    root = os.getcwd()
    run = Run(root, args.workload, args.seed, args.smoke, launcher)
    run.record["env"] = {
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
        "seconds": args.seconds,
        "trace": args.trace,
    }
    metrics = run.trace(args.seconds) if args.trace else run.measure(args.seconds)
    run.record["env"]["skewlab"] = run.record.pop("skewlab_version")
    run.record["failures"] = run.failures
    run.record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    with open(run.result_path, "w", encoding="utf-8") as fh:
        json.dump(run.record, fh, indent=1, default=str)
    for line in run.failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0
