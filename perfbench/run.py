"""skewlab benchmark: one closed-loop client runs a workload's CLI jobs back
to back, checks every output and prints one JSON result line.

    python3 perfbench/run.py --workload large-sparse --seed 1 --seconds 50 --trace 0

Run it from the root of a source checkout; the program is `src/skewlab`,
run as `python -m skewlab.cli` with `PYTHONPATH=src`.  `--trace 0` reports
the end-to-end metrics of untraced CLI passes.  `--trace 1` reports the
per-layer metrics: one CLI pass for the per-subcommand times, then
in-process replays of the same jobs with spans around each call into
skewlab, alternating with untraced replays to give the tracing overhead,
then one tracemalloc replay of the jobs that carry a peak-memory metric.
`--smoke` shrinks every input so that all jobs and checks run in seconds.
Working files, spans and a full result record go to `.perfbench/`.

Only the standard library is loaded before the job launcher starts, so
that the jobs' peak RSS does not include this process's (see launcher.py).
"""

from __future__ import annotations

import os

# Single client, single process: BLAS/OpenMP pools are limited to one
# thread before numpy loads, here and in every job.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _v in THREAD_VARS:
    os.environ[_v] = "1"

import argparse
import statistics
import sys
import time

from launcher import Launcher

WORKLOADS = ("large-sparse", "dense-spectral")


def _loop_seconds() -> float:
    t0 = time.perf_counter()
    d: dict = {}
    for i in range(200_000):
        d[i & 1023] = d.get(i & 1023, 0) + i
    return time.perf_counter() - t0


def pin_to_fastest_cpu() -> None:
    """Pin this process, and so the launcher and every job, to the CPU that
    runs a fixed Python loop fastest.  The virtual CPUs of a shared machine
    can differ in speed by tens of percent (a busy sibling thread on the
    same core), and a job the scheduler places on either would time as
    either."""
    cpus = sorted(os.sched_getaffinity(0))
    timed: dict[int, list[float]] = {cpu: [] for cpu in cpus}
    # CPUs take turns, so that a burst of load elsewhere hits each alike
    for _ in range(8):
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            timed[cpu].append(_loop_seconds())
    os.sched_setaffinity(0, {min(cpus, key=lambda c: statistics.median(timed[c]))})


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, every job and check")
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "skewlab", "cli.py")):
        print(f"no skewlab source under {root}/src; run from a checkout root", file=sys.stderr)
        return 2
    pin_to_fastest_cpu()
    launcher = Launcher()
    try:
        import bench  # loads numpy, so only after the launcher is up

        return bench.main(args, launcher)
    finally:
        launcher.close()


if __name__ == "__main__":
    sys.exit(main())
