"""Starts the benchmark's CLI jobs and reports each one's own peak RSS.

Linux carries a process's peak RSS across fork and exec, so a job started
straight from the benchmark process (numpy loaded, inputs in memory) would
report at least the benchmark's own peak.  The benchmark therefore starts
this launcher first, while it is still small, and runs every job through
it.  The launcher imports only the standard library.

Protocol: one JSON request per stdin line, {"argv", "cwd", "env", "stdout",
"stderr", "timeout"}; one JSON reply per stdout line, {"seconds", "cpu_s",
"code", "maxrss_kb"}.  The launcher exits when its stdin closes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


class Launcher:
    """Client side: owns the launcher process and waits for it on close."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv, cwd: str, env: dict, stdout: str, stderr: str,
            timeout: float) -> tuple[float, float, int, float]:
        """(wall seconds, CPU seconds, exit code, peak RSS in MB) of one job."""
        req = {"argv": list(argv), "cwd": cwd, "env": env, "stdout": stdout,
               "stderr": stderr, "timeout": timeout}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("job launcher exited")
        rep = json.loads(line)
        return rep["seconds"], rep["cpu_s"], rep["code"], rep["maxrss_kb"] / 1024

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                req["argv"], cwd=req["cwd"], env=req["env"],
                stdout=out, stderr=err, stdin=subprocess.DEVNULL,
            )
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps({
            "seconds": seconds, "cpu_s": usage.ru_utime + usage.ru_stime,
            "code": code, "maxrss_kb": usage.ru_maxrss,
        }) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
