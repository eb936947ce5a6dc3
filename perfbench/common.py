"""Shared plumbing: checkout paths, statistics, child processes, provenance."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

#: The benchmark runs from the root of a checkout; everything it reads or
#: writes lives below it.
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".perfbench-work")


def have_program() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def fresh_dir(*parts: str) -> str:
    path = os.path.join(WORK, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def child_env() -> Dict[str, str]:
    """Environment for program subprocesses: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


# -- statistics ---------------------------------------------------------------


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[rank - 1])


def peak_rss_mb(which: str) -> float:
    """Largest peak resident set (``ru_maxrss``) of the processes running the program.

    ``which`` is ``"self"``, ``"children"`` (waited-for subprocesses and
    their descendants) or ``"both"``.
    """
    peaks = []
    if which in ("self", "both"):
        peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if which in ("children", "both"):
        peaks.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return max(peaks) / 1024.0


# -- child processes ----------------------------------------------------------


class Child:
    """A program subprocess that is always stopped and waited for."""

    def __init__(self, argv: List[str], capture_stdout: bool = False) -> None:
        self.argv = argv
        self.proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE if capture_stdout else subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            text=True,
        )

    def wait(self, timeout: float) -> int:
        # A blocking wait returns the moment the child exits; Popen.wait with
        # a timeout polls with sleeps of up to 50 ms, which would quantize
        # the start-up times measured around it.
        timer = threading.Timer(timeout, self.proc.kill)
        timer.start()
        try:
            code = self.proc.wait()
        finally:
            timer.cancel()
        if code == -signal.SIGKILL:
            raise RuntimeError(f"{self.argv[:4]} did not exit within {timeout}s")
        return code

    def stop(self, timeout: float = 20.0) -> Optional[int]:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=timeout)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return self.proc.returncode


def launcher(*args: str) -> List[str]:
    return [sys.executable, os.path.join(HERE, "launch.py"), *args]


def wait_for_file(path: str, child: Child, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        if child.proc.poll() is not None:
            raise RuntimeError(f"{child.argv[:4]} exited with {child.proc.returncode} before ready")
        if time.monotonic() > deadline:
            raise RuntimeError(f"{child.argv[:4]} not ready within {timeout}s")
        time.sleep(0.002)


# -- provenance ----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> Optional[str]:
    env = dict(os.environ)
    # never borrow the commit of a repository that merely encloses the checkout
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> Dict[str, Any]:
    import numpy
    from repro.obs.provenance import run_manifest

    return run_manifest(
        extra={
            "benchmark": "perfbench",
            "workload": workload,
            "workload_seed": seed,
            "run_seconds": seconds,
            "traced": trace,
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "numpy": numpy.__version__,
            "git_commit": _git_commit(),
        }
    )


def emit(line: Dict[str, Any]) -> None:
    print(json.dumps(line, sort_keys=True), flush=True)
