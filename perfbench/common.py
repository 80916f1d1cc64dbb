"""Shared helpers of the benchmark: paths, child processes, statistics and
the description of the machine.  Standard library only, so that importing
this module does not pull numpy or pnspredict into the timed set-up."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from math import ceil
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
WORK = ROOT / ".bench_run"

# BLAS runs on one thread here and in every child, so that the only extra
# threads are table1's own pool: OpenBLAS's default of one per CPU gives
# each of table1's two threads two more on two CPUs, and spins them.  It
# takes effect when numpy is first imported, which is after this module.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

# Every child process gets this long to finish; one ladder op takes ~9 s.
CHILD_TIMEOUT_S = 120
# The CLI's moment tolerance for each generator kind.
MOMENT_TOL = {"bspline": 1e-8, "daubechies": 1e-6}
# Kinds of failed op that a workload's check reports.  Both count in
# `failed`; only WRONG makes the result incorrect.
WRONG = "wrong"     # the program returned an output that breaks a gate
ERROR = "error"     # the program raised, exited non-zero or refused the op


class TreeError(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def require_tree():
    """Fail unless the checkout has the package sources and the configs."""
    missing = [str(p.relative_to(ROOT)) for p in
               (SRC / "pnspredict" / "__init__.py", CONFIGS / "quartic_r1.cfg")
               if not p.is_file()]
    if missing:
        raise TreeError("missing from the checkout: " + ", ".join(missing))
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)


def check_imported(module):
    """Refuse a pnspredict imported from anywhere but this checkout."""
    path = Path(module.__file__).resolve()
    if SRC not in path.parents:
        raise TreeError(f"pnspredict was imported from {path}, not from {SRC}")


def child_env(**extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def run_child(args, **kwargs) -> subprocess.CompletedProcess:
    """Run a child to completion; the timeout kills it and waits for it."""
    return subprocess.run(args, env=kwargs.pop("env", child_env()), cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, **kwargs)


def median(values):
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        raise ValueError("median of nothing")
    mid = n // 2
    return vals[mid] if n % 2 else 0.5 * (vals[mid - 1] + vals[mid])


def percentile(values, q: float):
    """Nearest-rank percentile, with the number of samples above it.

    A tail percentile is trusted when at least ten samples lie beyond it;
    the count is returned so the report can show whether that holds.
    """
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        raise ValueError("percentile of nothing")
    rank = min(n, max(1, ceil(q * n)))
    return vals[rank - 1], n - rank


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def machine_info() -> dict:
    from importlib.metadata import PackageNotFoundError, version

    def pkg(name):
        try:
            return version(name)
        except PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": pkg("numpy"),
        "click": pkg("click"),
        "git_commit": git_commit(),
    }
