"""Order statistics, process resource readings and environment metadata."""

from __future__ import annotations

import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_SAMPLES = 10  # a reported percentile needs this many samples above it


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile above the median with >= 10 samples beyond it."""
    if n < 2 * TAIL_SAMPLES:
        return None
    return max(50, math.floor(100 * (1 - TAIL_SAMPLES / n)))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (the smallest value with >= p % at or below it)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return float(ordered[rank - 1])


def timing_summary(values) -> dict:
    """Median, sample count and, when there are enough samples, a tail percentile."""
    out = {"n": len(values), "p50": median(values)}
    p = tail_percentile(len(values))
    if p is not None:
        out[f"p{p}"] = percentile(values, p)
    return out


def cpu_seconds() -> float:
    """User+system CPU of this process and of its children waited for so far."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def host_steal_jiffies() -> int:
    """Time the hypervisor gave this machine's CPUs to others (0 where unknown)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def peak_rss_mib(children: bool = False) -> float:
    """Peak resident set of this process, or of its largest child waited for."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import tmclust; "
    "print(time.perf_counter() - t)"
)


def import_seconds(root: str, repeats: int) -> list[float]:
    """``import tmclust`` time in fresh interpreters, importing from ``root/src``.

    Timed inside the child, so interpreter start-up and shutdown, which the
    package does not control, stay out of it.
    """
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], cwd=root, env=env, check=True,
            capture_output=True, text=True, timeout=120,
        )
        out.append(float(done.stdout.split()[-1]))
    return out


def _blas_info() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 has no mode argument
        return {"name": "unknown", "version": "unknown"}
    blas = deps.get("blas", {})
    return {
        "name": blas.get("name", "unknown"),
        "version": blas.get("version", "unknown"),
        "config": blas.get("openblas configuration", ""),
    }


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "mp_start_method": multiprocessing.get_context().get_start_method(),
        "seed": seed,
    }
