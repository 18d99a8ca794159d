"""Shared helpers: pinned environment, percentiles, calibration, run records.

Everything here is standard library only, so the orchestrating parent
(``perfbench/run.py``) can use it without importing NumPy or ``repro``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import platform
import subprocess
import sys
import time
from typing import Any, Dict, Optional, Sequence

#: Environment every workload interpreter starts with.  One BLAS thread:
#: on a 2-vCPU host a second OpenBLAS thread competes with the
#: interpreter for the other core on these tiny GEMMs.
PINNED_ENV: Dict[str, str] = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Set-ups measured per run (median reported), each in a fresh process.
SETUP_SAMPLES = 5

#: Percentiles the tail helper may report, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)

#: A percentile is reported as a tail only with this many samples beyond it.
TAIL_MIN_BEYOND = 10

#: Iterations of the fixed calibration loop (about 0.2 s here).
CALIBRATION_ITERATIONS = 2_000_000


def percentile(samples: Sequence[float], p: float) -> float:
    """The ``p``-th percentile by linear interpolation between ranks."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def samples_beyond(n: int, p: float) -> float:
    """How many of ``n`` samples lie beyond the ``p``-th percentile.

    Rounded to 1e-9 so that, say, 100 samples leave exactly 10 beyond p90.
    """
    return round(n * (100.0 - p) / 100.0, 9)


def tail_percentile(samples: Sequence[float]) -> Optional[Dict[str, float]]:
    """The highest ladder percentile with >= 10 samples beyond it.

    Returns ``{"p": ..., "value": ..., "n": ...}``, or None when even the
    median has fewer than ten samples beyond it.
    """
    n = len(samples)
    best = None
    for p in PERCENTILE_LADDER:
        if samples_beyond(n, p) >= TAIL_MIN_BEYOND:
            best = p
    if best is None:
        return None
    return {"p": best, "value": percentile(samples, best), "n": n}


def valid_percentile(n: int, p: float) -> bool:
    """True when ``n`` samples leave >= 10 beyond the ``p``-th percentile."""
    return samples_beyond(n, p) >= TAIL_MIN_BEYOND


def median(samples: Sequence[float]) -> float:
    """The 50th percentile."""
    return percentile(samples, 50.0)


def calibration_loop(iterations: int = CALIBRATION_ITERATIONS) -> float:
    """Wall time of a fixed pure-Python loop: a host-speed probe.

    Timed just before and just after each measured region and recorded
    with the run; a set of runs that disagrees with another can then be
    attributed to host drift.  It never rescales a metric.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i * i & 7
    elapsed = time.perf_counter() - t0
    if acc < 0:  # keeps the loop body live
        raise AssertionError("unreachable")
    return elapsed


def source_revision(root: pathlib.Path) -> Dict[str, str]:
    """The commit of the checkout, or a digest of its sources.

    Benchmark checkouts need not be git repositories, so the sha256 of
    every ``src/**/*.py`` file (path and bytes) is always recorded.
    """
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    out = {"source_sha256": digest.hexdigest()}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    out["commit"] = commit or "unknown (not a git checkout)"
    return out


def interpreter_environment() -> Dict[str, Any]:
    """Python, NumPy and BLAS versions plus the pinned settings in force.

    Call only inside a workload interpreter (it imports NumPy).
    """
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "tuning_profile": "built-in default (no --tuning-profile, "
                          "no .repro-tuning/ cache)",
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def write_json(path: pathlib.Path, payload: Any) -> None:
    """Write ``payload`` as indented JSON, creating parent directories."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def peak_rss_mb_self() -> float:
    """Peak resident set size of this process, in MB (10^6 bytes)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set size (VmHWM) of a live process, in MB (10^6 bytes)."""
    status = pathlib.Path(f"/proc/{pid}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return float(line.split()[1]) * 1024 / 1e6
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Window:
    """A measuring window of fixed length, checked between operations."""

    def __init__(self, seconds: float) -> None:
        self.seconds = float(seconds)
        self.t0 = time.perf_counter()

    def open(self) -> bool:
        """True while the window has time left."""
        return time.perf_counter() - self.t0 < self.seconds

