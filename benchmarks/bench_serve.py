"""Serving-layer benchmark: latency, batching throughput, warm reuse.

The daemon exists to amortize request overheads that one-shot CLI runs
pay every time: process startup, ground-state recomputation, and -- under
concurrent load -- per-request kernel dispatch.  This bench holds the
three serving claims to numbers:

- **latency under load**: client-observed per-job latency (p50/p99) and
  jobs/sec at 1x, 4x and 16x concurrent clients submitting ensemble
  jobs to a batching daemon (on one lane, see below);
- **batching wins at load**: the same 16x workload through a coalescing
  daemon (``max_batch=16``) vs a singleton daemon (``max_batch=1``),
  both on one lane, so the singleton daemon gains no parallelism that
  coalescing does not need and the ratio measures coalescing alone.
  Coalescing must deliver at least ``MIN_BATCH_SPEEDUP`` (1.3x) more
  jobs/sec -- asserted in-bench;
- **warm-state reuse**: cold scf jobs (pool invalidated before each) vs
  warm resubmissions of the same job.  Warm p50 must be at most
  ``MAX_WARM_OVER_COLD`` (0.5x) of cold p50 -- asserted in-bench.

Every job runs with memoization off and a distinct seed, so the numbers
measure serving mechanics, not artifact-cache hits.  The committed
``BENCH_serve.json`` baseline gate only needs to catch
order-of-magnitude drift (cross-machine ``--max-ratio 25`` in CI).
"""

from __future__ import annotations

import contextlib
import pathlib
import tempfile
import threading
import time
from typing import Dict, List, Tuple

import numpy as np

#: The per-job ensemble workload: small but real (tens of milliseconds),
#: hop-active so trajectories are seed-dependent.
ENS = {"ntraj": 8, "nsteps": 20, "nstates": 3, "coupling": 0.3,
       "batch_size": 32}

#: The warm-reuse workload: an scf ground state whose eigensolve
#: dominates its request cost.
SCF = {"grid": 12, "norb": 4, "nscf": 3, "ncg": 3}

#: (concurrent clients, jobs per client) per load level.
LOAD_LEVELS: Tuple[Tuple[int, int], ...] = ((1, 8), (4, 3), (16, 2))

#: Coalescing must beat singleton dispatch by this much at 16x load.
MIN_BATCH_SPEEDUP = 1.3

#: Warm p50 must be at most this fraction of cold p50.
MAX_WARM_OVER_COLD = 0.5


@contextlib.contextmanager
def _daemon(root: pathlib.Path, name: str, max_batch: int,
            one_lane: bool = False):
    """A daemon on this process's threads; ``one_lane`` fixes its lane
    count at 1, whatever the host's CPUs."""
    import repro.serve.daemon as daemon_module
    from repro.serve import BatchPolicy, DaemonHandle, ServeClient, ServeConfig

    config = ServeConfig(
        socket_path=root / f"{name}.sock",
        artifact_root=None,  # measure serving mechanics, not memo hits
        scratch_root=root / f"{name}-scratch",
        policy=BatchPolicy(max_batch=max_batch),
        max_queue=256,
    )
    lane_count = daemon_module.lane_count
    if one_lane:
        daemon_module.lane_count = lambda: 1
    try:
        with DaemonHandle(config):
            yield ServeClient(config.socket_path, timeout_s=300)
    finally:
        daemon_module.lane_count = lane_count


def _run_load(client, clients: int, jobs_each: int,
              seed0: int) -> Tuple[float, List[float]]:
    """Drive one load level; returns (wall_s, per-job latencies)."""
    latencies: List[float] = []
    lock = threading.Lock()
    barrier = threading.Barrier(clients)

    def worker(ci: int) -> None:
        barrier.wait()
        for j in range(jobs_each):
            seed = seed0 + 1000 * ci + j
            t0 = time.perf_counter()
            client.run_job("ensemble", {**ENS, "seed": seed},
                           memoize=False)
            dt = time.perf_counter() - t0
            with lock:
                latencies.append(dt)

    threads = [threading.Thread(target=worker, args=(ci,))
               for ci in range(clients)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    return wall, latencies


def _percentiles(latencies: List[float]) -> Dict[str, float]:
    arr = np.asarray(latencies)
    return {"p50_s": float(np.percentile(arr, 50)),
            "p99_s": float(np.percentile(arr, 99))}


def emit_serve():
    """Measure every serving claim; persist BENCH_serve.json."""
    from benchmarks.bench_common import write_bench_json

    kernels: Dict[str, Dict] = {}
    extra: Dict[str, object] = {}

    with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
        root = pathlib.Path(tmp)

        # -- latency under load (batching daemon, one lane) ------------- #
        with _daemon(root, "batched", max_batch=16, one_lane=True) as client:
            client.run_job("ensemble", {**ENS, "seed": 1},
                           memoize=False)  # warm-up (imports on worker)
            for clients, jobs_each in LOAD_LEVELS:
                wall, lats = _run_load(client, clients, jobs_each,
                                       seed0=100 * clients)
                njobs = clients * jobs_each
                kernels[f"serve_load_{clients}x"] = {
                    "time_s": wall, "kind": "measured",
                    "clients": clients, "jobs": njobs,
                }
                extra[f"load_{clients}x"] = {
                    **_percentiles(lats),
                    "jobs_per_s": njobs / wall,
                }
            batched_wall = kernels["serve_load_16x"]["time_s"]

        # -- batched vs unbatched at 16x load, both on one lane --------- #
        with _daemon(root, "singleton", max_batch=1, one_lane=True) as client:
            client.run_job("ensemble", {**ENS, "seed": 1}, memoize=False)
            clients, jobs_each = LOAD_LEVELS[-1]
            unbatched_wall, lats = _run_load(client, clients, jobs_each,
                                             seed0=100 * clients)
            kernels["serve_unbatched_16x"] = {
                "time_s": unbatched_wall, "kind": "measured",
                "clients": clients, "jobs": clients * jobs_each,
            }
            extra["unbatched_16x"] = {
                **_percentiles(lats),
                "jobs_per_s": clients * jobs_each / unbatched_wall,
            }
        batching_speedup = unbatched_wall / batched_wall
        extra["batching_speedup_16x"] = batching_speedup
        extra["min_batch_speedup"] = MIN_BATCH_SPEEDUP

        # -- cold vs warm ground states -------------------------------- #
        with _daemon(root, "warm", max_batch=16) as client:
            cold: List[float] = []
            for _ in range(3):
                client.invalidate(scope="pool")
                t0 = time.perf_counter()
                client.run_job("scf", dict(SCF), memoize=False)
                cold.append(time.perf_counter() - t0)
            warm: List[float] = []
            for _ in range(5):
                t0 = time.perf_counter()
                client.run_job("scf", dict(SCF), memoize=False)
                warm.append(time.perf_counter() - t0)
        cold_p50 = float(np.percentile(np.asarray(cold), 50))
        warm_p50 = float(np.percentile(np.asarray(warm), 50))
        kernels["serve_cold_scf"] = {
            "time_s": cold_p50, "kind": "measured", "samples": len(cold),
        }
        kernels["serve_warm_scf"] = {
            "time_s": warm_p50, "kind": "measured", "samples": len(warm),
        }
        warm_over_cold = warm_p50 / cold_p50
        extra["warm_over_cold_p50"] = warm_over_cold
        extra["max_warm_over_cold"] = MAX_WARM_OVER_COLD

    path = write_bench_json(
        "serve",
        kernels,
        workload={"ensemble": ENS, "scf": SCF,
                  "load_levels": [list(lv) for lv in LOAD_LEVELS]},
        extra=extra,
    )
    return path, batching_speedup, warm_over_cold, extra


def test_serve_telemetry():
    """Emit BENCH_serve.json; both serving gates must hold."""
    path, batching_speedup, warm_over_cold, extra = emit_serve()
    assert path.exists()
    assert batching_speedup >= MIN_BATCH_SPEEDUP, extra
    assert warm_over_cold <= MAX_WARM_OVER_COLD, extra


if __name__ == "__main__":
    out, batching_speedup, warm_over_cold, info = emit_serve()
    print(f"wrote {out}")
    print(f"batching speedup at 16x load: {batching_speedup:.2f}x "
          f"(gate >= {MIN_BATCH_SPEEDUP}x)")
    print(f"warm/cold p50: {warm_over_cold:.3f} "
          f"(gate <= {MAX_WARM_OVER_COLD})")
    for level, _ in ((f"load_{c}x", j) for c, j in LOAD_LEVELS):
        stats = info[level]
        print(f"  {level}: p50 {stats['p50_s'] * 1e3:.1f} ms, "
              f"p99 {stats['p99_s'] * 1e3:.1f} ms, "
              f"{stats['jobs_per_s']:.1f} jobs/s")
    ub = info["unbatched_16x"]
    print(f"  unbatched_16x: p50 {ub['p50_s'] * 1e3:.1f} ms, "
          f"{ub['jobs_per_s']:.1f} jobs/s")
