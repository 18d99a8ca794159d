"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload md_scf --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Every workload runs in a fresh
interpreter with one BLAS thread, the built-in tuning profile and fresh
working, checkpoint, artifact and scratch directories.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` is the separate traced run
that reports the per-layer metrics.  A table goes to stdout first; the
last line is one JSON object.  Any failed check exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT))

from perfbench.common import (  # noqa: E402  (needs ROOT on sys.path)
    PINNED_ENV,
    SETUP_SAMPLES,
    median,
    percentile,
    source_revision,
    tail_percentile,
    valid_percentile,
    write_json,
)

WORKLOADS = ("md_scf", "serve_mixed")

#: Hard limit on one run (a run must end within 180 s).
RUN_LIMIT_S = 170.0

#: Where run records, traced spans and temporary directories go.
OUT = ROOT / ".perfbench-out"

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("step_s.p50", "s"),
    ("traj_steps_per_s", "1/s"),
    ("latency_s.p50", "s"),
    ("latency_s.p90", "s"),
    ("jobs_per_s", "1/s"),
)


class RunFailed(RuntimeError):
    """A workload interpreter failed before producing a result."""


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid: int, timeout_s: float = 10.0) -> None:
    """Kill whatever a worker left in its process group; wait until gone."""
    _kill_group(pgid)
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    raise RunFailed(f"processes of group {pgid} did not exit")


def _spawn(args: argparse.Namespace, mode: str, work: pathlib.Path,
           deadline: float, out: Optional[pathlib.Path] = None,
           spans: Optional[pathlib.Path] = None) -> float:
    """Run one worker; returns seconds from spawn until it printed READY."""
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode]
    if out is not None:
        cmd += ["--out", str(out)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if args.update_references:
        cmd.append("--update-references")
    work.mkdir(parents=True)
    t0 = time.perf_counter()
    # A session of its own, so a serve daemon the worker starts can be
    # killed with it.
    proc = subprocess.Popen(cmd, cwd=work, env=_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                            _kill_group, args=(proc.pid,))
    timer.start()
    ready = None
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            else:
                sys.stderr.write(line)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        _reap_group(proc.pid)
    if code != 0 or ready is None:
        raise RunFailed(f"{args.workload} worker ({mode}) exited with {code}")
    return ready


def _metrics(result: Dict[str, Any], setups: List[float]) -> Dict[str, Tuple[float, str, int]]:
    """End-to-end metrics as ``name -> (value, unit, samples)``."""
    walls = result["op_walls"]
    if not walls or result["loop_wall"] <= 0:
        raise RunFailed("no operation completed in the measuring window")
    n = len(walls)
    units = dict(END_TO_END)
    values = {
        "setup_s": (median(setups), len(setups)),
        "peak_rss_mb": (result["peak_rss_mb"], 1),
        "step_s.p50": (median(walls), n),
        "traj_steps_per_s": (result["traj_steps"] / result["loop_wall"], n),
        "latency_s.p50": (median(walls), n),
        "latency_s.p90": (percentile(walls, 90.0), n),
        "jobs_per_s": (result["jobs"] / result["loop_wall"], n),
    }
    return {k: (v, units[k], count) for k, (v, count) in values.items()}


def _print_table(args: argparse.Namespace, rows: Dict[str, Tuple[float, str, int]],
                 notes: Dict[str, str]) -> None:
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print(f"  {'metric':26s} {'value':>14s}  {'unit':8s} {'samples':>7s}")
    for name, (value, unit, count) in rows.items():
        note = notes.get(name, "")
        print(f"  {name:26s} {value:14.6g}  {unit:8s} {count:7d}  {note}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-references", action="store_true",
                        help="record the default-seed references instead "
                             "of checking them")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = OUT / "work" / tag
    record_path = OUT / "runs" / f"{tag}.json"
    result_path = work / "result.json"
    try:
        setups = []
        # serve_mixed times daemon start-ups inside its own interpreter.
        if not args.trace and args.workload != "serve_mixed":
            for i in range(SETUP_SAMPLES - 1):
                setups.append(_spawn(args, "setup", work / f"setup{i}",
                                     deadline))
        ready = _spawn(args, "run", work / "run", deadline, out=result_path,
                       spans=OUT / "spans" / f"{tag}.json" if args.trace else None)
        result = json.loads(result_path.read_text())
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups = result.get("setup_samples") or setups + [ready]

    failures = list(result["checks_failed"]) + list(result.get("shape_failures", []))
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    correct = not failures and failed == 0 and attempted > 0
    if args.trace:
        from perfbench.layers import PER_LAYER

        values = result["per_layer"]
        rows = {name: (values[name], unit, len(result["traced_walls"]))
                for name, unit, _, _ in PER_LAYER}
        _print_table(args, rows, {name: f"moves {moves}"
                                  for name, _, _, moves in PER_LAYER})
        if result["shares"]:
            print("  layer shares of the traced operations: " + ", ".join(
                f"{k} {v:.1%}" for k, v in result["shares"].items()))
    else:
        try:
            rows = _metrics(result, setups)
        except RunFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        notes = {}
        walls = result["op_walls"]
        if not valid_percentile(len(walls), 90.0):
            tail = tail_percentile(walls)
            notes["latency_s.p90"] = "(< 10 samples beyond p90; highest valid: " + (
                f"p{tail['p']:g} = {tail['value']:.4g} s)" if tail else "none)")
        _print_table(args, rows, notes)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit, _) in rows.items()}
    env = result["environment"]
    print(f"  python {env['python']}, numpy {env['numpy']}, "
          f"BLAS {env['blas']['name']} {env['blas']['version']}, "
          + ", ".join(f"{k}={v}" for k, v in env["pinned_env"].items()))
    cal = result["calibration"]
    print(f"  calibration loop: {cal['before_s']:.4f} s before, "
          f"{cal['after_s']:.4f} s after the measured region")
    for failure in failures:
        print(f"  FAILED CHECK: {failure}")
    write_json(record_path, {
        "args": vars(args),
        "setup_samples": setups,
        "revision": source_revision(ROOT),
        "metrics": metrics,
        "correct": correct,
        "failures": failures,
        "result": result,
    })
    print(f"  run record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
