"""One workload interpreter: set up, print READY, measure, write results.

Started by ``perfbench/run.py`` with the pinned environment in a fresh
working directory::

    python3 perfbench/worker.py --workload md_scf --seed 0 --seconds 20 \
        --trace 0 --mode run --out result.json

``--mode setup`` stops after READY (a set-up probe).  The result JSON
carries the raw samples; ``run.py`` turns them into metrics.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import Any, Dict, List, Optional

from perfbench import layers
from perfbench.common import (
    calibration_loop,
    interpreter_environment,
    peak_rss_mb_self,
    write_json,
)
from perfbench.tracing import SpanIndex, Tracing
from perfbench.workloads import Context

WORKLOADS = ("md_scf", "serve_mixed")


def _module(name: str) -> Any:
    if name == "md_scf":
        from perfbench.workloads import md as module
    else:
        from perfbench.workloads import serve as module
    return module


def md_per_layer(tracing: Tracing, result: Dict[str, Any],
                 setup_root: int) -> Dict[str, Any]:
    """Per-layer metrics and layer-family shares of md_scf."""
    idx = SpanIndex(tracing.recorder.spans)
    ops = idx.within(result["trace_roots"])
    steps = len(result["traced_walls"])
    op_wall = sum(result["traced_walls"])
    values = layers.grid_layers(ops, tracing, steps)
    values["core.setup.scf_s"] = layers.setup_scf_seconds(
        idx.within([setup_root]))
    values["obs.trace_overhead"] = layers.trace_overhead(
        result["traced_walls"], result["op_walls"])
    return {"per_layer": layers.complete(values),
            "shares": layers.shares(ops, op_wall)}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--out", type=pathlib.Path)
    parser.add_argument("--spans", type=pathlib.Path)
    parser.add_argument("--update-references", action="store_true")
    args = parser.parse_args(argv)

    import repro

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    if pathlib.Path(repro.__file__).resolve().parent.parent != src.resolve():
        print(f"error: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    module = _module(args.workload)
    ctx = Context(seed=args.seed, seconds=args.seconds,
                  work=pathlib.Path.cwd(),
                  update_references=args.update_references)
    tracing = Tracing(layers.PATCHES) if args.trace else None
    ctx.tracing = tracing
    setup_root = 0
    if tracing is not None:
        tracing.start()
        try:
            with tracing.recorder.span("setup") as root:
                state = module.setup(args.workload, ctx)
        finally:
            tracing.stop()
        setup_root = root[0]
    else:
        state = module.setup(args.workload, ctx)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    cal_before = calibration_loop()
    t0 = time.perf_counter()
    result = module.run(state, ctx)
    measured = time.perf_counter() - t0
    cal_after = calibration_loop()
    if "peak_rss_mb" not in result:
        result["peak_rss_mb"] = peak_rss_mb_self()
    if tracing is not None:
        if args.workload == "md_scf":
            result.update(md_per_layer(tracing, result, setup_root))
        result["shape_failures"] = layers.shape_failures(
            args.workload, result["per_layer"], result["shares"])
        if args.spans is not None:
            write_json(args.spans, tracing.recorder.to_json())
    result.update(
        checks_failed=ctx.failures,
        calibration={"before_s": cal_before, "after_s": cal_after},
        measured_s=measured,
        environment=interpreter_environment(),
    )
    write_json(args.out, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
