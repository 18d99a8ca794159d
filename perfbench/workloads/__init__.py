"""The workloads.  Each module exposes ``setup(name, ctx)`` and
``run(state, ctx)``; :mod:`perfbench.worker` drives them."""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The seed the committed references were recorded with.
DEFAULT_SEED = 0

REFERENCES = pathlib.Path(__file__).resolve().parent.parent / "references.json"


@dataclass
class Context:
    """What a workload receives from the worker."""

    seed: int
    seconds: float
    work: pathlib.Path
    tracing: Any = None            # perfbench.tracing.Tracing when traced
    update_references: bool = False
    failures: List[str] = field(default_factory=list)

    @property
    def default_seed(self) -> bool:
        return self.seed == DEFAULT_SEED

    def fail(self, message: str) -> None:
        """Record one failed correctness check."""
        self.failures.append(message)


def timed_op(ctx: Context, traced: bool,
             op: Callable[[], Any]) -> Tuple[Any, float, int]:
    """Run one operation; returns ``(result, wall seconds, root span id)``.

    A traced operation runs with the wrappers installed, inside an
    ``op`` root span (whose id the per-layer numbers are keyed on); an
    untraced one runs bare and has root id 0.
    """
    if not traced:
        t0 = time.perf_counter()
        result = op()
        return result, time.perf_counter() - t0, 0
    ctx.tracing.start()
    try:
        with ctx.tracing.recorder.span("op") as root:
            t0 = time.perf_counter()
            result = op()
            wall = time.perf_counter() - t0
    finally:
        ctx.tracing.stop()
    return result, wall, root[0]


def load_references() -> Dict[str, Any]:
    """The committed reference values (empty before the first recording)."""
    if not REFERENCES.exists():
        return {}
    return json.loads(REFERENCES.read_text())


def store_reference(name: str, value: Any) -> None:
    """Record ``value`` as the reference of workload ``name``."""
    refs = load_references()
    refs[name] = value
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def relative_mismatch(got: Any, want: Any, rtol: float) -> Optional[str]:
    """None when ``got`` is within ``rtol`` of ``want`` (norm-relative).

    Scalars compare as ``|got - want| <= rtol * |want|``; sequences as
    ``||got - want|| <= rtol * ||want||``.
    """
    g = [float(x) for x in (got if isinstance(got, (list, tuple)) else [got])]
    w = [float(x) for x in (want if isinstance(want, (list, tuple)) else [want])]
    if len(g) != len(w):
        return f"length {len(g)} != {len(w)}"
    diff = sum((a - b) ** 2 for a, b in zip(g, w)) ** 0.5
    norm = sum(b * b for b in w) ** 0.5
    if diff <= rtol * norm:
        return None
    return f"relative error {diff / norm if norm else diff:.3e} > {rtol:g}"
