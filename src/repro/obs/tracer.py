"""Hierarchical span tracing for DC-MESH runs.

A *span* is one timed region of the run -- a kernel invocation, an SCF
cycle, a collective, a checkpoint write -- carrying wall time, nesting
depth, a *category* from the paper's kernel taxonomy
(:mod:`repro.obs.phases`) and the flop/byte tallies of the existing
:class:`~repro.perf.counters.CounterSet` machinery.  Spans nest: the
instrumented hot paths open one span per kernel inside the span of the
enclosing QD step, which itself nests inside the MD-step span, giving
the layered timing levels of heterogeneous RT-TDDFT codes.

The module-level *current tracer* defaults to :data:`NULL_TRACER`, whose
``span()`` hands back a shared no-op context manager -- the
instrumentation costs one attribute lookup and an empty ``with`` when
tracing is off, so it can live on the per-QD-step hot path.  Installing
a real :class:`Tracer` (``repro-mesh run --trace-out trace.json`` does
this) records every span for Chrome trace-event export
(:mod:`repro.obs.export`) and per-phase aggregation.

The tracer is thread-safe: each thread keeps its own span stack
(``threading.local``) and finished records are appended under a lock.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Dict, Iterator, List, Optional

from repro.perf.counters import CounterSet


@dataclass
class SpanRecord:
    """One finished span.

    ``start`` is seconds since the tracer's epoch; ``self_time`` is
    ``duration`` minus the time spent in child spans (so per-category
    totals never double-count nested work).  ``flops``/``bytes_moved``
    are whatever the span body charged via :meth:`Tracer.charge`.
    """

    name: str
    category: str
    start: float
    duration: float
    depth: int
    thread: int
    self_time: float = 0.0
    flops: float = 0.0
    bytes_moved: float = 0.0
    args: Dict[str, Any] = field(default_factory=dict)


class _OpenSpan:
    """Mutable bookkeeping of a span that is still on the stack."""

    __slots__ = ("name", "category", "t0", "flops", "bytes_moved",
                 "child_time", "args")

    def __init__(self, name: str, category: str, t0: float,
                 args: Dict[str, Any]) -> None:
        self.name = name
        self.category = category
        self.t0 = t0
        self.flops = 0.0
        self.bytes_moved = 0.0
        self.child_time = 0.0
        self.args = args


class _NullSpan:
    """Shared no-op context manager returned by the null tracer."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled-tracing fast path: every operation is a no-op."""

    __slots__ = ()

    enabled = False

    def span(self, name: str, category: str = "other", **args: object) -> _NullSpan:
        """Return the shared no-op context manager (records nothing)."""
        return _NULL_SPAN

    def charge(self, flops: float, bytes_moved: float) -> None:
        """Discard the counts (tracing is off)."""
        return None


#: The process-wide disabled tracer (singleton; never records anything).
NULL_TRACER = NullTracer()


class Tracer:
    """Records nested spans with wall time and flop/byte tallies.

    Parameters
    ----------
    clock:
        Monotonic time source (injectable for deterministic tests).
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.epoch = clock()
        self._lock = threading.Lock()
        self._local = threading.local()
        self.records: List[SpanRecord] = []
        #: Flop/byte totals keyed by span name (merged at span close).
        self.counters = CounterSet()

    # ------------------------------------------------------------------ #
    def _stack(self) -> List[_OpenSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def depth(self) -> int:
        """Current nesting depth of the calling thread."""
        return len(self._stack())

    @contextmanager
    def span(self, name: str, category: str = "other", **args: object) -> Iterator[_OpenSpan]:
        """Open one span; always closed and recorded, even on raise."""
        stack = self._stack()
        open_span = _OpenSpan(name, category, self._clock(), args)
        stack.append(open_span)
        try:
            yield open_span
        finally:
            popped = stack.pop()
            t1 = self._clock()
            duration = t1 - popped.t0
            if stack:
                stack[-1].child_time += duration
            record = SpanRecord(
                name=popped.name,
                category=popped.category,
                start=popped.t0 - self.epoch,
                duration=duration,
                depth=len(stack),
                thread=threading.get_ident(),
                self_time=max(duration - popped.child_time, 0.0),
                flops=popped.flops,
                bytes_moved=popped.bytes_moved,
                args=popped.args,
            )
            with self._lock:
                self.records.append(record)
                if popped.flops or popped.bytes_moved:
                    self.counters.add(popped.name, popped.flops,
                                      popped.bytes_moved)

    def charge(self, flops: float, bytes_moved: float) -> None:
        """Attribute flop/byte counts to the innermost open span.

        Outside any span the counts are tallied under ``untraced`` so
        they are never silently dropped.
        """
        stack = self._stack()
        if stack:
            stack[-1].flops += flops
            stack[-1].bytes_moved += bytes_moved
        else:
            with self._lock:
                self.counters.add("untraced", flops, bytes_moved)

    def adopt(self, records: List[SpanRecord], epoch: float,
              **tags: object) -> None:
        """Merge spans recorded by another tracer (say, a worker process's).

        ``epoch`` is that tracer's epoch read on this tracer's clock
        (``perf_counter`` is one system-wide monotonic clock on Linux,
        so a worker's epoch is comparable as it is).  Each record is
        rebased onto this tracer's epoch and its ``args`` gain ``tags``.
        """
        shift = epoch - self.epoch
        with self._lock:
            for record in records:
                record.start += shift
                record.args.update(tags)
                self.records.append(record)
                if record.flops or record.bytes_moved:
                    self.counters.add(record.name, record.flops,
                                      record.bytes_moved)

    # ------------------------------------------------------------------ #
    def total(self, name: str) -> float:
        """Summed duration of all finished spans with this name."""
        with self._lock:
            return sum(r.duration for r in self.records if r.name == name)

    def calls(self, name: str) -> int:
        """Number of finished spans with this name."""
        with self._lock:
            return sum(1 for r in self.records if r.name == name)


# --------------------------------------------------------------------- #
# process-global current tracer
# --------------------------------------------------------------------- #
_CURRENT: Any = NULL_TRACER


def get_tracer() -> Any:
    """The currently installed tracer (the null tracer by default)."""
    return _CURRENT


def set_tracer(tracer: Optional[Any]) -> Any:
    """Install ``tracer`` globally (``None`` restores the null tracer)."""
    global _CURRENT
    _CURRENT = tracer if tracer is not None else NULL_TRACER
    return _CURRENT


def trace_span(name: str, category: str = "other", **args: object) -> ContextManager[Any]:
    """Open a span on the current tracer (no-op when tracing is off)."""
    return _CURRENT.span(name, category, **args)


def trace_charge(flops: float, bytes_moved: float) -> None:
    """Charge flop/byte counts to the current tracer's innermost span."""
    _CURRENT.charge(flops, bytes_moved)


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Temporarily install a tracer; restores the previous one on exit."""
    tracer = tracer if tracer is not None else Tracer()
    previous = _CURRENT
    set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
