"""The traced run: span recording by wrapping layer entry points.

The benchmark never edits the program.  A traced run replaces each layer
entry point *at the name its caller looks up* (a module global such as
``repro.lfd.propagator.kinetic_step``, or a class attribute such as
``ArtifactStore.get``) with a wrapper that records a span, then puts
every original back.  Untraced runs never call :func:`install`.

A span is ``[id, name, start, end, parent, run, extra]``; ``run`` is the
id of the outermost span of its thread, so the spans of one operation
share it.  Spans stay in memory and are written out when the run ends.
Self time is a span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Marker attribute set on every wrapper (points at the original).
WRAPPED_MARK = "__perfbench_wrapped__"

_MISSING = object()

Measure = Callable[[tuple, dict, Any], Any]


class Recorder:
    """Thread-safe in-memory span store."""

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.spans: List[list] = []
        self.counts: List[Tuple[str, float, int]] = []
        self.marks: List[Tuple[str, str, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        """Open a span on this thread's stack; returns its record."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else 0
        run = stack[0][5] if stack else span_id
        record = [span_id, name, time.perf_counter() - self.epoch, 0.0,
                  parent, run, None]
        stack.append(record)
        return record

    def end(self, record: list, extra: Optional[Dict[str, float]] = None) -> None:
        """Close ``record`` (the top of this thread's stack)."""
        record[3] = time.perf_counter() - self.epoch
        record[6] = extra
        stack = self._stack()
        if stack and stack[-1] is record:
            stack.pop()
        with self._lock:
            self.spans.append(record)

    def count(self, name: str, value: float) -> None:
        """Record a count (no timing) against the current operation."""
        stack = self._stack()
        run = stack[0][5] if stack else 0
        with self._lock:
            self.counts.append((name, float(value), run))

    def mark(self, name: str, key: str) -> None:
        """Record that event ``name`` happened now for ``key``."""
        t = time.perf_counter() - self.epoch
        with self._lock:
            self.marks.append((name, key, t))

    def span(self, name: str) -> "_SpanContext":
        """``with recorder.span(name):`` convenience for harness spans."""
        return _SpanContext(self, name)

    def to_json(self) -> Dict[str, Any]:
        """Spans and counts as plain lists (written when the run ends)."""
        keys = ("id", "name", "start", "end", "parent", "run", "extra")
        with self._lock:
            return {
                "spans": [dict(zip(keys, s)) for s in self.spans],
                "counts": [{"name": n, "value": v, "run": r}
                           for n, v, r in self.counts],
                "marks": [{"name": n, "key": k, "time": t}
                          for n, k, t in self.marks],
            }


class _SpanContext:
    __slots__ = ("recorder", "name", "record")

    def __init__(self, recorder: Recorder, name: str) -> None:
        self.recorder = recorder
        self.name = name
        self.record: Optional[list] = None

    def __enter__(self) -> list:
        self.record = self.recorder.begin(self.name)
        return self.record

    def __exit__(self, *exc: object) -> bool:
        assert self.record is not None
        self.recorder.end(self.record)
        return False


# ---------------------------------------------------------------------- #
# patch specifications
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Patch:
    """One entry point to wrap.

    ``target`` is ``"module"`` or ``"module:Class"``; ``attr`` the name
    looked up there.  ``span`` names the layer.  ``kind`` is ``"span"``
    (timed), ``"count"`` (untimed: ``measure`` supplies the counts) or
    ``"map"`` (an executor ``map``: the map is timed and each task gets
    its own ``task:<label>`` span, so the map's self time is dispatch
    overhead) or ``"mark"`` (untimed: records when the call returned,
    under the key ``measure`` derives, or nothing if it gives None).
    ``measure(args, kwargs, result)`` attaches numbers to spans and
    counts.
    """

    target: str
    attr: str
    span: str
    kind: str = "span"
    measure: Optional[Measure] = None

    def owner(self) -> Any:
        module_name, _, class_name = self.target.partition(":")
        owner: Any = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        return owner


def _span_wrapper(fn: Callable, patch: Patch, rec: Recorder) -> Callable:
    name, measure = patch.span, patch.measure

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        record = rec.begin(name)
        extra = None
        try:
            result = fn(*args, **kwargs)
            if measure is not None:
                extra = measure(args, kwargs, result)
            return result
        finally:
            rec.end(record, extra)

    return wrapper


def _count_wrapper(fn: Callable, patch: Patch, rec: Recorder) -> Callable:
    measure = patch.measure
    assert measure is not None, "count patches need a measure"

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        result = fn(*args, **kwargs)
        for name, value in measure(args, kwargs, result).items():
            rec.count(name, value)
        return result

    return wrapper


def _map_wrapper(fn: Callable, patch: Patch, rec: Recorder) -> Callable:
    @functools.wraps(fn)
    def wrapper(self: Any, task: Callable, items: Any,
                label: str = "tasks") -> Any:
        task_name = f"task:{label}"

        def timed_task(item: Any) -> Any:
            record = rec.begin(task_name)
            try:
                return task(item)
            finally:
                rec.end(record)

        record = rec.begin(patch.span)
        try:
            return fn(self, timed_task, items, label=label)
        finally:
            rec.end(record)

    return wrapper


def _mark_wrapper(fn: Callable, patch: Patch, rec: Recorder) -> Callable:
    name, measure = patch.span, patch.measure
    assert measure is not None, "mark patches need a measure"

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        result = fn(*args, **kwargs)
        key = measure(args, kwargs, result)
        if key is not None:
            rec.mark(name, key)
        return result

    return wrapper


_WRAPPERS = {"span": _span_wrapper, "count": _count_wrapper,
             "map": _map_wrapper, "mark": _mark_wrapper}


class Installation:
    """The live set of wrappers; :meth:`restore` undoes every one."""

    def __init__(self) -> None:
        self.saved: List[Tuple[Any, str, Any]] = []

    def restore(self) -> None:
        """Put back every original, last patch first."""
        while self.saved:
            owner, attr, original = self.saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def install(rec: Recorder, patches: Sequence[Patch]) -> Installation:
    """Wrap every patch target; returns the handle that restores them."""
    inst = Installation()
    try:
        for patch in patches:
            owner = patch.owner()
            # The class's own dict entry, so an inherited method is
            # restored by deleting the override rather than copying it.
            original = vars(owner).get(patch.attr, _MISSING)
            current = getattr(owner, patch.attr)
            if getattr(current, WRAPPED_MARK, None) is not None:
                raise RuntimeError(f"{patch.target}.{patch.attr} is already wrapped")
            wrapper = _WRAPPERS[patch.kind](current, patch, rec)
            setattr(wrapper, WRAPPED_MARK, current)
            inst.saved.append((owner, patch.attr, original))
            setattr(owner, patch.attr, wrapper)
    except BaseException:
        inst.restore()
        raise
    return inst


def wrapped_targets(patches: Sequence[Patch]) -> List[str]:
    """Patch targets currently holding a wrapper (empty when untraced)."""
    out = []
    for patch in patches:
        current = getattr(patch.owner(), patch.attr)
        if getattr(current, WRAPPED_MARK, None) is not None:
            out.append(f"{patch.target}.{patch.attr}")
    return out


class Tracing:
    """Switchable tracing for one run: wrappers plus the program's tallies.

    While on, the wrappers record spans into :attr:`recorder` and the
    program's own :class:`repro.obs.Tracer` is installed (through
    ``repro.obs.tracing``) only so its ``trace_charge`` flop/byte tallies
    can be read back; its span timings are never used.
    """

    def __init__(self, patches: Sequence[Patch]) -> None:
        from repro.obs import Tracer

        self.patches = list(patches)
        self.recorder = Recorder()
        self.program_tracer = Tracer()
        self._inst: Optional[Installation] = None
        self._program_ctx: Any = None

    def start(self) -> None:
        from repro.obs import tracing

        if self._inst is not None:
            return
        self._inst = install(self.recorder, self.patches)
        self._program_ctx = tracing(self.program_tracer)
        self._program_ctx.__enter__()

    def stop(self) -> None:
        if self._inst is None:
            return
        self._program_ctx.__exit__(None, None, None)
        self._program_ctx = None
        self._inst.restore()
        self._inst = None

    def charged(self, span_name: str) -> Tuple[float, float]:
        """Program-charged (flops, bytes) under one of its span names."""
        counters = self.program_tracer.counters
        return (counters.flops.get(span_name, 0.0),
                counters.bytes_moved.get(span_name, 0.0))


# ---------------------------------------------------------------------- #
# aggregation
# ---------------------------------------------------------------------- #
class SpanIndex:
    """Self times, inclusive times and ancestry over recorded spans."""

    def __init__(self, spans: Sequence[list]) -> None:
        self.spans = list(spans)
        self.by_id = {s[0]: s for s in self.spans}
        child_time: Dict[int, float] = {}
        for s in self.spans:
            if s[4]:
                child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])
        self.self_time = {s[0]: (s[3] - s[2]) - child_time.get(s[0], 0.0)
                          for s in self.spans}

    def within(self, roots: Sequence[int]) -> "SpanIndex":
        """The sub-index of spans whose run is one of ``roots``."""
        keep = set(roots)
        return SpanIndex([s for s in self.spans if s[5] in keep])

    def named(self, name: str) -> Iterator[list]:
        return (s for s in self.spans if s[1] == name)

    def self_total(self, *names: str) -> float:
        """Summed self time of every span with one of ``names``."""
        wanted = set(names)
        return sum(self.self_time[s[0]] for s in self.spans if s[1] in wanted)

    def inclusive_total(self, name: str) -> float:
        return sum(s[3] - s[2] for s in self.named(name))

    def calls(self, name: str) -> int:
        return sum(1 for _ in self.named(name))

    def extra_total(self, name: str, key: str) -> float:
        return sum((s[6] or {}).get(key, 0.0) for s in self.named(name))

    def has_ancestor(self, span: list, *names: str) -> bool:
        """True when some enclosing span of ``span`` has one of ``names``."""
        parent = span[4]
        while parent:
            node = self.by_id.get(parent)
            if node is None:
                return False
            if node[1] in names:
                return True
            parent = node[4]
        return False

    def coverage(self, containers: Sequence[str], layers: Sequence[str]) -> float:
        """Share of the outermost container spans' wall in layer spans.

        Containers (an MD step, a supervised run) only orchestrate.  Time
        inside them is explained only by the self time of spans named in
        ``layers``; the containers' own bodies, executor task bodies
        (``task:*``) and any other span inside them are unexplained.
        """
        wanted = set(containers)
        layer_names = set(layers)
        wall = explained = 0.0
        for s in self.spans:
            if s[1] in wanted and not self.has_ancestor(s, *wanted):
                wall += s[3] - s[2]
            elif s[1] in layer_names and self.has_ancestor(s, *wanted):
                explained += self.self_time[s[0]]
        return explained / wall if wall > 0 else 0.0
