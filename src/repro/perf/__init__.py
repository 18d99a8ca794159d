"""Performance instrumentation: a timer, counters, paper-style reports."""

from repro.perf.timers import Timer
from repro.perf.counters import CounterSet
from repro.perf.report import Table, format_speedup, format_seconds

__all__ = [
    "Timer",
    "CounterSet",
    "Table",
    "format_speedup",
    "format_seconds",
]
