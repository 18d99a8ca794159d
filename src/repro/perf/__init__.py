"""Performance instrumentation: counters and paper-style reports.

Timing is done by :mod:`repro.obs` spans, the one timing mechanism.
"""

from repro.perf.counters import CounterSet
from repro.perf.report import Table, format_speedup, format_seconds

__all__ = [
    "CounterSet",
    "Table",
    "format_speedup",
    "format_seconds",
]
