"""Chrome trace-event export of a recorded trace.

Writes the JSON Object Format of the Trace Event specification (a
``traceEvents`` list of ``"ph": "X"`` complete events with microsecond
timestamps), which loads directly in ``chrome://tracing`` and in
Perfetto's legacy-trace importer.  Span categories map to the event
``cat`` field so the paper's kernel taxonomy is filterable in the UI,
and the charged flop/byte tallies ride along in ``args``.

The file is a verified document of :mod:`repro.resilience.atomicio`:
its ``schema`` and ``sha256`` keys sit beside ``traceEvents``, where the
Trace Event Format keeps unknown top-level keys as trace metadata, and
:func:`load_chrome_trace` refuses a torn or edited file.
"""

from __future__ import annotations

import pathlib
from typing import Dict, Iterable, List, Union

from repro.obs.tracer import SpanRecord, Tracer
from repro.resilience.atomicio import read_document, write_document

#: Trace-event process id used for all spans (one simulated process).
TRACE_PID = 1

#: Schema of a Chrome trace document.
TRACE_SCHEMA = "repro-chrome-trace/1"


def chrome_trace_events(records: Iterable[SpanRecord]) -> List[Dict]:
    """Convert span records to Chrome trace-event dicts.

    Thread idents are renumbered to small consecutive tids in order of
    first appearance so the UI rows stay readable.
    """
    tids: Dict[int, int] = {}
    events: List[Dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": TRACE_PID,
            "tid": 0,
            "args": {"name": "repro-mesh"},
        }
    ]
    for r in records:
        tid = tids.setdefault(r.thread, len(tids) + 1)
        args: Dict = dict(r.args)
        if r.flops:
            args["flops"] = r.flops
        if r.bytes_moved:
            args["bytes"] = r.bytes_moved
        events.append(
            {
                "name": r.name,
                "cat": r.category,
                "ph": "X",
                "ts": r.start * 1e6,
                "dur": r.duration * 1e6,
                "pid": TRACE_PID,
                "tid": tid,
                "args": args,
            }
        )
    return events


def write_chrome_trace(
    path: Union[str, pathlib.Path],
    source: Union[Tracer, Iterable[SpanRecord]],
) -> pathlib.Path:
    """Publish one trace (a tracer or its records) as Chrome trace JSON."""
    records = source.records if isinstance(source, Tracer) else list(source)
    doc = {
        "traceEvents": chrome_trace_events(records),
        "displayTimeUnit": "ms",
    }
    return write_document(path, doc, TRACE_SCHEMA)


def load_chrome_trace(path: Union[str, pathlib.Path]) -> Dict:
    """Load, verify and structurally validate a Chrome trace-event file.

    A file that fails document verification raises
    :class:`~repro.resilience.atomicio.CheckpointCorruptError`; a
    verified document whose events are malformed raises ``ValueError``.
    """
    doc = read_document(path, TRACE_SCHEMA)
    if "traceEvents" not in doc:
        raise ValueError("not a Chrome trace-event object (no traceEvents)")
    for ev in doc["traceEvents"]:
        if "ph" not in ev or "pid" not in ev:
            raise ValueError(f"malformed trace event: {ev!r}")
        if ev["ph"] == "X" and ("ts" not in ev or "dur" not in ev):
            raise ValueError(f"complete event missing ts/dur: {ev!r}")
    return doc
