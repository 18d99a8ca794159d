"""Phase aggregation and Chrome trace-event export tests."""

import json

import pytest

from repro.obs import (
    PHASES,
    SpanRecord,
    Tracer,
    aggregate_by_name,
    aggregate_by_phase,
    chrome_trace_events,
    load_chrome_trace,
    normalize_phase,
    phase_report,
    write_chrome_trace,
)
from repro.obs.export import TRACE_SCHEMA
from repro.resilience.atomicio import CheckpointCorruptError, write_document


def rec(name, category, start, duration, depth=0, thread=1,
        self_time=None, flops=0.0, bytes_moved=0.0):
    return SpanRecord(
        name=name, category=category, start=start, duration=duration,
        depth=depth, thread=thread,
        self_time=duration if self_time is None else self_time,
        flops=flops, bytes_moved=bytes_moved,
    )


class TestPhases:
    def test_normalize_known_and_unknown(self):
        assert normalize_phase("kinetic") == "kinetic"
        assert normalize_phase("checkpoint") == "checkpoint"
        assert normalize_phase("mystery") == "other"

    def test_taxonomy_covers_paper_kernels(self):
        for phase in ("kinetic", "potential", "nonlocal", "hartree",
                      "scf", "comm", "checkpoint"):
            assert phase in PHASES

    def test_aggregate_by_phase(self):
        records = [
            rec("kin_prop", "kinetic", 0.0, 2.0, flops=100.0,
                bytes_moved=50.0),
            rec("kin_prop", "kinetic", 2.0, 2.0, flops=100.0,
                bytes_moved=50.0),
            rec("bcast", "comm", 4.0, 1.0),
            rec("weird", "unknown-layer", 5.0, 1.0),
        ]
        stats = aggregate_by_phase(records)
        assert stats["kinetic"].calls == 2
        assert stats["kinetic"].total_s == pytest.approx(4.0)
        assert stats["kinetic"].flops == 200.0
        assert stats["kinetic"].names == {"kin_prop": 2}
        assert stats["kinetic"].arithmetic_intensity == pytest.approx(2.0)
        assert stats["comm"].arithmetic_intensity == float("inf")
        assert stats["other"].calls == 1

    def test_self_time_vs_inclusive(self):
        """Nested same-phase spans double in total_s but not in self_s."""
        records = [
            rec("inner", "hartree", 0.0, 3.0, depth=1),
            rec("outer", "hartree", 0.0, 4.0, self_time=1.0),
        ]
        stats = aggregate_by_phase(records)
        assert stats["hartree"].total_s == pytest.approx(7.0)
        assert stats["hartree"].self_s == pytest.approx(4.0)

    def test_aggregate_by_name(self):
        records = [
            rec("a", "scf", 0.0, 1.0),
            rec("a", "scf", 1.0, 2.0),
            rec("b", "scf", 3.0, 4.0),
        ]
        stats = aggregate_by_name(records)
        assert stats["a"].calls == 2
        assert stats["a"].total_s == pytest.approx(3.0)
        assert stats["b"].total_s == pytest.approx(4.0)

    def test_phase_report_text(self):
        text = phase_report([rec("kin", "kinetic", 0.0, 1.0,
                                 flops=2e9, bytes_moved=1e9)])
        assert "kinetic" in text
        assert "2.000" in text  # GFLOP column
        assert phase_report([]) == "(no spans recorded)"


class TestChromeExport:
    def test_events_structure(self):
        events = chrome_trace_events([
            rec("kin", "kinetic", 0.5, 0.25, thread=12345,
                flops=10.0, bytes_moved=4.0),
        ])
        meta, ev = events
        assert meta["ph"] == "M"
        assert meta["args"] == {"name": "repro-mesh"}
        assert ev["ph"] == "X"
        assert ev["name"] == "kin"
        assert ev["cat"] == "kinetic"
        assert ev["ts"] == pytest.approx(0.5e6)   # microseconds
        assert ev["dur"] == pytest.approx(0.25e6)
        assert ev["args"]["flops"] == 10.0
        assert ev["args"]["bytes"] == 4.0

    def test_thread_renumbering(self):
        events = chrome_trace_events([
            rec("a", "comm", 0.0, 1.0, thread=999888777),
            rec("b", "comm", 1.0, 1.0, thread=111222333),
            rec("c", "comm", 2.0, 1.0, thread=999888777),
        ])
        tids = [e["tid"] for e in events[1:]]
        assert tids == [1, 2, 1]

    def test_write_and_load_roundtrip(self, tmp_path):
        tr = Tracer()
        with tr.span("outer", "md"):
            with tr.span("inner", "kinetic"):
                pass
        path = write_chrome_trace(tmp_path / "sub" / "trace.json", tr)
        assert path.exists()
        doc = load_chrome_trace(path)
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
        assert names == ["inner", "outer"]
        assert doc["displayTimeUnit"] == "ms"

    def test_write_accepts_record_iterable(self, tmp_path):
        path = write_chrome_trace(
            tmp_path / "t.json", [rec("a", "comm", 0.0, 1.0)]
        )
        doc = load_chrome_trace(path)
        assert len(doc["traceEvents"]) == 2

    def test_load_rejects_non_trace(self, tmp_path):
        p = write_document(tmp_path / "bad.json", {"events": [1, 2, 3]},
                           TRACE_SCHEMA)
        with pytest.raises(ValueError):
            load_chrome_trace(p)

    def test_load_rejects_malformed_event(self, tmp_path):
        p = write_document(tmp_path / "bad.json",
                           {"traceEvents": [{"name": "x"}]}, TRACE_SCHEMA)
        with pytest.raises(ValueError):
            load_chrome_trace(p)

    def test_load_rejects_complete_event_without_dur(self, tmp_path):
        p = write_document(tmp_path / "bad.json",
                           {"traceEvents": [{"ph": "X", "pid": 1, "ts": 0.0}]},
                           TRACE_SCHEMA)
        with pytest.raises(ValueError):
            load_chrome_trace(p)

    @pytest.mark.parametrize("damage", ["flip", "truncate", "edit", "plain"])
    def test_load_refuses_a_damaged_or_unverified_file(self, tmp_path,
                                                       damage):
        path = write_chrome_trace(
            tmp_path / "t.json", [rec("a", "comm", 0.0, 1.0)]
        )
        raw = path.read_bytes()
        if damage == "flip":
            at = raw.index(b'"comm"') + 1
            path.write_bytes(raw[:at] + bytes([raw[at] ^ 1]) + raw[at + 1:])
        elif damage == "truncate":
            path.write_bytes(raw[: len(raw) // 2])
        else:
            doc = json.loads(raw)
            doc["traceEvents"][1]["dur"] *= 2  # a legal, parseable edit
            if damage == "plain":  # the pre-digest format
                del doc["schema"], doc["sha256"]
            path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointCorruptError):
            load_chrome_trace(path)
