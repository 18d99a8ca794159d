"""Tuning sessions: cache-first orchestration and report output."""

import json

import numpy as np
import pytest

from repro.resilience.atomicio import CheckpointCorruptError, read_document
from repro.tuning.cache import TuningCache
from repro.tuning.registry import Tunable, TunableRegistry
from repro.tuning.report import (
    REPORT_SCHEMA,
    format_report,
    write_report_json,
)
from repro.tuning.session import TuningSession
from repro.tuning.spaces import Choice, ParamSpace


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def make_registry(clock, costs=None):
    costs = costs or {"slow": 0.2, "fast": 0.1}

    def run_trial(probe, params):
        clock.t += costs[params["algo"]]
        return np.ones(2)

    registry = TunableRegistry()
    registry.register(Tunable(
        tunable_id="fake.one",
        space=ParamSpace((Choice("algo", tuple(costs)),)),
        defaults={"algo": next(iter(costs))},
        description="synthetic",
        paper_ref="n/a",
        source_modules=(),
        make_probe=lambda: None,
        run_trial=run_trial,
    ))
    return registry


class TestSession:
    def test_fresh_tune_then_pure_cache_hit(self, tmp_path):
        clock = FakeClock()
        registry = make_registry(clock)
        cache = TuningCache(tmp_path / "cache.json")
        session = TuningSession(cache=cache, registry=registry)

        first = session.run(clock=clock)
        assert first.tuned == 1
        assert first.cache_hits == 0
        assert first.total_trials == 2
        assert first.records[0].params == {"algo": "fast"}

        # Second session, fresh cache object from disk: zero trials.
        session2 = TuningSession(cache=TuningCache(tmp_path / "cache.json"),
                                 registry=registry)
        second = session2.run(clock=clock)
        assert second.cache_hits == 1
        assert second.tuned == 0
        assert second.total_trials == 0
        assert second.records[0].params == {"algo": "fast"}

    def test_force_drops_cache_and_retunes(self, tmp_path):
        clock = FakeClock()
        registry = make_registry(clock)
        session = TuningSession(cache=TuningCache(tmp_path / "c.json"),
                                registry=registry)
        session.run(clock=clock)
        forced = session.run(force=True, clock=clock)
        assert forced.tuned == 1
        assert forced.cache_hits == 0

    def test_select_subset(self, tmp_path):
        clock = FakeClock()
        registry = make_registry(clock)
        session = TuningSession(cache=TuningCache(tmp_path / "c.json"),
                                registry=registry)
        res = session.run(select=["fake.one"], clock=clock)
        assert [r.tunable_id for r in res.records] == ["fake.one"]

    def test_profile_reflects_winners(self, tmp_path):
        clock = FakeClock()
        registry = make_registry(clock)
        session = TuningSession(cache=TuningCache(tmp_path / "c.json"),
                                registry=registry)
        res = session.run(clock=clock)
        # fake.one is not a known tunable id for profiles, so build the
        # mapping directly from the records instead.
        assert {r.tunable_id: r.params for r in res.records} == {
            "fake.one": {"algo": "fast"}
        }


class TestReport:
    def test_text_report_states_cache_and_speedup(self, tmp_path):
        clock = FakeClock()
        registry = make_registry(clock)
        session = TuningSession(cache=TuningCache(tmp_path / "c.json"),
                                registry=registry)
        res = session.run(clock=clock)
        text = format_report(res)
        assert "fake.one" in text
        assert "tuned" in text
        assert "speedup" in text
        assert "gate-rejected" in text

        hit = session.run(clock=clock)
        assert "cache_hit" in format_report(hit)

    def test_defaults_optimal_is_a_visible_result(self, tmp_path):
        clock = FakeClock()
        registry = make_registry(clock, costs={"best": 0.1, "worse": 0.3})
        session = TuningSession(cache=TuningCache(tmp_path / "c.json"),
                                registry=registry)
        res = session.run(clock=clock)
        assert "defaults already optimal" in format_report(res)

    def test_json_report_schema(self, tmp_path):
        clock = FakeClock()
        registry = make_registry(clock)
        session = TuningSession(cache=TuningCache(tmp_path / "c.json"),
                                registry=registry)
        res = session.run(clock=clock)
        path = write_report_json(res, tmp_path / "report.json")
        data = json.load(open(path))
        assert data["schema"] == "repro-tuning-report/1"
        assert data["tuned"] == 1
        assert data["records"][0]["tunable_id"] == "fake.one"
        assert data["records"][0]["outcome"]["gate_tol"] == 1e-12
        assert read_document(path, REPORT_SCHEMA) == res.to_dict()

    @pytest.mark.parametrize("damage", ["flip", "truncate", "edit"])
    def test_damaged_json_report_is_refused(self, tmp_path, damage):
        clock = FakeClock()
        session = TuningSession(cache=TuningCache(tmp_path / "c.json"),
                                registry=make_registry(clock))
        path = write_report_json(session.run(clock=clock),
                                 tmp_path / "report.json")
        raw = path.read_bytes()
        if damage == "flip":
            at = raw.index(b'"tuned":1') + len(b'"tuned":')
            raw = raw[:at] + b"0" + raw[at + 1:]
        elif damage == "truncate":
            raw = raw[: len(raw) // 2]
        else:
            doc = json.loads(raw)
            doc["total_trials"] += 1
            raw = json.dumps(doc).encode()
        path.write_bytes(raw)
        with pytest.raises(CheckpointCorruptError):
            read_document(path, REPORT_SCHEMA)
