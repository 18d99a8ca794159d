"""Tuning cache: round-trip, atomicity, fingerprint invalidation."""

import json

import numpy as np
import pytest

from repro.resilience.atomicio import read_document, write_document
from repro.tuning.cache import (
    SCHEMA,
    TuningCache,
    code_fingerprint,
    machine_fingerprint,
)
from repro.tuning.registry import Tunable
from repro.tuning.spaces import Choice, ParamSpace


def make_tunable(options=("a", "b"), source_modules=()):
    return Tunable(
        tunable_id="fake.cached",
        space=ParamSpace((Choice("algo", tuple(options)),)),
        defaults={"algo": options[0]},
        description="synthetic",
        paper_ref="n/a",
        source_modules=tuple(source_modules),
        make_probe=lambda: None,
        run_trial=lambda probe, params: np.ones(1),
    )


class TestFingerprints:
    def test_machine_fingerprint_is_stable_in_process(self):
        assert machine_fingerprint() == machine_fingerprint()
        assert len(machine_fingerprint()) == 16

    def test_code_fingerprint_tracks_module_source(self):
        t1 = make_tunable(source_modules=("repro.tuning.gate",))
        t2 = make_tunable(source_modules=("repro.tuning.measure",))
        t3 = make_tunable(source_modules=())
        assert code_fingerprint(t1) == code_fingerprint(t1)
        assert code_fingerprint(t1) != code_fingerprint(t2)
        assert code_fingerprint(t1) != code_fingerprint(t3)


class TestRoundTrip:
    def test_put_save_reload_get(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = TuningCache(path)
        t = make_tunable()
        cache.put(t, {"algo": "b"}, speedup=1.5, strategy="exhaustive",
                  gate_error=0.0)
        cache.save()
        assert path.exists()

        fresh = TuningCache(path)
        entry = fresh.get(t)
        assert entry is not None
        assert entry.params == {"algo": "b"}
        assert entry.speedup == 1.5

    def test_missing_file_is_empty_cache(self, tmp_path):
        cache = TuningCache(tmp_path / "nope" / "cache.json")
        assert len(cache) == 0
        assert cache.get(make_tunable()) is None

    def test_corrupt_file_is_treated_as_empty(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{not json")
        cache = TuningCache(path)
        assert len(cache) == 0
        assert "unreadable" in cache.load_error

    def test_wrong_schema_ignored(self, tmp_path):
        path = tmp_path / "cache.json"
        write_document(path, {"entries": {}}, "other/9")
        cache = TuningCache(path)
        assert len(cache) == 0
        assert "schema" in cache.load_error

    @pytest.mark.parametrize("damage", ["flip", "truncate", "edit"])
    def test_damaged_file_is_empty_with_error_then_healed(self, tmp_path,
                                                          damage):
        path = tmp_path / "cache.json"
        cache = TuningCache(path)
        t = make_tunable()
        cache.put(t, {"algo": "b"}, speedup=1.5, strategy="exhaustive",
                  gate_error=0.0)
        cache.save()
        raw = path.read_bytes()
        if damage == "flip":
            at = raw.index(b'"b"') + 1
            raw = raw[:at] + bytes([raw[at] ^ 1]) + raw[at + 1:]
        elif damage == "truncate":
            raw = raw[: len(raw) // 2]
        else:  # the other legal winner, still parseable: not served
            doc = json.loads(raw)
            doc["entries"]["fake.cached"]["params"]["algo"] = "a"
            raw = json.dumps(doc).encode()
        path.write_bytes(raw)
        damaged = TuningCache(path)
        assert len(damaged) == 0 and damaged.get(t) is None
        assert damaged.load_error
        damaged.put(t, {"algo": "b"}, speedup=1.5, strategy="exhaustive",
                    gate_error=0.0)
        damaged.save()
        healed = TuningCache(path)
        assert healed.load_error is None
        assert healed.get(t).params == {"algo": "b"}

    def test_save_is_atomic_no_tmp_left_behind(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = TuningCache(path)
        cache.put(make_tunable(), {"algo": "a"}, speedup=1.0,
                  strategy="exhaustive", gate_error=0.0)
        cache.save()
        leftovers = [p for p in tmp_path.iterdir() if p.name != "cache.json"]
        assert leftovers == []
        read_document(path, SCHEMA)  # a verified document on disk


class TestInvalidation:
    def test_space_change_invalidates(self, tmp_path):
        cache = TuningCache(tmp_path / "cache.json")
        t = make_tunable(("a", "b"))
        cache.put(t, {"algo": "b"}, speedup=1.0, strategy="exhaustive",
                  gate_error=0.0)
        grown = make_tunable(("a", "b", "c"))
        assert cache.get(t) is not None
        assert cache.get(grown) is None

    def test_machine_change_invalidates(self, tmp_path):
        cache = TuningCache(tmp_path / "cache.json")
        t = make_tunable()
        cache.put(t, {"algo": "b"}, speedup=1.0, strategy="exhaustive",
                  gate_error=0.0, machine="deadbeefdeadbeef")
        assert cache.get(t) is None  # real fingerprint differs
        assert cache.get(t, machine="deadbeefdeadbeef") is not None

    def test_code_change_invalidates(self, tmp_path, monkeypatch):
        cache = TuningCache(tmp_path / "cache.json")
        t = make_tunable(source_modules=("repro.tuning.gate",))
        cache.put(t, {"algo": "b"}, speedup=1.0, strategy="exhaustive",
                  gate_error=0.0)
        assert cache.get(t) is not None
        # Same tunable, edited kernel source -> different code print.
        monkeypatch.setattr(
            "repro.tuning.cache.code_fingerprint", lambda _: "0" * 16
        )
        assert cache.get(t) is None

    def test_out_of_space_params_invalidated(self, tmp_path):
        # Entry written against a wider space: params no longer valid.
        cache = TuningCache(tmp_path / "cache.json")
        wide = make_tunable(("a", "b", "c"))
        cache.put(wide, {"algo": "c"}, speedup=1.0, strategy="exhaustive",
                  gate_error=0.0)
        assert cache.get(make_tunable(("a", "b"))) is None

    def test_put_validates_params(self, tmp_path):
        cache = TuningCache(tmp_path / "cache.json")
        with pytest.raises(ValueError):
            cache.put(make_tunable(), {"algo": "zzz"}, speedup=1.0,
                      strategy="exhaustive", gate_error=0.0)

    def test_drop_forces_retune(self, tmp_path):
        cache = TuningCache(tmp_path / "cache.json")
        t = make_tunable()
        cache.put(t, {"algo": "b"}, speedup=1.0, strategy="exhaustive",
                  gate_error=0.0)
        assert cache.drop(t.tunable_id)
        assert cache.get(t) is None
        assert not cache.drop(t.tunable_id)
