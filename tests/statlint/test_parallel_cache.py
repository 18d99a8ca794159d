"""--jobs fan-out and the incremental cache: byte-identical, and fast.

The contract under test: parallelism and caching are *observationally
pure*.  A report produced with worker processes, or replayed from a
warm cache, is byte-for-byte the report of a cold serial run -- and the
warm replay is asserted to cost less than half the cold wall time
(the full-hit path reconstructs findings without parsing anything).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.resilience.atomicio import read_document, write_document
from repro.statlint import LintConfig, lint_paths, render_json
from repro.statlint.cache import (
    CACHE_SCHEMA,
    LintCache,
    config_fingerprint,
    source_fingerprint,
    tool_fingerprint,
)

N_FILES = 40

CLEAN_MODULE = '''\
"""Generated module {i}."""

import numpy as np


def transform_{i}(values, out):
    out[...] = values * {i}.0
    return out


def reduce_{i}(values, weights):
    acc = 0.0
    for v, w in zip(values, weights):
        acc += v * w
    return acc


def shape_report_{i}(arr):
    return {{"shape": arr.shape, "dtype": str(arr.dtype), "tag": {i}}}
'''

DIRTY_MODULE = '''\
"""Generated hot-loop module {i} (carries one DCL001 finding)."""

import numpy as np


def hot_{i}(psi):
    for _ in range(4):
        scratch = np.zeros(psi.shape)
        scratch += psi.real
    return scratch
'''


def make_tree(root: Path) -> Path:
    for i in range(N_FILES):
        sub = "lfd" if i % 4 == 0 else "analysis"
        dst = root / "src" / "repro" / sub / f"gen_{i:03d}.py"
        dst.parent.mkdir(parents=True, exist_ok=True)
        template = DIRTY_MODULE if i % 8 == 0 else CLEAN_MODULE
        dst.write_text(template.format(i=i))
    return root


def report_for(root: Path, **kwargs) -> str:
    result = lint_paths([str(root)], LintConfig(), root=root, **kwargs)
    assert not result.errors, result.errors
    return render_json(result)


def test_parallel_report_is_byte_identical_to_serial(tmp_path):
    root = make_tree(tmp_path)
    serial = report_for(root, jobs=1)
    parallel = report_for(root, jobs=2)
    assert parallel == serial
    assert json.loads(serial)["new_findings"]  # the tree is not trivially clean


def test_warm_cache_is_byte_identical_and_under_half_cold_time(tmp_path):
    root = make_tree(tmp_path)
    cache = tmp_path / "cache.json"

    t0 = time.perf_counter()
    cold = report_for(root, cache_path=cache)
    t_cold = time.perf_counter() - t0
    assert cache.exists()

    t0 = time.perf_counter()
    warm = report_for(root, cache_path=cache)
    t_warm = time.perf_counter() - t0

    assert warm == cold
    assert t_warm < t_cold / 2, (t_warm, t_cold)


def test_cache_invalidation_on_file_change(tmp_path):
    root = make_tree(tmp_path)
    cache = tmp_path / "cache.json"
    before = json.loads(report_for(root, cache_path=cache))

    victim = root / "src" / "repro" / "lfd" / "gen_000.py"
    victim.write_text(CLEAN_MODULE.format(i=0))
    after = json.loads(report_for(root, cache_path=cache))

    hits = {f["path"] for f in before["new_findings"]}
    assert any(p.endswith("gen_000.py") for p in hits)
    hits_after = {f["path"] for f in after["new_findings"]}
    assert not any(p.endswith("gen_000.py") for p in hits_after)
    # untouched findings survive the partial re-lint
    assert hits_after == {p for p in hits if not p.endswith("gen_000.py")}


def test_cache_ignores_stale_tool_or_config(tmp_path):
    root = make_tree(tmp_path)
    cache = tmp_path / "cache.json"
    report_for(root, cache_path=cache)

    doc = read_document(cache, CACHE_SCHEMA)
    doc["tool"] = "0" * len(doc["tool"])
    # Re-published with a valid digest, so only the stale tool
    # fingerprint can make this a cold start -- not an error -- and
    # the report must still match.
    write_document(cache, doc, CACHE_SCHEMA)
    assert report_for(root, cache_path=cache) == report_for(root)
    assert read_document(cache, CACHE_SCHEMA)["tool"] == tool_fingerprint()


@pytest.mark.parametrize("damage", ["flip", "truncate", "edit"])
def test_damaged_cache_is_a_cold_start_then_healed(tmp_path, damage):
    root = make_tree(tmp_path)
    cache = tmp_path / "cache.json"
    want = report_for(root, cache_path=cache)
    raw = bytearray(cache.read_bytes())
    if damage == "flip":
        raw[len(raw) // 2] ^= 1
    elif damage == "truncate":
        del raw[len(raw) // 2:]
    else:  # drop every finding of one file, still parseable
        doc = json.loads(raw)
        entry = next(e for e in doc["files"].values() if e.get("findings"))
        entry["findings"] = []
        raw = bytearray(json.dumps(doc).encode())
    cache.write_bytes(bytes(raw))
    assert report_for(root, cache_path=cache) == want
    read_document(cache, CACHE_SCHEMA)  # healed by the cold run's save


def test_cache_fingerprints_are_stable():
    assert tool_fingerprint() == tool_fingerprint()
    assert source_fingerprint("x = 1\n") == source_fingerprint("x = 1\n")
    assert source_fingerprint("x = 1\n") != source_fingerprint("x = 2\n")
    a = config_fingerprint(LintConfig())
    # jobs/cache must NOT perturb the config fingerprint (pure knobs)
    b = config_fingerprint(LintConfig(jobs=8, cache="elsewhere.json"))
    c = config_fingerprint(LintConfig(select=("DCL001",)))
    assert a == b
    assert a != c


def test_corrupt_cache_file_is_ignored(tmp_path):
    root = make_tree(tmp_path)
    cache = tmp_path / "cache.json"
    cache.write_text("{definitely not json")
    fresh = report_for(root, cache_path=cache)
    assert fresh == report_for(root)
    # and the corrupt file was replaced by a valid one
    LintCache(cache, LintConfig())
