"""WarmStatePool: LRU bounds, byte budget, invalidation, counters."""

from __future__ import annotations

import threading

import pytest

from repro.serve.pool import WarmStatePool


def test_get_put_and_counters():
    pool = WarmStatePool(max_entries=4)
    assert pool.get("k") is None
    pool.put("k", "value")
    assert pool.get("k") == "value"
    stats = pool.stats()
    assert stats == {"entries": 1, "bytes": 0, "hits": 1,
                     "misses": 1, "evictions": 0}


def test_entry_cap_evicts_lru():
    pool = WarmStatePool(max_entries=2)
    pool.put("a", 1)
    pool.put("b", 2)
    assert pool.get("a") == 1  # freshen "a": "b" is now LRU
    pool.put("c", 3)
    assert pool.get("b") is None
    assert pool.get("a") == 1 and pool.get("c") == 3
    assert pool.evictions == 1


def test_byte_budget_evicts_but_keeps_newest():
    pool = WarmStatePool(max_entries=10, max_bytes=100)
    pool.put("a", "x", nbytes=lambda _: 60)
    pool.put("b", "y", nbytes=lambda _: 60)
    # 120 > 100: "a" falls out; the just-put entry survives.
    assert pool.get("a") is None
    assert pool.get("b") == "y"
    # An oversized single entry is still admitted (never evict to empty).
    pool.put("huge", "z", nbytes=lambda _: 500)
    assert pool.get("huge") == "z"
    assert len(pool) >= 1


def test_invalidate_single_and_all():
    pool = WarmStatePool()
    pool.put("a", 1)
    pool.put("b", 2)
    assert pool.invalidate("a") == 1
    assert pool.invalidate("a") == 0
    assert pool.invalidate() == 1
    assert len(pool) == 0


def test_keys_lru_order():
    pool = WarmStatePool()
    pool.put("a", 1, nbytes=lambda _: 3)
    pool.put("b", 2)
    pool.get("a")
    assert list(pool.keys()) == ["b", "a"]
    assert pool.keys() == {"a": 3, "b": 0}


def test_constructor_validation():
    with pytest.raises(ValueError):
        WarmStatePool(max_entries=0)
    with pytest.raises(ValueError):
        WarmStatePool(max_bytes=0)


def test_thread_safety_smoke():
    pool = WarmStatePool(max_entries=4)
    errors = []

    def worker(i):
        try:
            for j in range(200):
                pool.put(f"k{(i + j) % 6}", j, nbytes=lambda _: 8)
                pool.get(f"k{j % 6}")
                if j % 50 == 0:
                    pool.invalidate(f"k{i % 6}")
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(pool) <= 4


def test_spectrum_ground_state_footprint_counts_its_record():
    """A pooled spectrum ground state reports the kicked orbital copy
    and phase field of its record from the start, then its samples."""
    from repro.serve import workloads
    from repro.serve.jobs import validate_job

    params = validate_job({"kind": "spectrum",
                           "params": {"grid": 8, "norb": 2,
                                      "steps": 12}}).params
    gs = workloads.spectrum_ground_state(params)
    arrays = gs.evals.nbytes + gs.psi.nbytes + gs.vloc.nbytes
    fresh = gs.nbytes()
    assert fresh == arrays + gs.psi.nbytes + 2 * gs.vloc.nbytes
    workloads.spectrum_payload(gs, params)
    assert gs.propagated_steps == 12
    assert gs.nbytes() == fresh + 12 * 16
