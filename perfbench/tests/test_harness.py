"""Self-tests of the benchmark harness (run: python3 -m pytest perfbench/tests)."""

from __future__ import annotations

import json
import os
import pathlib

import numpy as np
import pytest

from perfbench import layers, tracing
from perfbench.common import percentile, tail_percentile, valid_percentile
from perfbench.workloads import load_references
from perfbench.workloads.md import check_reference
from perfbench.workloads.serve import (
    CLIENTS,
    _job_key,
    payloads_equal,
    request_sequence,
)

ROOT = pathlib.Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------- #
# percentiles
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("n, expected", [
    (19, None),     # even the median has only 9.5 samples beyond it
    (20, 50.0),
    (99, 50.0),     # p90 would leave 9.9 beyond
    (100, 90.0),
    (999, 90.0),
    (1000, 99.0),
    (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    samples = [float(i) for i in range(n)]
    tail = tail_percentile(samples)
    if expected is None:
        assert tail is None
        return
    assert tail["p"] == expected
    assert tail["n"] == n
    assert tail["value"] == percentile(samples, expected)
    assert valid_percentile(n, expected)


def test_percentile_interpolates_between_ranks():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.5
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 90.0) == pytest.approx(4.6)
    with pytest.raises(ValueError):
        percentile([], 50.0)


# ---------------------------------------------------------------------- #
# serve request sequence
# ---------------------------------------------------------------------- #
def test_request_sequence_is_a_pure_function_of_the_seed():
    assert request_sequence(7, 0, 80) == request_sequence(7, 0, 80)
    assert request_sequence(7, 0, 80) != request_sequence(8, 0, 80)
    assert request_sequence(7, 0, 80) != request_sequence(7, 1, 80)


def test_request_sequence_jobs_validate_and_repeats_refer_back():
    from repro.serve import validate_job

    seen = set()
    for kind, jobs in request_sequence(3, 1, 120):
        for job in jobs:
            validate_job(job)
            key = json.dumps([job["kind"], job["params"]], sort_keys=True)
            if kind == "repeat":
                assert key in seen, "a repeat must copy an earlier job"
            seen.add(key)


@pytest.mark.parametrize("seed", [0, 1, 2, 17])
def test_computed_jobs_never_repeat_across_clients(seed):
    """Only the "repeat" and warm-pool scf requests may reuse a job: every
    computed job of either client's full sequence is distinct, so none
    turns into a memo hit of the other client's answers."""
    keys = [_job_key(job)
            for client in range(CLIENTS)
            for kind, jobs in request_sequence(seed, client)
            if kind not in ("repeat", "scf_ws")
            for job in jobs]
    assert len(keys) == len(set(keys))
    assert sum('"spectrum"' in key for key in keys) >= 2 * 80


def test_daemon_starts_from_a_directory_deeper_than_a_socket_path(tmp_path,
                                                                  monkeypatch):
    """A unix socket path holds at most 107 bytes; the daemon's socket
    must still be reachable when the checkout's own path is longer."""
    from perfbench.workloads.serve import Daemon

    deep = tmp_path / ("d" * 60) / ("e" * 60)
    deep.mkdir(parents=True)
    assert len(str(deep / "daemon" / "serve.sock")) > 107
    monkeypatch.chdir(deep)
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]))
    daemon = Daemon(deep / "daemon")
    try:
        assert daemon.wait_ready(timeout_s=30.0) > 0
    finally:
        daemon.stop()
    assert daemon.proc.returncode == 0


def test_payload_equality_is_bitwise():
    a = {"x": np.array([1.0, 2.0]), "e": {"band": 0.5}, "gap": None}
    assert payloads_equal(a, {"x": np.array([1.0, 2.0]),
                              "e": {"band": 0.5}, "gap": None})
    assert not payloads_equal({**a, "x": np.array([1.0, np.nextafter(2.0, 3)])}, a)
    assert not payloads_equal({**a, "x": np.array([1.0, 2.0], np.float32)}, a)


# ---------------------------------------------------------------------- #
# traced-run wrappers
# ---------------------------------------------------------------------- #
def _current(patches):
    return [vars(p.owner()).get(p.attr, None) for p in patches]


def test_wrappers_restore_every_patched_attribute():
    before = _current(layers.PATCHES)
    assert tracing.wrapped_targets(layers.PATCHES) == []
    rec = tracing.Recorder()
    inst = tracing.install(rec, layers.PATCHES)
    try:
        assert len(tracing.wrapped_targets(layers.PATCHES)) == len(layers.PATCHES)
        from repro.ensemble import swarm

        g = np.array([[0.0, 0.2], [0.1, 0.0]])
        swarm.select_hops(g, np.array([0.05, 0.5]))
    finally:
        inst.restore()
    after = _current(layers.PATCHES)
    assert all(a is b for a, b in zip(before, after))
    assert tracing.wrapped_targets(layers.PATCHES) == []
    assert [s[1] for s in rec.spans] == ["ensemble.select"]


def test_wrappers_restore_on_a_failed_install(monkeypatch):
    before = _current(layers.PATCHES)
    bad = layers.PATCHES[:3] + (tracing.Patch("repro.core.mesh", "no_such_attr",
                                              "x"),)
    with pytest.raises(AttributeError):
        tracing.install(tracing.Recorder(), bad)
    assert all(a is b for a, b in zip(before, _current(layers.PATCHES)))


def test_untraced_run_never_installs_wrappers(tmp_path, monkeypatch):
    from perfbench import worker

    def refuse(*args, **kwargs):
        raise AssertionError("install() called in an untraced run")

    monkeypatch.setattr(tracing, "install", refuse)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "result.json"
    code = worker.main(["--workload", "md_scf", "--seed", "5",
                        "--seconds", "0.2", "--trace", "0", "--out", str(out)])
    assert code == 0
    result = json.loads(out.read_text())
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert "per_layer" not in result
    assert tracing.wrapped_targets(layers.PATCHES) == []


def test_self_time_subtracts_children():
    spans = [[1, "op", 0.0, 10.0, 0, 1, None],
             [2, "core.md_step", 1.0, 9.0, 1, 1, None],
             [3, "lfd.kinetic", 2.0, 6.0, 2, 1, None],
             [4, "qxmd.cg", 6.0, 8.5, 2, 1, None]]
    idx = tracing.SpanIndex(spans)
    assert idx.self_time[2] == pytest.approx(1.5)
    assert idx.self_total("lfd.kinetic", "qxmd.cg") == pytest.approx(6.5)
    assert idx.coverage(layers.CONTAINERS, layers.LAYER_SPANS) == \
        pytest.approx(6.5 / 8.0)


def test_coverage_counts_task_bodies_as_unexplained():
    step = [[1, "op", 0.0, 10.0, 0, 1, None],
            [2, "core.md_step", 0.0, 10.0, 1, 1, None],
            [3, "parallel.map", 0.0, 8.0, 2, 1, None],
            [4, "task:lfd.domains", 0.5, 7.5, 3, 1, None],
            [5, "lfd.kinetic", 1.0, 4.0, 4, 1, None],
            [6, "qxmd.cg", 8.0, 9.5, 2, 1, None]]

    def coverage(extra):
        return tracing.SpanIndex(step + extra).coverage(layers.CONTAINERS,
                                                        layers.LAYER_SPANS)

    # Map dispatch 1.0 + kinetic 3.0 + cg 1.5 s of the 10-s step; the
    # task's own 4.0 s and the step's own 0.5 s are unexplained.
    assert coverage([]) == pytest.approx(0.55)
    # A span that no per-layer metric reports explains nothing ...
    assert coverage([[7, "ensemble.step_swarm", 4.0, 7.5, 4, 1, None]]) == \
        pytest.approx(0.55)
    # ... while the same time inside a wrapped kernel is covered.
    assert coverage([[7, "lfd.nonlocal", 4.0, 7.5, 4, 1, None]]) == \
        pytest.approx(0.9)


# ---------------------------------------------------------------------- #
# md reference check
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("key", ["band_energy", "excited_population",
                                 "positions"])
def test_md_reference_check_rejects_a_1e6_perturbation(key):
    reference = load_references()["md_scf"]["steps"]
    assert check_reference(reference, reference) == []
    perturbed = json.loads(json.dumps(reference))
    last = perturbed[-1]
    if key == "positions":
        last[key] = [x * (1 + 1e-6) for x in last[key]]
    else:
        last[key] *= 1 + 1e-6
    problems = check_reference(perturbed, reference)
    assert len(problems) == 1 and key in problems[0]


# ---------------------------------------------------------------------- #
# BENCHMARK.json agrees with the harness
# ---------------------------------------------------------------------- #
def test_benchmark_json_lists_the_metrics_the_harness_emits():
    import importlib.util

    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [(n, u, b) for n, u, b, _ in layers.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert layers.complete({}).keys() == {m["name"] for m in bench["per_layer"]}
