"""Daemon integration: admission, coalescing, memoization, drain."""

from __future__ import annotations

import contextlib
import socket
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    BatchPolicy,
    DaemonHandle,
    ServeClient,
    ServeConfig,
    ServeError,
)
from repro.serve import workloads
from repro.serve.protocol import dumps_line, loads_line

#: A small-but-real ensemble job (tens of milliseconds); the coupling is
#: strong enough that trajectories hop, so results depend on the seed.
ENS = {"ntraj": 6, "nsteps": 20, "nstates": 3, "coupling": 0.3,
       "batch_size": 4}
#: A quick scf job.
SCF = {"grid": 8, "norb": 2, "nscf": 1, "ncg": 2}


@contextlib.contextmanager
def serving(tmp_path, **overrides):
    cfg = {
        "socket_path": tmp_path / "serve.sock",
        "artifact_root": tmp_path / "artifacts",
        "scratch_root": tmp_path / "scratch",
        "policy": BatchPolicy(max_batch=8),
    }
    cfg.update(overrides)
    with DaemonHandle(ServeConfig(**cfg)) as handle:
        yield handle, ServeClient(cfg["socket_path"], timeout_s=120)


def wait_until(predicate, timeout_s=15.0, what="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise TimeoutError(f"timed out waiting for {what}")


@pytest.fixture
def gate(monkeypatch):
    """Blocks the worker thread inside the next ensemble job until set."""
    event = threading.Event()
    original = workloads.ensemble_path

    def gated(params):
        event.wait(timeout=60)
        return original(params)

    monkeypatch.setattr(workloads, "ensemble_path", gated)
    return event


class TestOps:
    def test_ping_and_stats(self, tmp_path):
        with serving(tmp_path) as (_, client):
            assert client.ping()
            stats = client.stats()
            assert stats["queue_depth"] == 0
            assert stats["draining"] is False
            assert stats["metrics"]["submitted"] == 0
            assert "pool" in stats and "artifacts" in stats

    def test_unknown_op_is_protocol_error(self, tmp_path):
        with serving(tmp_path) as (_, client):
            response = client.request({"op": "levitate"})
            assert response["status"] == "error"
            assert response["error"]["type"] == "ProtocolError"

    def test_oversize_line_is_typed_protocol_error(self, tmp_path, caplog):
        """A line over the stream limit is answered, not dropped."""
        with serving(tmp_path) as (_, client):
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.settimeout(60)
                sock.connect(str(tmp_path / "serve.sock"))
                sock.sendall(dumps_line({"op": "ping", "pad": "x" * 70_000}))
                with sock.makefile("rb") as reply:
                    response = loads_line(reply.readline())
            assert response["status"] == "error"
            assert response["error"]["type"] == "ProtocolError"
            assert "too long" in response["error"]["message"]
            assert client.ping()  # the daemon serves the next connection
        assert "Unhandled exception" not in caplog.text

    @pytest.mark.parametrize("pad", [300_000, 2_000_000])
    def test_client_gets_typed_answer_when_send_breaks(self, tmp_path, pad):
        """A line too long for the socket buffers breaks the client's
        send (the daemon answers and closes first); the client still
        returns the daemon's typed answer."""
        with serving(tmp_path) as (_, client):
            response = client.request({"op": "ping", "pad": "x" * pad})
            assert response["status"] == "error"
            assert response["error"]["type"] == "ProtocolError"
            assert "too long" in response["error"]["message"]
            assert client.ping()

    def test_empty_submit_rejected(self, tmp_path):
        with serving(tmp_path) as (_, client):
            response = client.request({"op": "submit", "jobs": []})
            assert response["status"] == "error"
            assert response["error"]["type"] == "ProtocolError"

    def test_no_artifact_store_mode(self, tmp_path):
        with serving(tmp_path, artifact_root=None) as (handle, client):
            assert "artifacts" not in client.stats()
            client.run_job("ensemble", dict(ENS))
            assert handle.daemon.metrics.snapshot()["memo_stores"] == 0


class TestSubmit:
    def test_mixed_batch_coalesces_compatible_jobs(self, tmp_path):
        with serving(tmp_path) as (handle, client):
            jobs = [
                {"kind": "ensemble", "params": {**ENS, "seed": 1}},
                {"kind": "scf", "params": dict(SCF)},
                {"kind": "ensemble", "params": {**ENS, "seed": 2}},
            ]
            responses = client.submit(jobs)
            assert [r["status"] for r in responses] == ["ok"] * 3
            assert responses[0]["meta"]["coalesced"] == 2
            assert responses[2]["meta"]["coalesced"] == 2
            assert responses[1]["meta"]["coalesced"] == 1
            metrics = handle.daemon.metrics.snapshot()
            assert metrics["batches"] == 1     # one assembled batch
            assert metrics["groups"] == 2      # ensemble pair + scf single
            assert metrics["coalesced_jobs"] == 2
            assert metrics["completed"] == 3
            # Different seeds genuinely produce different trajectories.
            assert not np.array_equal(responses[0]["result"]["hops"],
                                      responses[2]["result"]["hops"])

    def test_memoized_resubmission(self, tmp_path):
        with serving(tmp_path) as (handle, client):
            first = client.submit([{"kind": "ensemble", "params": dict(ENS)}])
            assert first[0]["meta"]["memoized"] is False
            again = client.submit([{"kind": "ensemble", "params": dict(ENS)}])
            assert again[0]["meta"]["memoized"] is True
            metrics = handle.daemon.metrics.snapshot()
            assert metrics["memo_stores"] == 1
            assert metrics["memo_hits"] == 1
            assert np.array_equal(first[0]["result"]["pop_mean"],
                                  again[0]["result"]["pop_mean"])

    def test_memoize_false_bypasses_store(self, tmp_path):
        with serving(tmp_path) as (handle, client):
            for _ in range(2):
                r = client.submit([{"kind": "ensemble", "params": dict(ENS),
                                    "memoize": False}])
                assert r[0]["meta"]["memoized"] is False
            assert handle.daemon.metrics.snapshot()["memo_stores"] == 0

    def test_validation_errors_are_per_job(self, tmp_path):
        with serving(tmp_path) as (_, client):
            responses = client.submit([
                {"kind": "molecule"},
                {"kind": "ensemble", "params": {"ntrajs": 8}},
                {"kind": "ensemble", "params": dict(ENS)},
            ])
            assert [r["status"] for r in responses] == ["error", "error", "ok"]
            assert responses[0]["error"]["type"] == "ValueError"
            assert "unknown job kind" in responses[0]["error"]["message"]
            assert "ntrajs" in responses[1]["error"]["message"]

    def test_oversize_jobs_rejected_at_admission(self, tmp_path):
        with serving(tmp_path) as (handle, client):
            t0 = time.monotonic()
            oversize = [
                ("ensemble", "ntraj", 10**12),
                ("spectrum", "steps", 10**9),
                ("scf", "grid", 100_000),
                ("scf", "nscf", 10**9),
                ("spectrum", "norb", 100_000),
                ("run", "steps", 10**9),
                ("run", "n_qd", 10**9),
                ("ensemble", "nstates", 10**6),
                ("run", "grid", -3),
                ("spectrum", "grid", "x"),
            ]
            responses = client.submit([
                {"kind": kind, "params": {name: value}}
                for kind, name, value in oversize
            ])
            assert time.monotonic() - t0 < 5.0
            assert [r["status"] for r in responses] == ["error"] * 10
            for (kind, name, _), r in zip(oversize, responses):
                assert r["error"]["type"] == "ValueError"
                assert f"{kind} {name} must be" in r["error"]["message"]
            assert handle.daemon.metrics.snapshot()["groups"] == 0
            assert client.ping()

    def test_execution_failure_is_typed(self, tmp_path):
        with serving(tmp_path) as (_, client):
            with pytest.raises(ServeError):
                client.run_job("scf", {**SCF, "species": "Unobtanium"})
            assert client.ping()  # the daemon survives the failed job

    def test_spectrum_warm_reuse(self, tmp_path):
        spect = {"grid": 8, "norb": 2, "steps": 30}
        with serving(tmp_path) as (handle, client):
            cold = client.submit([{"kind": "spectrum", "params": dict(spect)}])
            assert cold[0]["meta"]["warm"] is False
            warm = client.submit([{"kind": "spectrum",
                                   "params": {**spect, "steps": 40}}])
            assert warm[0]["meta"]["warm"] is True
            assert handle.daemon.metrics.snapshot()["warm_hits"] == 1
            assert np.array_equal(cold[0]["result"]["eigenvalues"],
                                  warm[0]["result"]["eigenvalues"])

    def test_memoized_results_do_not_evict_ground_states(self, tmp_path):
        """The store answers a memoized scf repeat, so the pool does not
        hold it too, and a one-entry pool keeps its spectrum."""
        spect = {"grid": 8, "norb": 2, "steps": 30}
        with serving(tmp_path, pool_entries=1) as (_, client):
            client.submit([{"kind": "spectrum", "params": dict(spect)}])
            client.run_job("scf", dict(SCF))
            again = client.submit([{"kind": "spectrum",
                                    "params": {**spect, "steps": 20}}])
            assert again[0]["meta"]["warm"] is True
            assert client.stats()["pool"]["evictions"] == 0

    def test_invalidate_pool_and_artifacts(self, tmp_path):
        with serving(tmp_path) as (_, client):
            client.run_job("scf", dict(SCF), memoize=False)
            client.run_job("scf", dict(SCF))
            stats = client.stats()
            assert stats["pool"]["entries"] == 1
            assert stats["artifacts"]["entries"] == 1
            dropped = client.invalidate(scope="all")
            assert dropped == {"pool": 1, "artifacts": 1}
            stats = client.stats()
            assert stats["pool"]["entries"] == 0
            assert stats["artifacts"]["entries"] == 0
            # The next identical job recomputes (no stale answer).
            r = client.submit([{"kind": "scf", "params": dict(SCF)}])
            assert r[0]["meta"]["memoized"] is False


class TestBackpressure:
    def test_busy_shed_when_queue_full(self, tmp_path, gate):
        with serving(tmp_path, max_queue=1,
                     policy=BatchPolicy(max_batch=1)) as (handle, client):
            results = {}

            def submit_slow():
                results["slow"] = client.submit(
                    [{"kind": "ensemble", "params": dict(ENS)}])

            t = threading.Thread(target=submit_slow)
            t.start()
            # The slow job is in flight (admitted, gate-blocked): _pending
            # stays 1 until it resolves, so the queue is full.
            wait_until(lambda: client.stats()["queue_depth"] == 1,
                       what="slow job in flight")
            shed = client.submit([{"kind": "ensemble", "params": dict(ENS)}])
            assert shed[0]["status"] == "busy"
            assert shed[0]["error"]["type"] == "ServerBusy"
            assert shed[0]["error"]["max_queue"] == 1
            gate.set()
            t.join(60)
            assert results["slow"][0]["status"] == "ok"
            assert handle.daemon.metrics.snapshot()["busy_shed"] == 1

    def test_drain_finishes_inflight_and_sheds_queued(self, tmp_path, gate):
        with serving(tmp_path,
                     policy=BatchPolicy(max_batch=1)) as (handle, client):
            results = {}

            def submit(name, jobs):
                results[name] = client.submit(jobs)

            slow = threading.Thread(target=submit, args=(
                "inflight", [{"kind": "ensemble", "params": dict(ENS)}]))
            slow.start()
            wait_until(lambda: client.stats()["queue_depth"] == 1,
                       what="in-flight job")
            queued = threading.Thread(target=submit, args=(
                "queued", [{"kind": "ensemble",
                            "params": {**ENS, "seed": 9}}] * 2))
            queued.start()
            wait_until(lambda: client.stats()["queue_depth"] == 3,
                       what="queued jobs")

            drainer = threading.Thread(target=client.shutdown)
            drainer.start()
            wait_until(lambda: handle.daemon._draining, what="drain flag")
            gate.set()

            slow.join(60)
            queued.join(60)
            drainer.join(60)
            # The in-flight batch completed; everything queued behind it
            # was refused with the typed shutdown error.
            assert results["inflight"][0]["status"] == "ok"
            assert [r["status"] for r in results["queued"]] == \
                ["shutdown"] * 2
            assert all(r["error"]["type"] == "ServerShutdown"
                       for r in results["queued"])
            metrics = handle.daemon.metrics.snapshot()
            assert metrics["completed"] == 1
            assert metrics["shutdown_shed"] == 2

    def test_submission_during_drain_refused(self, tmp_path, gate):
        with serving(tmp_path,
                     policy=BatchPolicy(max_batch=1)) as (handle, client):
            results = {}

            def submit_slow():
                results["slow"] = client.submit(
                    [{"kind": "ensemble", "params": dict(ENS)}])

            t = threading.Thread(target=submit_slow)
            t.start()
            wait_until(lambda: client.stats()["queue_depth"] == 1,
                       what="in-flight job")
            drainer = threading.Thread(target=client.shutdown)
            drainer.start()
            wait_until(lambda: handle.daemon._draining, what="drain flag")
            late = client.submit([{"kind": "scf", "params": dict(SCF)}])
            assert late[0]["status"] == "shutdown"
            assert late[0]["error"]["type"] == "ServerShutdown"
            gate.set()
            t.join(60)
            drainer.join(60)
            assert results["slow"][0]["status"] == "ok"


class TestCrossRequestCoalescing:
    def test_concurrent_submits_share_one_group(self, tmp_path, gate):
        """Compatible jobs queued behind a busy worker run as one group."""
        with serving(tmp_path) as (handle, client):
            results = {}

            def submit(seed):
                results[seed] = client.submit(
                    [{"kind": "ensemble", "params": {**ENS, "seed": seed}}])

            threads = [threading.Thread(target=submit, args=(30,))]
            threads[0].start()
            wait_until(lambda: handle.daemon.metrics.snapshot()["groups"] == 1,
                       what="first job on the worker")
            threads += [threading.Thread(target=submit, args=(s,))
                        for s in (31, 32)]
            for t in threads[1:]:
                t.start()
            wait_until(lambda: client.stats()["queue_depth"] == 3,
                       what="two queued jobs")
            gate.set()
            for t in threads:
                t.join(120)
            assert [results[s][0]["status"] for s in (30, 31, 32)] == \
                ["ok"] * 3
            assert results[31][0]["meta"]["coalesced"] == 2
            assert results[32][0]["meta"]["coalesced"] == 2
            metrics = handle.daemon.metrics.snapshot()
            assert metrics["groups"] == 2  # the first job, then the pair
            assert metrics["coalesced_jobs"] == 2

    def test_back_to_back_requests_share_one_group(self, tmp_path):
        """Two requests sent one after the other form one batch."""
        with serving(tmp_path) as (handle, _):
            with contextlib.ExitStack() as stack:
                socks = [stack.enter_context(socket.socket(socket.AF_UNIX,
                                                           socket.SOCK_STREAM))
                         for _ in range(2)]
                for sock in socks:
                    sock.settimeout(120)
                    sock.connect(str(tmp_path / "serve.sock"))
                for sock, seed in zip(socks, (41, 42)):
                    sock.sendall(dumps_line({"op": "submit", "jobs": [
                        {"kind": "ensemble", "params": {**ENS, "seed": seed}}
                    ]}))
                replies = []
                for sock in socks:
                    with sock.makefile("rb") as reply:
                        replies.append(loads_line(reply.readline()))
            jobs = [r["jobs"][0] for r in replies]
            assert [j["status"] for j in jobs] == ["ok", "ok"]
            assert [j["meta"]["coalesced"] for j in jobs] == [2, 2]
            metrics = handle.daemon.metrics.snapshot()
            assert metrics["batches"] == 1
            assert metrics["groups"] == 1


class TestBatchAssembly:
    def test_lone_job_does_not_linger(self, tmp_path):
        """An idle daemon dispatches a lone job after one arrival gap."""
        with serving(tmp_path) as (handle, client):
            client.run_job("scf", dict(SCF))
            metrics = handle.daemon.metrics.snapshot()
            assert metrics["batches"] == 1
            assert metrics["queue_wait_s"] < 0.02

    def test_batch_stops_growing_at_max_batch(self, tmp_path):
        with serving(tmp_path,
                     policy=BatchPolicy(max_batch=2)) as (handle, client):
            responses = client.submit(
                [{"kind": "ensemble", "params": {**ENS, "seed": s}}
                 for s in (51, 52, 53)])
            assert [r["status"] for r in responses] == ["ok"] * 3
            assert [r["meta"]["coalesced"] for r in responses] == [2, 2, 1]
            metrics = handle.daemon.metrics.snapshot()
            assert metrics["batches"] == 2
            assert metrics["groups"] == 2
