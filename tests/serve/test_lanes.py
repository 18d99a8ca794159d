"""Serving lanes: a two-lane daemon answers exactly what one-shot runs do.

The stress gate first: seeded closed loops of two clients (repeats,
warm scf, spectra, ``run`` jobs and ensemble sweeps) against a daemon
with two lanes, every answer bitwise-equal to the one-shot
``repro.serve.workloads`` computation.  Then the lane lifecycle: a lane
process killed mid-group, a hung lane, a long group whose rounds each
fit their deadline (not hung), a deadline inside a lane, drain while a
lane starts, group scratch removed on both lanes, routing spectra by
warm key, warm scf answered by the daemon without a lane,
``invalidate`` and ``stats`` across lanes, and lane spans in the
daemon's trace.

Every lane is a process of its own, so the hooks that steer a test run
in the lanes, through their workers (:mod:`tests.serve.lanehooks`): a
test holds lane 0 inside one gated job (:func:`occupy_lane`) and every
other group then runs on lane 1.
"""

from __future__ import annotations

import contextlib
import glob
import os
import random
import signal
import threading
import time

import numpy as np
import pytest

import repro.serve.daemon as daemon_module
from repro.ensemble import EnsembleConfig, run_ensemble
from repro.obs import tracing
from repro.qxmd.scf import scf_solve_batch
from repro.serve import BatchPolicy, DaemonHandle, ServeClient, ServeConfig
from repro.serve import workloads
from repro.serve.jobs import validate_job
from tests.serve.lanehooks import hooked, occupy_lane, slow_rounds, wait_until

ENS = {"ntraj": 4, "nsteps": 12, "nstates": 3, "coupling": 0.3,
       "batch_size": 4}
SCF = {"grid": 8, "norb": 2, "nscf": 1, "ncg": 2}
SPECT = {"grid": 8, "norb": 2}
RUN = {"grid": 12, "steps": 1, "n_qd": 2, "nscf": 1, "ncg": 1}


@pytest.fixture(autouse=True)
def two_lanes(monkeypatch):
    """Every daemon here has exactly two lanes, whatever the host."""
    monkeypatch.setattr(daemon_module, "lane_count", lambda: 2)


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


def lanes(client):
    return client.stats()["lanes"]


def children():
    """Pids of this process's live children."""
    while True:
        pids = set()
        try:
            for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
                with open(path) as f:
                    pids.update(int(p) for p in f.read().split())
        except FileNotFoundError:
            continue  # a thread exited mid-scan: its children moved; rescan
        return pids


def gone(pid, timeout_s=5.0):
    """Whether ``pid`` exits (or is a zombie) within ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/status") as status:
                if "\nState:\tZ" in status.read():
                    return True
        except FileNotFoundError:
            return True
        time.sleep(0.02)
    return False


# ---------------------------------------------------------------------- #
# one-shot references
# ---------------------------------------------------------------------- #
_REFERENCES: dict = {}


def one_shot(job, tmp_path):
    """The job computed by the one-shot workload functions (memoized)."""
    key = (job["kind"], repr(sorted(job["params"].items())))
    if key not in _REFERENCES:
        params = validate_job(job).params
        kind = job["kind"]
        if kind == "scf":
            (result,) = scf_solve_batch([workloads.scf_task(params)])
            want = workloads.scf_payload(result)
        elif kind == "spectrum":
            want = workloads.spectrum_payload(
                workloads.spectrum_ground_state(params), params)
        elif kind == "run":
            want = workloads.run_payload(
                params, supervise_dir=tmp_path / f"one-shot-{len(_REFERENCES)}")
        else:
            istate = params["istate"]
            want = workloads.ensemble_payload(run_ensemble(
                workloads.ensemble_path(params), EnsembleConfig(
                    ntraj=int(params["ntraj"]),
                    seed=int(params["seed"]),
                    istate=(int(params["nstates"]) - 1 if istate is None
                            else int(istate)),
                    substeps=int(params["substeps"]),
                    batch_size=params["batch_size"],
                )))
        _REFERENCES[key] = want
    return _REFERENCES[key]


def assert_bitwise(got, want, what):
    assert set(got) == set(want), what
    for name, ref in want.items():
        if isinstance(ref, np.ndarray):
            assert got[name].dtype == ref.dtype, (what, name)
            assert got[name].tobytes() == ref.tobytes(), (what, name)
        else:
            assert got[name] == ref, (what, name)


# ---------------------------------------------------------------------- #
# the stress gate
# ---------------------------------------------------------------------- #
#: scf systems both clients send unmemoized, so repeats hit the pool.
WORKING_SET = [{**SCF, "separation": s, "seed": 7} for s in (1.2, 1.5, 1.8)]

KINDS = ("repeat", "warm_scf", "spectrum", "run", "sweep", "oneoff_scf")


def client_requests(seed, client, count=5):
    """One client's request sequence for one loop, a function of the seed."""
    rng = random.Random(f"lanes:{seed}:{client}")
    earlier = [{"kind": "scf", "params": {**SCF, "seed": 1000 + client}}]
    requests = []
    for _ in range(count):
        kind = rng.choice(KINDS)
        if kind == "repeat":
            jobs = [dict(rng.choice(earlier))]
        elif kind == "warm_scf":
            jobs = [{"kind": "scf", "memoize": False, "params": dict(p)}
                    for p in rng.sample(WORKING_SET, 2)]
        elif kind == "spectrum":
            jobs = [{"kind": "spectrum", "params": {
                **SPECT, "seed": client, "steps": rng.randrange(10, 60)}}
                for _ in range(2)]
        elif kind == "run":
            jobs = [{"kind": "run", "params": {
                **RUN, "seed": rng.randrange(1 << 20)}}]
        elif kind == "sweep":
            jobs = [{"kind": "ensemble", "params": {
                **ENS, "seed": rng.randrange(1 << 20)}} for _ in range(3)]
        else:
            jobs = [{"kind": "scf", "params": {
                **SCF, "seed": rng.randrange(1 << 20)}}]
        earlier.extend(j for j in jobs if j.get("memoize", True))
        requests.append(jobs)
    return requests


def closed_loop(client, seed):
    """Both clients' requests, back to back; returns every (job, reply)."""
    answers, errors = [], []

    def run_client(c):
        try:
            for jobs in client_requests(seed, c):
                answers.extend(zip(jobs, client.submit(jobs)))
        except BaseException as exc:  # noqa: BLE001 -- re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=run_client, args=(c,))
               for c in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    assert not errors, errors
    assert not any(t.is_alive() for t in threads)
    return answers


class TestStress:
    @pytest.mark.parametrize("first_seed", [0, 5, 10, 15])
    def test_closed_loops_answer_one_shot_bitwise(self, tmp_path,
                                                  first_seed):
        """Five seeded loops per daemon, four daemons: 20 loops."""
        before = children()
        with serving(tmp_path) as (_, client):
            for seed in range(first_seed, first_seed + 5):
                for job, reply in closed_loop(client, seed):
                    what = f"seed {seed}: {job}"
                    assert reply["status"] == "ok", (what, reply)
                    assert_bitwise(reply["result"], one_shot(job, tmp_path),
                                   what)
            stats = client.stats()
        assert stats["metrics"]["failed"] == 0
        assert stats["metrics"]["memo_hits"] > 0
        assert stats["pool"]["hits"] > 0
        assert all(lane["groups"] > 0 for lane in stats["lanes"]), stats
        assert children() <= before  # every lane process was reaped


# ---------------------------------------------------------------------- #
# lane lifecycle
# ---------------------------------------------------------------------- #
def spectrum_job(seed, steps, **extra):
    return {"kind": "spectrum", "memoize": False,
            "params": {**SPECT, "seed": seed, "steps": steps}, **extra}


def submit_in_background(client, jobs):
    out = {}
    thread = threading.Thread(
        target=lambda: out.update(reply=client.submit(jobs)))
    thread.start()
    return thread, out


class TestLaneStart:
    def test_lanes_start_only_when_groups_wait(self, tmp_path):
        """Nothing starts before a group waits; sequential requests
        start lane 0 only, and no lane is the daemon's process."""
        before = children()
        with serving(tmp_path) as (_, client):
            assert client.ping()
            assert [(lane["status"], lane["pid"]) for lane in lanes(client)] \
                == [("stopped", None)] * 2
            assert children() == before
            for seed in (15, 16):
                (reply,) = client.submit([spectrum_job(seed, 20)])
                assert reply["status"] == "ok", reply
            lane0, lane1 = lanes(client)
        assert lane0["status"] == "ready" and lane0["groups"] == 2
        assert lane0["pid"] not in (None, os.getpid())
        assert (lane1["status"], lane1["pid"]) == ("stopped", None)


class TestLaneFailures:
    def test_killed_lane_answers_typed_and_restarts_empty(self, tmp_path):
        with serving(tmp_path) as (handle, client):
            with occupy_lane(handle, client):
                thread, out = submit_in_background(
                    client, [spectrum_job(3, 20_000)])
                wait_until(lambda: lanes(client)[1]["busy"],
                           what="lane 1 computing")
                pid = lanes(client)[1]["pid"]
                os.kill(pid, signal.SIGKILL)
                thread.join(60)
                (reply,) = out["reply"]
                assert reply["status"] == "error"
                assert reply["error"]["type"] == "WorkerCrashError"
                assert gone(pid)
                # The same ground state again: a fresh lane, built cold.
                job = spectrum_job(3, 30)
                (again,) = client.submit([job])
                assert again["status"] == "ok", again
                assert again["meta"]["warm"] is False
                assert_bitwise(again["result"], one_shot(job, tmp_path),
                               "after the crash")
            lane1 = lanes(client)[1]
            assert lane1["restarts"] == 1 and lane1["pid"] != pid

    @pytest.mark.parametrize("lane", [0, 1])
    def test_hung_lane_is_killed_and_answered_deadline_exceeded(
            self, tmp_path, monkeypatch, lane):
        monkeypatch.setattr(daemon_module, "HANG_GRACE_S", 0.5)
        with serving(tmp_path) as (handle, client):
            held = (occupy_lane(handle, client) if lane == 1
                    else contextlib.nullcontext())
            with held:
                thread, out = submit_in_background(
                    client, [spectrum_job(4, 20_000, deadline_s=1.5)])
                wait_until(lambda: lanes(client)[lane]["busy"],
                           what=f"lane {lane} computing")
                pid = lanes(client)[lane]["pid"]
                os.kill(pid, signal.SIGSTOP)  # wedged: no deadline checks
                thread.join(60)
                (reply,) = out["reply"]
                assert reply["error"]["type"] == "DeadlineExceeded"
                assert "serve.group" in reply["error"]["message"]
                assert gone(pid)
                job = spectrum_job(4, 25)
                (again,) = client.submit([job])
                assert_bitwise(again["result"], one_shot(job, tmp_path),
                               "after the hang")
            restarted = lanes(client)[lane]
        assert restarted["restarts"] == 1 and restarted["groups"] >= 2

    @pytest.mark.parametrize("lane", [0, 1])
    def test_rounds_that_each_fit_the_deadline_are_not_hung(
            self, tmp_path, monkeypatch, lane):
        """Six rounds of 0.25 s under a 1-s deadline outlast the deadline
        plus the grace; each round arms a fresh budget, which renews the
        lane's lease, so the group is answered, not taken for hung."""
        monkeypatch.setattr(daemon_module, "HANG_GRACE_S", 0.2)
        job = {"kind": "ensemble", "memoize": False, "deadline_s": 1.0,
               "params": {**ENS, "ntraj": 6, "batch_size": 1, "seed": 31}}
        with serving(tmp_path) as (handle, client):
            held = (occupy_lane(handle, client) if lane == 1
                    else contextlib.nullcontext())
            with held:
                if lane == 1:
                    client.submit([spectrum_job(13, 20)])  # starts lane 1
                groups = lanes(client)[lane]["groups"]
                with hooked(handle.daemon._lanes[lane], slow_rounds, 0.25):
                    t0 = time.monotonic()
                    (reply,) = client.submit([job])
                    elapsed = time.monotonic() - t0
                    assert reply["status"] == "ok", reply
                assert lanes(client)[lane]["groups"] == groups + 1
        assert elapsed > 1.0 + 0.2
        assert_bitwise(reply["result"], one_shot(job, tmp_path),
                       "slow rounds")

    def test_deadline_expires_inside_a_lane(self, tmp_path):
        with serving(tmp_path) as (handle, client):
            with occupy_lane(handle, client):
                (first,) = client.submit([spectrum_job(5, 20)])
                pid = lanes(client)[1]["pid"]
                (expired,) = client.submit(
                    [spectrum_job(5, 5_000, deadline_s=0.05)])
                assert expired["error"]["type"] == "DeadlineExceeded"
                assert "serve.spectrum.propagate" in \
                    expired["error"]["message"]
                job = spectrum_job(5, 40)
                (after,) = client.submit([job])
                assert after["meta"]["warm"] is True  # the lane lived on
                assert_bitwise(after["result"], one_shot(job, tmp_path),
                               "after the deadline")
                assert lanes(client)[1]["pid"] == pid
            assert first["status"] == "ok"

    def test_shutdown_while_a_lane_is_starting(self, tmp_path):
        before = children()
        handle = DaemonHandle(ServeConfig(
            socket_path=tmp_path / "serve.sock",
            artifact_root=tmp_path / "artifacts",
            scratch_root=tmp_path / "scratch")).start()
        client = ServeClient(tmp_path / "serve.sock", timeout_s=120)
        stopper = threading.Thread(target=handle.stop)
        try:
            with occupy_lane(handle, client) as held:
                thread, out = submit_in_background(
                    client, [spectrum_job(6, 20)])
                wait_until(lambda: lanes(client)[1]["status"] == "starting",
                           what="lane 1 starting")
                stopper.start()
                wait_until(lambda: handle.daemon._draining,
                           what="drain begun")
        finally:
            if not stopper.is_alive():
                stopper.start()
            stopper.join(60)
        thread.join(60)
        assert held["reply"][0]["status"] == "ok"  # in flight: finished
        assert out["reply"][0]["error"]["type"] == "ServerShutdown"
        assert children() <= before  # the starting lane was joined


class TestScratch:
    def test_group_directories_go_when_their_groups_return(
            self, tmp_path, monkeypatch):
        """Supervised groups on both lanes, one of them answered
        ``DeadlineExceeded`` as hung (its lane killed mid-group), leave
        no group directory behind once its lane starts again."""
        monkeypatch.setattr(daemon_module, "HANG_GRACE_S", 0.2)
        hung = {"kind": "ensemble", "memoize": False, "deadline_s": 0.3,
                "params": {**ENS, "seed": 41}}
        with serving(tmp_path) as (handle, client):
            (ok0,) = client.submit([{"kind": "run", "memoize": False,
                                     "params": {**RUN, "seed": 3}}])
            with hooked(handle.daemon._lanes[0], slow_rounds, 1.0):
                (expired,) = client.submit([hung])
                wait_until(lambda: not lanes(client)[0]["busy"],
                           what="lane 0's hung group to return")
            with occupy_lane(handle, client):  # lane 0 starts again
                (ok1,) = client.submit([{"kind": "run", "memoize": False,
                                         "params": {**RUN, "seed": 4}}])
                assert lanes(client)[1]["groups"] == 1
            scratch = tmp_path / "scratch"
            assert sorted(p.name for p in scratch.iterdir()) == \
                ["lane0", "lane1"]
            assert list(scratch.glob("lane*/*")) == []
            assert lanes(client)[0]["restarts"] == 1
        assert ok0["status"] == ok1["status"] == "ok", (ok0, ok1)
        assert expired["error"]["type"] == "DeadlineExceeded", expired
        assert "serve.group" in expired["error"]["message"]


class TestWarmScf:
    JOB = {"kind": "scf", "memoize": False,
           "params": {**SCF, "separation": 1.3, "seed": 5}}

    def test_a_repeat_is_answered_while_both_lanes_compute(self, tmp_path):
        """The daemon's pool answers a warm scf repeat at admission: it
        waits for no lane, not even the one that computed it."""
        with serving(tmp_path) as (handle, client):
            (cold,) = client.submit([self.JOB])
            impatient = ServeClient(handle.config.socket_path, timeout_s=10)
            with occupy_lane(handle, client):
                client.submit([spectrum_job(14, 20)])  # starts lane 1
                with occupy_lane(handle, client, 1):
                    (warm,) = impatient.submit([self.JOB])
                    busy = [lane["busy"] for lane in lanes(client)]
            stats = client.stats()
        assert cold["meta"]["warm"] is False
        assert warm["status"] == "ok" and warm["meta"]["warm"] is True
        assert busy == [True, True]
        assert_bitwise(warm["result"], one_shot(self.JOB, tmp_path), "warm")
        assert stats["metrics"]["warm_hits"] == 1
        # The pool totals count the daemon's pool; no lane holds scf.
        assert stats["pool"]["hits"] == 1 and stats["pool"]["entries"] == 2
        assert [lane["pool"]["entries"] for lane in stats["lanes"]] == [0, 1]

    def test_invalidate_drops_the_daemon_pool_at_once(self, tmp_path):
        with serving(tmp_path) as (handle, client):
            client.submit([self.JOB])
            impatient = ServeClient(handle.config.socket_path, timeout_s=10)
            with occupy_lane(handle, client):
                dropped = impatient.invalidate(scope="pool", key=None)
                assert dropped == {"pool": 1, "artifacts": 0}
                assert client.stats()["pool"]["entries"] == 0
            (again,) = client.submit([self.JOB])
        assert again["meta"]["warm"] is False
        assert_bitwise(again["result"], one_shot(self.JOB, tmp_path), "cold")

    def test_without_a_store_every_scf_result_is_pooled(self, tmp_path):
        job = {k: v for k, v in self.JOB.items() if k != "memoize"}
        with serving(tmp_path, artifact_root=None) as (_, client):
            replies = client.submit([job]) + client.submit([job])
        assert [r["meta"]["warm"] for r in replies] == [False, True]
        assert_bitwise(replies[1]["result"], replies[0]["result"], "repeat")


class TestRouting:
    def test_a_ground_state_stays_on_the_lane_that_built_it(self, tmp_path):
        with serving(tmp_path) as (handle, client):
            with occupy_lane(handle, client):
                client.submit([spectrum_job(8, 20)])
            qd = client.stats()["metrics"]["spectrum_qd_steps"]
            # Both lanes idle now: the owner takes it, and continues.
            job = spectrum_job(8, 30)
            (reply,) = client.submit([job])
            assert reply["meta"]["warm"] is True
            assert_bitwise(reply["result"], one_shot(job, tmp_path), "owner")
            stats = client.stats()
            assert stats["metrics"]["spectrum_qd_steps"] - qd == 10
            lane0, lane1 = stats["lanes"]
            assert lane0["pool"]["entries"] == 0
            assert lane1["pool"]["entries"] == 1
            assert lane1["pool"]["hits"] == 1

    def test_an_evicted_key_takes_the_idle_lane(self, tmp_path):
        """Lane 0 built a ground state and evicted it (one entry per
        pool), so its next group runs on idle lane 1 at once rather than
        waiting for its busy former builder."""
        with serving(tmp_path, pool_entries=1) as (handle, client):
            client.submit([spectrum_job(17, 20)])  # lane 0 builds it
            client.submit([spectrum_job(18, 20)])  # lane 0 evicts it
            impatient = ServeClient(handle.config.socket_path, timeout_s=10)
            with occupy_lane(handle, client):
                job = spectrum_job(17, 30)
                (reply,) = impatient.submit([job])
                stats = client.stats()
        assert reply["meta"]["warm"] is False
        assert_bitwise(reply["result"], one_shot(job, tmp_path), "evicted")
        lane0, lane1 = stats["lanes"]
        assert lane0["busy"] and lane0["pool"]["evictions"] == 1
        assert lane1["groups"] == 1 and lane1["pool"]["entries"] == 1

    def test_jobs_waiting_for_a_lane_coalesce_across_batches(
            self, tmp_path, monkeypatch):
        """Compatible jobs of separate batches join one waiting group."""
        monkeypatch.setattr(daemon_module, "lane_count", lambda: 1)
        with serving(tmp_path) as (handle, client):
            with occupy_lane(handle, client):
                threads = []
                for seed in (21, 22):
                    threads.append(submit_in_background(client, [
                        {"kind": "ensemble", "params": {**ENS, "seed": seed}}]))
                    wait_until(lambda: handle.daemon.metrics.snapshot()[
                        "batches"] == len(threads) + 1, what="a batch")
            replies = []
            for thread, out in threads:
                thread.join(60)
                replies += out["reply"]
        assert [r["meta"]["coalesced"] for r in replies] == [2, 2]
        for reply, seed in zip(replies, (21, 22)):
            job = {"kind": "ensemble", "params": {**ENS, "seed": seed}}
            assert_bitwise(reply["result"], one_shot(job, tmp_path), seed)

    def test_invalidate_and_stats_reach_every_lane(self, tmp_path):
        """``invalidate`` answers for both lanes at once while both
        compute held groups; no dropped entry shows in ``stats`` then or
        after the held groups return, and a dropped ground state is next
        built cold, on the lane that held it."""
        with serving(tmp_path) as (handle, client):
            client.submit([spectrum_job(9, 20)])          # lane 0
            impatient = ServeClient(handle.config.socket_path, timeout_s=10)
            with contextlib.ExitStack() as hold0:
                hold0.enter_context(occupy_lane(handle, client))
                client.submit([spectrum_job(10, 20)])     # lane 1
                with occupy_lane(handle, client, 1):
                    stats = client.stats()
                    dropped = impatient.invalidate(scope="pool")
                    at_once = client.stats()
                    hold0.close()  # lane 0's held group returns
                    returned = client.stats()
                    job = spectrum_job(9, 20)
                    (again,) = client.submit([job])  # lane 0: the idle one
                    rebuilt = client.stats()
            after = client.stats()
        assert [lane["pool"]["entries"] for lane in stats["lanes"]] == [1, 1]
        assert stats["pool"]["entries"] == 2
        for lane in stats["lanes"]:
            assert lane["pid"] not in (None, os.getpid())
            assert lane["busy"] and lane["groups"] >= 1
            assert lane["busy_s"] > 0 and lane["vmhwm_mb"] > 0
        assert dropped == {"pool": 2, "artifacts": 0}
        for snapshot in (at_once, returned):
            assert [lane["pool"]["entries"] for lane in snapshot["lanes"]] \
                == [0, 0]
            assert snapshot["pool"]["entries"] == 0
        assert [lane["busy"] for lane in returned["lanes"]] == [False, True]
        assert again["meta"]["warm"] is False
        assert_bitwise(again["result"], one_shot(job, tmp_path), "dropped")
        assert [lane["pool"]["entries"] for lane in rebuilt["lanes"]] \
            == [1, 0]
        assert [lane["pool"]["entries"] for lane in after["lanes"]] == [1, 0]


class TestTrace:
    def test_spans_from_both_lanes_reach_the_daemon_trace(self, tmp_path):
        with tracing() as tracer:
            with serving(tmp_path) as (handle, client):
                client.submit([spectrum_job(11, 20)])      # lane 0
                with occupy_lane(handle, client):
                    client.submit([spectrum_job(12, 20)])  # lane 1
                end = time.perf_counter() - tracer.epoch
        jobs = [r for r in tracer.records if r.name == "serve.job"]
        assert {r.args["lane"] for r in jobs} == {0, 1}
        for lane in (0, 1):
            records = [r for r in tracer.records if r.args.get("lane") == lane]
            assert {"serve.group", "serve.job"} <= {r.name for r in records}
            for record in records:  # rebased onto this tracer's timeline
                assert 0 < record.start < record.start + record.duration < end
