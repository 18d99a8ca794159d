"""The two halves of a serve lane, without a daemon or a lane process.

Lane side: :class:`~repro.serve.daemon.LaneState`, the state a lane
process owns and the body that computes one group against it, and the
module functions an ``OwnedWorker`` runs (``_lane_execute``,
``_lane_invalidate``).  Here they run in the test process on a lease of
their own, which is exactly what a lane process does with its worker's
lease.  Every computed answer is compared bitwise with the one-shot
``repro.serve.workloads`` computation, and every group reports the
lane's pooled keys with its answers, which is what the daemon routes by.

Daemon side: the ``_Lane`` handle's view of those reports.  Routing
reads ``holds``; ``invalidate`` answers from ``forget`` at once and
queues the drop, and a report that returns before the drop lands is
taken less the drops still queued.  ``_Group`` carries the warm key a
spectrum group routes by and the budget its lease runs to.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

import repro.serve.daemon as daemon_module
from repro.ensemble import EnsembleConfig, run_ensemble
from repro.parallel.owned import Lease
from repro.qxmd.scf import scf_solve_batch
from repro.resilience.liveness import DeadlineExceeded
from repro.serve import workloads
from repro.serve.daemon import (
    GroupOutcome,
    LaneConfig,
    LaneState,
    ServeMetrics,
    _Group,
    _Lane,
    _lane_execute,
    _lane_invalidate,
    _payload_nbytes,
    _split_payload,
    lane_count,
)
from repro.serve.jobs import batch_key, validate_job, warm_key

ENS = {"ntraj": 4, "nsteps": 12, "nstates": 3, "coupling": 0.3,
       "batch_size": 4}
SCF = {"grid": 8, "norb": 2, "nscf": 1, "ncg": 2}
SPECT = {"grid": 8, "norb": 2}


def spec(kind, deadline_s=None, **params):
    return validate_job({"kind": kind, "params": params,
                         "deadline_s": deadline_s})


def spectrum(seed, steps, **extra):
    return spec("spectrum", **SPECT, seed=seed, steps=steps, **extra)


def config(tmp_path, index=0, pool_entries=4):
    return LaneConfig(index=index, pool_entries=pool_entries,
                      pool_max_bytes=None, scratch_root=tmp_path / "scratch",
                      max_retries=1)


def lane_state(tmp_path, **overrides):
    lease = Lease()
    lease.set(time.monotonic())
    return LaneState(config(tmp_path, **overrides), lease)


def spectrum_reference(job):
    return workloads.spectrum_payload(
        workloads.spectrum_ground_state(job.params), job.params)


def ensemble_reference(job):
    params = job.params
    istate = params["istate"]
    return workloads.ensemble_payload(run_ensemble(
        workloads.ensemble_path(params), EnsembleConfig(
            ntraj=int(params["ntraj"]),
            seed=int(params["seed"]),
            istate=(int(params["nstates"]) - 1 if istate is None
                    else int(istate)),
            substeps=int(params["substeps"]),
            batch_size=params["batch_size"],
        )))


def assert_bitwise(got, want):
    assert set(got) == set(want)
    for name, ref in want.items():
        if isinstance(ref, np.ndarray):
            assert got[name].dtype == ref.dtype, name
            assert np.array_equal(got[name], ref), name
        else:
            assert got[name] == ref, name


def ok_payloads(outcome):
    assert [answer[0] for answer in outcome.answers] \
        == ["ok"] * len(outcome.answers), outcome.answers
    return [answer[1] for answer in outcome.answers]


# ---------------------------------------------------------------------- #
# lane side: LaneState
# ---------------------------------------------------------------------- #
class TestLaneStateSpectrum:
    def test_a_cold_group_pools_its_ground_state_and_reports_the_key(
            self, tmp_path):
        state = lane_state(tmp_path)
        job = spectrum(5, 20)
        outcome = state.execute((job,))
        (payload,) = ok_payloads(outcome)
        assert_bitwise(payload, spectrum_reference(job))
        assert outcome.answers[0][2] == {"warm": False}
        gs = state.pool.get(warm_key(job))
        assert outcome.keys == {warm_key(job): gs.nbytes()}
        assert outcome.pool["entries"] == 1
        assert outcome.counts == {"warm_hits": 0, "spectrum_qd_steps": 20}
        assert outcome.vmhwm_mb > 0

    def test_a_repeat_is_warm_and_propagates_only_the_new_steps(
            self, tmp_path):
        state = lane_state(tmp_path)
        state.execute((spectrum(6, 20),))
        job = spectrum(6, 30)
        outcome = state.execute((job,))
        (payload,) = ok_payloads(outcome)
        assert_bitwise(payload, spectrum_reference(job))
        assert outcome.answers[0][2] == {"warm": True}
        assert outcome.counts == {"warm_hits": 1, "spectrum_qd_steps": 10}
        assert list(outcome.keys) == [warm_key(job)]

    def test_a_coalesced_group_shares_one_ground_state(self, tmp_path):
        state = lane_state(tmp_path)
        jobs = (spectrum(7, 25), spectrum(7, 40), spectrum(7, 10))
        outcome = state.execute(jobs)
        for payload, job in zip(ok_payloads(outcome), jobs):
            assert_bitwise(payload, spectrum_reference(job))
        assert [answer[2] for answer in outcome.answers] \
            == [{"warm": False}] * 3
        assert outcome.counts["spectrum_qd_steps"] == 40
        assert len(outcome.keys) == 1

    def test_the_report_is_bounded_by_pool_entries(self, tmp_path):
        """An evicted ground state leaves the lane's report, so the
        daemon stops routing its key to this lane."""
        state = lane_state(tmp_path, pool_entries=1)
        first, second = spectrum(8, 10), spectrum(9, 10)
        state.execute((first,))
        outcome = state.execute((second,))
        assert list(outcome.keys) == [warm_key(second)]
        assert outcome.pool["evictions"] == 1

    def test_an_expired_deadline_is_typed_and_keeps_the_record(
            self, tmp_path):
        state = lane_state(tmp_path)
        job = spectrum(10, 500, deadline_s=1e-6)
        outcome = state.execute((job,))
        (answer,) = outcome.answers
        assert answer[0] == "error"
        assert answer[1]["id"] == job.job_id
        assert answer[1]["error"]["type"] == "DeadlineExceeded"
        # The steps taken stay pooled for the next job to continue.
        assert list(outcome.keys) == [warm_key(job)]
        assert 0 < outcome.counts["spectrum_qd_steps"] < 500


class TestLaneStateOtherKinds:
    def test_an_scf_group_answers_one_shot_and_pools_nothing(self, tmp_path):
        state = lane_state(tmp_path)
        jobs = (spec("scf", **SCF), spec("scf", **{**SCF, "grid": 10}))
        outcome = state.execute(jobs)
        want = scf_solve_batch([workloads.scf_task(j.params) for j in jobs])
        for payload, result in zip(ok_payloads(outcome), want):
            assert_bitwise(payload, workloads.scf_payload(result))
        assert [answer[2] for answer in outcome.answers] \
            == [{"warm": False}] * 2
        assert outcome.keys == {} and outcome.pool["entries"] == 0

    def test_an_ensemble_group_answers_each_member_one_shot(self, tmp_path):
        state = lane_state(tmp_path)
        jobs = (spec("ensemble", **ENS, seed=31),
                spec("ensemble", **{**ENS, "ntraj": 3}, seed=32, istate=0))
        outcome = state.execute(jobs)
        for payload, job in zip(ok_payloads(outcome), jobs):
            assert_bitwise(payload, ensemble_reference(job))
        assert outcome.keys == {}

    def test_a_failing_group_answers_every_job_typed(self, tmp_path):
        state = lane_state(tmp_path)
        jobs = (spec("ensemble", **ENS, seed=33),
                spec("ensemble", **ENS, seed=34, istate=7))
        outcome = state.execute(jobs)
        assert [answer[0] for answer in outcome.answers] == ["error"] * 2
        assert [answer[1]["id"] for answer in outcome.answers] \
            == [job.job_id for job in jobs]
        assert {answer[1]["error"]["type"] for answer in outcome.answers} \
            == {"ValueError"}


class TestLaneStateLeaseAndScratch:
    def test_each_deadline_scope_extends_the_lease(self, tmp_path):
        state = lane_state(tmp_path)
        before = state.lease.until
        t0 = time.monotonic()
        state.execute((spec("scf", deadline_s=200.0, **SCF),))
        assert state.lease.until >= t0 + 200.0 > before

    def test_a_group_scratch_goes_when_the_group_returns(self, tmp_path,
                                                         monkeypatch):
        supervised = daemon_module.run_group_supervised
        written = []

        def recording(group, scratch, **kwargs):
            results = supervised(group, scratch, **kwargs)
            written.extend(p.name for p in scratch.iterdir())
            return results

        monkeypatch.setattr(daemon_module, "run_group_supervised", recording)
        state = lane_state(tmp_path)
        outcome = state.execute((spec("ensemble", **ENS, seed=35),))
        ok_payloads(outcome)
        assert written  # the supervisor checkpointed under the scratch
        assert state.scratch == tmp_path / "scratch" / "lane0"
        assert list(state.scratch.iterdir()) == []

    def test_a_new_lane_state_clears_what_a_killed_one_left(self, tmp_path):
        left = tmp_path / "scratch" / "lane1" / "abc-1" / "ckpt-0.npz"
        left.parent.mkdir(parents=True)
        left.write_bytes(b"half")
        other = tmp_path / "scratch" / "lane0" / "keep"
        other.parent.mkdir(parents=True)
        other.write_bytes(b"lane 0's")
        lane_state(tmp_path, index=1)
        assert not (tmp_path / "scratch" / "lane1").exists()
        assert other.read_bytes() == b"lane 0's"


# ---------------------------------------------------------------------- #
# lane side: what an OwnedWorker runs
# ---------------------------------------------------------------------- #
class TestLaneEntryPoints:
    def test_lane_state_is_built_only_in_a_lane_process(self, tmp_path,
                                                         monkeypatch):
        monkeypatch.setattr(daemon_module, "_LANE", None)
        with pytest.raises(AssertionError, match="lane process"):
            daemon_module._lane(config(tmp_path))
        assert daemon_module._LANE is None

    def test_an_untraced_group_ships_no_spans(self, tmp_path, monkeypatch):
        state = lane_state(tmp_path)
        monkeypatch.setattr(daemon_module, "_LANE", state)
        outcome = _lane_execute(state.config, (spectrum(12, 10),), False)
        assert isinstance(outcome, GroupOutcome)
        assert outcome.spans == [] and outcome.epoch == 0.0

    def test_a_traced_group_ships_its_spans(self, tmp_path, monkeypatch):
        state = lane_state(tmp_path, index=1)
        monkeypatch.setattr(daemon_module, "_LANE", state)
        outcome = _lane_execute(state.config, (spectrum(13, 10),), True)
        names = [span.name for span in outcome.spans]
        assert "serve.group" in names and "serve.job" in names
        assert "serve.spectrum.groundstate" in names
        group = next(s for s in outcome.spans if s.name == "serve.group")
        assert group.args["lane"] == 1 and group.args["jobs"] == 1
        assert outcome.epoch > 0

    def test_invalidate_drops_one_key_or_every_key(self, tmp_path,
                                                   monkeypatch):
        state = lane_state(tmp_path)
        monkeypatch.setattr(daemon_module, "_LANE", state)
        jobs = [spectrum(seed, 5) for seed in (14, 15, 16)]
        for job in jobs:
            state.execute((job,))
        _lane_invalidate(state.config, warm_key(jobs[0]))
        assert list(state.pool.keys()) == [warm_key(j) for j in jobs[1:]]
        _lane_invalidate(state.config, None)
        assert state.pool.keys() == {}
        (answer,) = state.execute((jobs[0],)).answers
        assert answer[2] == {"warm": False}


# ---------------------------------------------------------------------- #
# daemon side: the _Lane handle and _Group
# ---------------------------------------------------------------------- #
def handle(tmp_path, index=0):
    return _Lane(config(tmp_path, index=index))


def group(*specs):
    return _Group(tuple(specs), ())


def report(lane, keys):
    pool = {"entries": len(keys), "bytes": sum(keys.values()),
            "hits": 2, "misses": 3, "evictions": 1}
    lane.report(pool, dict(keys))
    return pool


class TestLaneHandle:
    def test_a_new_handle_has_no_process_and_holds_nothing(self, tmp_path):
        lane = handle(tmp_path, index=3)
        snapshot = lane.snapshot()
        assert snapshot["lane"] == 3
        assert snapshot["pid"] is None and snapshot["status"] == "stopped"
        assert snapshot["busy"] is False and snapshot["groups"] == 0
        assert snapshot["restarts"] == 0
        assert snapshot["pool"]["entries"] == 0
        assert not lane.idle and not lane.holds("k")
        assert not lane.worker.alive

    def test_only_a_ready_lane_without_a_group_is_idle(self, tmp_path):
        lane = handle(tmp_path)
        for status in ("stopped", "starting", "broken"):
            lane.status = status
            assert not lane.idle, status
        lane.status = "ready"
        assert lane.idle
        lane.group = group(spec("scf", **SCF))
        assert not lane.idle

    def test_a_report_replaces_the_last(self, tmp_path):
        lane = handle(tmp_path)
        report(lane, {"a": 3, "b": 4})
        pool = report(lane, {"c": 5})
        assert lane.keys == {"c": 5} and lane.pool == pool
        assert lane.holds("c") and not lane.holds("a")

    def test_a_report_leaves_out_a_queued_drop_of_its_key(self, tmp_path):
        lane = handle(tmp_path)
        lane.drops.append("a")
        report(lane, {"a": 3, "b": 4})
        assert lane.keys == {"b": 4}
        lane.drops.remove("a")  # the drop landed
        report(lane, {"a": 3, "b": 4})
        assert lane.keys == {"a": 3, "b": 4}

    def test_a_report_leaves_out_every_key_under_a_queued_drop_all(
            self, tmp_path):
        lane = handle(tmp_path)
        lane.drops.extend(["a", None])
        report(lane, {"a": 3, "b": 4, "c": 5})
        assert lane.keys == {}

    def test_forget_counts_what_went(self, tmp_path):
        lane = handle(tmp_path)
        report(lane, {"a": 3, "b": 4, "c": 5})
        assert lane.forget("a") == 1
        assert lane.forget("a") == 0
        assert lane.forget(None) == 2
        assert lane.forget(None) == 0 and lane.keys == {}

    def test_the_snapshot_counts_entries_from_the_report_less_drops(
            self, tmp_path):
        """``stats`` shows a forgotten entry gone at once, while the
        lane's own counters stay as it last reported them."""
        lane = handle(tmp_path)
        report(lane, {"a": 3, "b": 4})
        lane.forget("a")
        pool = lane.snapshot()["pool"]
        assert pool["entries"] == 1 and pool["bytes"] == 4
        assert (pool["hits"], pool["misses"], pool["evictions"]) == (2, 3, 1)

    def test_a_lane_holds_the_key_of_the_group_it_computes(self, tmp_path):
        lane = handle(tmp_path)
        job = spectrum(20, 10)
        lane.group = group(job)
        assert lane.holds(warm_key(job))
        assert not lane.holds(warm_key(spectrum(21, 10)))
        lane.group = None
        assert not lane.holds(warm_key(job))


class TestGroup:
    def test_a_spectrum_group_routes_by_its_warm_key(self):
        jobs = (spectrum(22, 10), spectrum(22, 30))
        g = group(*jobs)
        assert g.key == warm_key(jobs[0]) == warm_key(jobs[1])
        assert g.batch == batch_key(jobs[0])
        assert not g.hung and g.watchdog is None

    @pytest.mark.parametrize("kind, params", [
        ("scf", SCF), ("ensemble", ENS),
        ("run", {"grid": 12, "steps": 1, "n_qd": 2}),
    ])
    def test_other_groups_have_no_warm_key(self, kind, params):
        g = group(spec(kind, **params))
        assert g.key is None
        assert g.batch == batch_key(g.specs[0])

    def test_the_budget_is_the_jobs_deadlines_one_after_another(self):
        g = group(spec("scf", deadline_s=2.5, **SCF),
                  spec("scf", deadline_s=4.0, **SCF))
        assert g.deadline_s == 6.5
        exc = g.expired(40.0)
        assert isinstance(exc, DeadlineExceeded)
        assert "serve.group" in str(exc) and "6.5" in str(exc)


# ---------------------------------------------------------------------- #
# helpers
# ---------------------------------------------------------------------- #
def test_one_lane_per_cpu_the_daemon_may_run_on():
    assert lane_count() == len(os.sched_getaffinity(0))


def test_metrics_sum_counters_and_times():
    metrics = ServeMetrics()
    metrics.bump("groups")
    metrics.bump("spectrum_qd_steps", by=30)
    metrics.time_spent(queue_wait_s=0.25)
    metrics.time_spent(queue_wait_s=0.5, exec_s=2.0)
    snapshot = metrics.snapshot()
    assert snapshot["groups"] == 1 and snapshot["spectrum_qd_steps"] == 30
    assert snapshot["submitted"] == 0
    assert (snapshot["queue_wait_s"], snapshot["exec_s"]) == (0.75, 2.0)
    with pytest.raises(KeyError):
        metrics.bump("no_such_counter")


def test_a_payload_splits_into_arrays_and_scalars():
    payload = {"energy": 1.5, "psi": np.zeros((3, 2)), "tag": "x",
               "evals": np.ones(4, dtype=np.float32)}
    arrays, scalars = _split_payload(payload)
    assert sorted(arrays) == ["evals", "psi"]
    assert scalars == {"energy": 1.5, "tag": "x"}
    assert _payload_nbytes(payload) == 3 * 2 * 8 + 4 * 4
