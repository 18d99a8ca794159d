"""End-to-end determinism: daemon answers == one-shot execution, bitwise.

The acceptance contract of the serving layer: a job routed through the
daemon -- whether it ran alone or coalesced into a batch, whether its
ground state came cold or from the warm pool, whether the answer was
computed or memoized -- is numerically indistinguishable from running
the same workload one-shot (the CLI bodies call the same
``repro.serve.workloads`` functions compared against here).  Every
comparison below is ``np.array_equal`` on the raw float64 arrays, which
is stricter than the <=1e-12 the serving layer promises.

Every test runs twice on a two-lane daemon, each lane a process of its
own: once on lane 0, the first lane the daemon starts, and once on lane
1, started beside it while lane 0 is held inside one gated job, so
every other group goes to lane 1 (its own pool, scratch and process).
The fixture checks, before it releases lane 0, that the groups really
ran on the lane the test names.
"""

from __future__ import annotations

import contextlib
import sys
import threading

import numpy as np
import pytest

import repro.serve.daemon as daemon_module
from repro.ensemble import EnsembleConfig, run_ensemble
from repro.obs import tracing
from repro.serve import BatchPolicy, DaemonHandle, ServeClient, ServeConfig
from repro.serve import workloads
from repro.serve.jobs import validate_job
from tests.serve.lanehooks import break_kinetic, hooked, occupy_lane

ENS = {"ntraj": 6, "nsteps": 20, "nstates": 3, "coupling": 0.3,
       "batch_size": 4}
SCF = {"grid": 8, "norb": 2, "nscf": 1, "ncg": 2}
SPECT = {"grid": 8, "norb": 2, "steps": 30}
RUN = {"grid": 12, "steps": 2, "n_qd": 3, "nscf": 1, "ncg": 2}


@pytest.fixture(scope="module", params=[0, 1], ids=["lane0", "lane1"])
def served(request, tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-diff")
    config = ServeConfig(
        socket_path=root / "serve.sock",
        artifact_root=root / "artifacts",
        scratch_root=root / "scratch",
        policy=BatchPolicy(max_batch=8),
    )
    lane_count = daemon_module.lane_count
    daemon_module.lane_count = lambda: 2
    try:
        with DaemonHandle(config) as handle:
            client = ServeClient(config.socket_path, timeout_s=300)
            with contextlib.ExitStack() as stack:
                if request.param == 1:
                    stack.enter_context(occupy_lane(handle, client))
                handle.lane = request.param
                yield handle, client
                lane0, lane1 = handle.daemon.stats()["lanes"]
            if request.param == 0:
                assert lane0["groups"] and lane1["status"] == "stopped"
            else:  # lane 0 was still inside its held group
                assert lane0["busy"] and lane0["groups"] == 0
                assert lane1["groups"] and lane1["pid"] != lane0["pid"]
    finally:
        daemon_module.lane_count = lane_count


def canonical(kind, params):
    """The fully-defaulted parameter dict the daemon will execute."""
    return validate_job({"kind": kind, "params": dict(params)}).params


def ensemble_reference(params):
    full = canonical("ensemble", params)
    path = workloads.ensemble_path(full)
    istate = full["istate"]
    result = run_ensemble(path, EnsembleConfig(
        ntraj=int(full["ntraj"]),
        seed=int(full["seed"]),
        istate=(int(full["nstates"]) - 1 if istate is None else int(istate)),
        batch_size=full["batch_size"],
        substeps=int(full["substeps"]),
    ))
    return workloads.ensemble_payload(result)


def assert_payloads_bitwise_equal(got, want):
    assert set(got) == set(want)
    for name, ref in want.items():
        if isinstance(ref, np.ndarray):
            assert got[name].dtype == ref.dtype, name
            assert np.array_equal(got[name], ref), name
        else:
            assert got[name] == ref, name


class TestEnsemble:
    def test_a_default_group_is_one_stacked_sweep(self, served):
        """A coalesced 3 x 16 group runs as one task in one round, and
        answers what explicit widths 8 and 32 and one-shot runs answer,
        byte for byte."""
        _, client = served
        sweep = {**ENS, "ntraj": 16}
        del sweep["batch_size"]
        seeds = (61, 62, 63)

        def submit(**extra):
            return client.submit([
                {"kind": "ensemble", "memoize": False,
                 "params": {**sweep, **extra, "seed": seed}}
                for seed in seeds])

        with tracing() as tracer:
            default = submit()
        rounds = [r.args for r in tracer.records
                  if r.name == "ensemble.round" and r.args["ntraj"] == 48]
        assert [(a["batches"], a["members"]) for a in rounds] == [(1, 3)]
        assert [r["meta"]["coalesced"] for r in default] == [3, 3, 3]
        for width in (8, 32):
            for got, want in zip(default, submit(batch_size=width)):
                assert_payloads_bitwise_equal(got["result"], want["result"])
        for got, seed in zip(default, seeds):
            assert_payloads_bitwise_equal(
                got["result"], ensemble_reference({**sweep, "seed": seed}))

    def test_singleton_equals_one_shot(self, served):
        _, client = served
        got = client.run_job("ensemble", {**ENS, "seed": 41})
        assert_payloads_bitwise_equal(
            got, ensemble_reference({**ENS, "seed": 41})
        )

    def test_coalesced_batch_equals_each_one_shot(self, served):
        """Jobs that share one stacked execution still answer exactly
        what each would have answered alone."""
        _, client = served
        responses = client.submit([
            {"kind": "ensemble", "params": {**ENS, "seed": 51}},
            {"kind": "ensemble", "params": {**ENS, "seed": 52, "ntraj": 3}},
            {"kind": "ensemble", "params": {**ENS, "seed": 53, "istate": 0}},
        ])
        assert all(r["status"] == "ok" for r in responses)
        assert responses[0]["meta"]["coalesced"] == 3
        for response, params in zip(responses, (
            {**ENS, "seed": 51},
            {**ENS, "seed": 52, "ntraj": 3},
            {**ENS, "seed": 53, "istate": 0},
        )):
            assert_payloads_bitwise_equal(
                response["result"], ensemble_reference(params)
            )


class TestScf:
    def test_cold_and_warm_equal_one_shot(self, served):
        from repro.qxmd.scf import scf_solve_batch

        _, client = served
        full = canonical("scf", SCF)
        (result,) = scf_solve_batch([workloads.scf_task(full)])
        want = workloads.scf_payload(result)

        cold = client.submit([{"kind": "scf", "params": dict(SCF),
                               "memoize": False}])
        warm = client.submit([{"kind": "scf", "params": dict(SCF),
                               "memoize": False}])
        assert cold[0]["meta"]["warm"] is False
        assert warm[0]["meta"]["warm"] is True
        assert_payloads_bitwise_equal(cold[0]["result"], want)
        assert_payloads_bitwise_equal(warm[0]["result"], want)


class TestSpectrum:
    def test_cold_and_warm_equal_one_shot(self, served):
        _, client = served
        full = canonical("spectrum", SPECT)
        gs = workloads.spectrum_ground_state(full)
        want = workloads.spectrum_payload(gs, full)

        cold = client.submit([{"kind": "spectrum", "params": dict(SPECT),
                               "memoize": False}])
        warm = client.submit([{"kind": "spectrum", "params": dict(SPECT),
                               "memoize": False}])
        assert cold[0]["meta"]["warm"] is False
        assert warm[0]["meta"]["warm"] is True
        assert_payloads_bitwise_equal(cold[0]["result"], want)
        assert_payloads_bitwise_equal(warm[0]["result"], want)

    def test_recorded_propagation_equals_one_shot(self, served):
        """Each job reads its prefix of the ground state's one kicked
        propagation, extended only past its end."""
        handle, client = served
        before = qd_steps(handle)
        first = client.submit([spectrum_job(41, 40), spectrum_job(41, 25)])
        later = [client.submit([spectrum_job(41, steps)])[0]
                 for steps in (60, 10)]
        for response, steps in zip(first + later, (40, 25, 60, 10)):
            assert response["status"] == "ok", response
            assert_payloads_bitwise_equal(response["result"],
                                          spectrum_reference(41, steps))
        assert qd_steps(handle) - before == 60

    def test_expired_deadline_keeps_the_record(self, served):
        """A job whose deadline expires mid-extension fails typed; the
        steps it took stay recorded for the next job to continue."""
        handle, client = served
        before = qd_steps(handle)
        client.submit([spectrum_job(42, 20)])
        expired = client.submit([{**spectrum_job(42, 500),
                                  "deadline_s": 1e-6}])[0]
        assert expired["status"] == "error"
        assert expired["error"]["type"] == "DeadlineExceeded"
        (after,) = client.submit([spectrum_job(42, 40)])
        assert_payloads_bitwise_equal(after["result"],
                                      spectrum_reference(42, 40))
        # 20 steps, the one step the expired job recorded, then 19 more.
        assert qd_steps(handle) - before == 40

    def test_failed_step_resets_the_record(self, served):
        """An exception inside a QD step discards the half-stepped
        orbitals: the next job restarts from the pre-kick state."""
        handle, client = served
        client.submit([spectrum_job(43, 20)])
        with hooked(handle.daemon._lanes[handle.lane], break_kinetic):
            failed = client.submit([spectrum_job(43, 50)])[0]
        assert failed["status"] == "error"
        assert failed["error"]["type"] == "RuntimeError"
        (after,) = client.submit([spectrum_job(43, 30)])
        assert_payloads_bitwise_equal(after["result"],
                                      spectrum_reference(43, 30))

    def test_concurrent_callers_share_one_record(self):
        """Threads extending one ground state's record at once (more
        threads than cores, frequent switches) still get exact answers."""
        full = canonical("spectrum", {**SPECT, "seed": 44})
        gs = workloads.spectrum_ground_state(full)
        plan = [[30, 12, 45], [45, 20, 8], [18, 50, 30], [50, 9, 25],
                [25, 40, 12], [8, 30, 50]]
        answers = {}
        errors = []

        def caller(i, steps_list):
            try:
                for steps in steps_list:
                    answers[i, steps] = workloads.spectrum_payload(
                        gs, {**full, "steps": steps})
            except BaseException as exc:  # noqa: BLE001 -- re-raised below
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(i, steps))
                       for i, steps in enumerate(plan)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert gs.propagated_steps == 50
        assert len(answers) == 18
        want = {steps: spectrum_reference(44, steps)
                for steps in {steps for _, steps in answers}}
        for (_, steps), got in answers.items():
            assert_payloads_bitwise_equal(got, want[steps])


def spectrum_job(seed, steps):
    """An unmemoized spectrum job, so every answer is computed."""
    return {"kind": "spectrum", "memoize": False,
            "params": {**SPECT, "seed": seed, "steps": steps}}


def spectrum_reference(seed, steps):
    """The one-shot answer, from a fresh ground state."""
    full = canonical("spectrum", {**SPECT, "seed": seed, "steps": steps})
    return workloads.spectrum_payload(workloads.spectrum_ground_state(full),
                                      full)


def qd_steps(handle):
    return handle.daemon.stats()["metrics"]["spectrum_qd_steps"]


class TestRun:
    def test_full_simulation_equals_one_shot(self, served, tmp_path):
        _, client = served
        full = canonical("run", RUN)
        want = workloads.run_payload(full, supervise_dir=tmp_path / "ck")
        got = client.run_job("run", dict(RUN))
        assert_payloads_bitwise_equal(got, want)


class TestMemoizedWire:
    def test_resubmission_is_bit_identical_on_the_wire(self, served):
        """A memo hit replays the stored arrays through the same codec:
        the encoded response payload (base64'd .npy blobs included) is
        byte-for-byte the first answer."""
        _, client = served
        job = {"kind": "ensemble", "params": {**ENS, "seed": 61}}
        first = client.submit([dict(job)], decode=False)
        again = client.submit([dict(job)], decode=False)
        assert first[0]["meta"]["memoized"] is False
        assert again[0]["meta"]["memoized"] is True
        assert again[0]["result"] == first[0]["result"]
