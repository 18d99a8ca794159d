"""Liveness primitives: deadlines, retry budgets, circuit breaker.

Unit-level behaviour of :mod:`repro.resilience.liveness`, the
executor-side deadline enforcement (serial and thread backends), and
the supervisor-level policy built on top: deadline faults recover via
checkpoint restore, relaxed budgets grow geometrically, the run-wide
retry budget converts endless heal-fail loops into clean aborts, and
the breaker trips on consecutive faults.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.mesh import DCMESHConfig, DCMESHSimulation
from repro.core.timescale import TimescaleSplit
from repro.grids.grid import Grid3D
from repro.parallel.backends import SerialBackend, ThreadBackend
from repro.pseudo.elements import get_species
from repro.resilience.faults import FaultPlan, FaultSpec, armed, disarm
from repro.resilience.liveness import (
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    RetryBudget,
    _SCOPES,
    active_deadline,
    check_deadline,
    deadline_scope,
    watching_deadlines,
)
from repro.resilience.supervisor import (
    RECOVERABLE,
    RunSupervisor,
    SupervisorAbort,
    SupervisorConfig,
)


@pytest.fixture(autouse=True)
def _always_disarmed():
    disarm()
    yield
    disarm()


def _make_sim(executor=None) -> DCMESHSimulation:
    grid = Grid3D((12, 12, 12), (0.6,) * 3)
    L = grid.lengths[0]
    positions = np.array([[L / 4, L / 2, L / 2], [3 * L / 4, L / 2, L / 2]])
    species = [get_species("H"), get_species("H")]
    config = DCMESHConfig(
        timescale=TimescaleSplit(dt_md=2.0, n_qd=4),
        nscf=1, ncg=1, norb_extra=1, seed=42,
    )
    return DCMESHSimulation(
        grid, (2, 1, 1), positions, species,
        config=config, buffer_width=2, executor=executor,
    )


class TestDeadline:
    def test_fresh_deadline_not_expired(self):
        d = Deadline(60.0, "unit")
        assert not d.expired
        assert 0.0 <= d.elapsed() < 1.0
        assert d.remaining() > 59.0
        d.check()  # must not raise

    def test_zero_budget_expires_immediately(self):
        d = Deadline(0.0, "unit")
        time.sleep(0.005)
        assert d.expired
        with pytest.raises(DeadlineExceeded) as ei:
            d.check("somewhere")
        assert ei.value.where == "somewhere"
        assert ei.value.budget_s == 0.0
        assert ei.value.elapsed_s > 0.0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_check_deadline_noop_when_disarmed(self):
        assert active_deadline() is None
        check_deadline("anywhere")  # must not raise

    def test_scope_arms_and_disarms(self):
        assert not _SCOPES
        with deadline_scope(60.0, "outer") as scope:
            assert active_deadline() is scope
            check_deadline("inside")
        assert not _SCOPES
        assert active_deadline() is None

    def test_none_budget_is_noop_scope(self):
        with deadline_scope(None) as scope:
            assert scope is None
            assert active_deadline() is None

    def test_expired_scope_raises_via_check(self):
        with deadline_scope(0.0, "tight"):
            time.sleep(0.005)
            with pytest.raises(DeadlineExceeded):
                check_deadline("loop")
        assert not _SCOPES  # unwound despite the raise

    def test_nested_scopes_enforce_outer_budget(self):
        """An inner scope can never outlive its enclosing budget."""
        with deadline_scope(0.0, "outer"):
            time.sleep(0.005)
            with deadline_scope(60.0, "inner"):
                with pytest.raises(DeadlineExceeded) as ei:
                    check_deadline("nested")
        assert ei.value.budget_s == 0.0

    def test_scope_removed_even_if_body_raises(self):
        with pytest.raises(RuntimeError):
            with deadline_scope(60.0):
                raise RuntimeError("boom")
        assert not _SCOPES

    def test_watchers_hear_each_armed_scope_expiry(self):
        heard = []
        with watching_deadlines(heard.append):
            with deadline_scope(None):
                pass
            before = time.monotonic()
            with deadline_scope(60.0, "outer") as outer:
                with deadline_scope(5.0, "inner") as inner:
                    pass
        with deadline_scope(1.0):
            pass  # no longer watched
        assert heard == [outer.t0 + 60.0, inner.t0 + 5.0]
        assert before <= outer.t0 <= inner.t0


class TestRetryBudget:
    def test_unbounded_never_exhausts(self):
        b = RetryBudget(None)
        for _ in range(100):
            assert b.consume()
        assert b.remaining is None
        assert not b.exhausted

    def test_bounded_budget_exhausts(self):
        b = RetryBudget(2)
        assert b.consume()
        assert b.consume()
        assert b.exhausted
        assert not b.consume()
        assert b.remaining == 0

    def test_zero_budget_refuses_immediately(self):
        b = RetryBudget(0)
        assert not b.consume()

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            RetryBudget(-1)


class TestCircuitBreaker:
    def test_disabled_breaker_never_opens(self):
        cb = CircuitBreaker(0)
        assert not cb.enabled
        for _ in range(50):
            cb.record_failure()
        assert not cb.open

    def test_opens_at_threshold(self):
        cb = CircuitBreaker(3)
        cb.record_failure()
        cb.record_failure()
        assert not cb.open
        cb.record_failure()
        assert cb.open

    def test_success_resets_consecutive_count(self):
        cb = CircuitBreaker(2)
        cb.record_failure()
        cb.record_success()
        cb.record_failure()
        assert not cb.open

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            CircuitBreaker(-1)


def _slow_item(x):
    time.sleep(0.05)
    return x


class TestExecutorDeadlines:
    def test_serial_map_raises_on_expired_deadline(self):
        with SerialBackend(seed=0) as ex:
            with deadline_scope(0.02, "serial-test"):
                with pytest.raises(DeadlineExceeded):
                    ex.map(_slow_item, list(range(50)), label="slowmap")

    def test_thread_map_raises_on_expired_deadline(self):
        with ThreadBackend(workers=2, seed=0) as ex:
            with deadline_scope(0.02, "thread-test"):
                with pytest.raises(DeadlineExceeded):
                    ex.map(_slow_item, list(range(50)), label="slowmap")

    def test_maps_unaffected_by_generous_deadline(self):
        for ex_cls in (SerialBackend, ThreadBackend):
            with ex_cls(seed=0) as ex:
                with deadline_scope(60.0):
                    assert ex.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]


class TestSupervisorPolicy:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SupervisorConfig(deadline_s=0.0)
        with pytest.raises(ValueError):
            SupervisorConfig(deadline_growth=0.5)
        with pytest.raises(ValueError):
            SupervisorConfig(retry_budget=-1)
        with pytest.raises(ValueError):
            SupervisorConfig(breaker_threshold=-1)

    def test_deadline_exceeded_is_recoverable(self):
        assert DeadlineExceeded in RECOVERABLE

    def test_deadline_fault_recovers_and_relaxes(self, tmp_path):
        """A too-tight segment budget fails once, relaxes, and finishes."""
        ref = _make_sim()
        ref_records = ref.run(2)

        sim = _make_sim()
        sup = RunSupervisor(sim, tmp_path, SupervisorConfig(
            checkpoint_every=1, deadline_s=1e-4, deadline_growth=1e6,
        ))
        records = sup.run(2)
        assert sup.log.count("deadline_relaxed") >= 1
        assert sup.deadline_s > sup.config.deadline_s
        faults = [e for e in sup.log.events if e["event"] == "fault"]
        assert any(e["error"] == "DeadlineExceeded" for e in faults)
        np.testing.assert_allclose(
            [r.band_energy for r in records],
            [r.band_energy for r in ref_records],
            rtol=0.0, atol=1e-12,
        )

    def test_retry_budget_exhaustion_aborts(self, tmp_path):
        """Faults alternating across segments beat per-segment retries
        but not the run-wide budget."""
        sim = _make_sim()
        sup = RunSupervisor(sim, tmp_path, SupervisorConfig(
            checkpoint_every=1, max_retries=10, retry_budget=1,
            deadline_growth=1.0, deadline_s=1e-4,
        ))
        with pytest.raises(SupervisorAbort, match="retry budget"):
            sup.run(2)
        assert sup.log.count("retry_budget_exhausted") == 1
        assert sup.retry_budget.exhausted

    def test_breaker_trips_on_consecutive_faults(self, tmp_path):
        sim = _make_sim()
        sup = RunSupervisor(sim, tmp_path, SupervisorConfig(
            checkpoint_every=1, max_retries=10, breaker_threshold=2,
            deadline_growth=1.0, deadline_s=1e-4,
        ))
        with pytest.raises(SupervisorAbort, match="breaker"):
            sup.run(2)
        assert sup.log.count("breaker_open") == 1
        assert sup.breaker.open

    def test_breaker_resets_on_completed_segment(self, tmp_path):
        """One fault per *completed* segment never trips a breaker of 2."""
        sim = _make_sim()
        sup = RunSupervisor(sim, tmp_path, SupervisorConfig(
            checkpoint_every=1, breaker_threshold=2,
        ))
        # One scf_diverge arrival per MD step; replays re-arrive.  The
        # timeline is s1:0 ok / s2:1 FAULT / s2:2 ok / s3:3 FAULT /
        # s3:4 ok -- two faults, each followed by a completed segment.
        plan = FaultPlan([
            FaultSpec("qxmd.scf_diverge", at_call=1),
            FaultSpec("qxmd.scf_diverge", at_call=3),
        ])
        with armed(plan):
            sup.run(3)
        assert plan.fired
        assert sup.total_retries == 2
        assert not sup.breaker.open
