"""RunSupervisor: fault-tolerant execution of DC-MESH trajectories.

The supervisor wraps a :class:`~repro.core.mesh.DCMESHSimulation` and
runs it in checkpointed *segments* of ``checkpoint_every`` MD steps.
When a segment raises a recoverable fault -- a numerical health guard
(:mod:`repro.resilience.guards`), a device OOM, a simulated rank
failure, or a corrupt checkpoint -- the supervisor:

1. records a structured JSON event (fault class, message, step, retry
   count, wall time) and counts it in a :class:`~repro.perf.CounterSet`;
2. backs off exponentially in the retry count (``backoff_base`` seconds,
   0 disables sleeping -- the default for tests);
3. optionally degrades gracefully on repeated numerical divergence by
   halving ``dt_md`` or doubling ``n_qd`` (both halve the electronic
   sub-step);
4. restores the newest *verified* checkpoint, falling back to the
   previous generation when the newest fails its integrity check;
5. replays the segment, up to ``max_retries`` times before raising
   :class:`SupervisorAbort`.

Checkpoints are written with the hardened atomic/digest/rotating writer
of :mod:`repro.resilience.checkpointing`, so a crash mid-write or bit
rot on disk degrades a run instead of ending it.
"""

from __future__ import annotations

import errno
import json
import pathlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Protocol, Union

from repro.core.mesh import MDStepRecord
from repro.core.timescale import TimescaleSplit
from repro.device.allocator import DeviceMemoryError
from repro.obs import trace_span
from repro.perf.counters import CounterSet
from repro.resilience.checkpointing import (
    _CKPT_RE,
    CheckpointCorruptError,
    list_checkpoints,
    restore_newest_verified,
    write_checkpoint,
)
from repro.resilience.faults import RankFailure, fault_point
from repro.resilience.guards import (
    GuardConfig,
    HealthGuard,
    NumericalHealthError,
)
from repro.resilience.liveness import (
    CircuitBreaker,
    DeadlineExceeded,
    RetryBudget,
    deadline_scope,
)

#: Exception classes the supervisor retries from a checkpoint.
RECOVERABLE = (
    NumericalHealthError,
    DeviceMemoryError,
    RankFailure,
    CheckpointCorruptError,
    DeadlineExceeded,
)


class SupervisorAbort(RuntimeError):
    """Raised when recovery is exhausted (retries or checkpoints ran out)."""


class SupervisableRun(Protocol):
    """Structural contract of a run the supervisor can drive.

    :class:`~repro.core.mesh.DCMESHSimulation` satisfies it natively;
    the trajectory-ensemble engine's
    :class:`~repro.ensemble.engine.EnsembleRun` satisfies it by treating
    one batch *round* as one "MD step" (plus ``save_state``/``load_state``
    methods that route its partial-ensemble schema through the
    checkpoint writer).  ``config`` only needs a ``timescale`` attribute
    when ``degrade_mode`` is enabled.
    """

    step_count: int
    time: float
    config: Any
    history: List[Any]
    health_guard: Any

    def md_step(self) -> Any:
        """Advance the run by one supervisable unit of work."""
        ...


@dataclass
class SupervisorConfig:
    """Checkpoint cadence, retry policy and degradation knobs.

    Attributes
    ----------
    checkpoint_every:
        MD steps per checkpointed segment (the paper's production runs
        checkpoint every few hundred of their ~50k steps).
    max_retries:
        Consecutive failed replays of one segment before aborting.
    keep_checkpoints:
        Checkpoint generations retained by the rotation.
    backoff_base:
        Base of the exponential retry backoff in seconds
        (``backoff_base * 2**(retry-1)``); 0 disables sleeping.
    degrade_after:
        Retry count at which graceful degradation kicks in (only for
        numerical-health faults).
    degrade_mode:
        ``"none"``, ``"halve_dt"`` (halve ``dt_md``) or ``"double_nqd"``
        (double ``n_qd``); both halve the electronic sub-step.
    log_path:
        Optional JSON-lines file receiving every event as it happens.
    guard:
        Tolerances/cadence of the installed :class:`HealthGuard`.
    deadline_s:
        Wall-clock budget per checkpointed segment (seconds).  An
        over-budget segment raises
        :class:`~repro.resilience.liveness.DeadlineExceeded`, which is
        recovered like any other fault; ``None`` (default) disarms the
        budget entirely.
    deadline_growth:
        Multiplier applied to the segment budget after each deadline
        fault (>= 1), so a budget that was merely too tight relaxes
        instead of failing the same way forever.
    retry_budget:
        Total recoveries allowed across the whole run (all segments
        combined); ``None`` keeps the legacy per-segment-only bound.
    breaker_threshold:
        Consecutive faults without one completed segment that trip the
        circuit breaker into a fast :class:`SupervisorAbort`; 0 (the
        default) disables the breaker.
    """

    checkpoint_every: int = 5
    max_retries: int = 3
    keep_checkpoints: int = 3
    backoff_base: float = 0.0
    degrade_after: int = 2
    degrade_mode: str = "none"
    log_path: Optional[Union[str, pathlib.Path]] = None
    guard: GuardConfig = field(default_factory=GuardConfig)
    deadline_s: Optional[float] = None
    deadline_growth: float = 2.0
    retry_budget: Optional[int] = None
    breaker_threshold: int = 0

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.keep_checkpoints < 1:
            raise ValueError("keep_checkpoints must be at least 1")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be non-negative")
        if self.degrade_after < 1:
            raise ValueError("degrade_after must be at least 1")
        if self.degrade_mode not in ("none", "halve_dt", "double_nqd"):
            raise ValueError(
                "degrade_mode must be 'none', 'halve_dt' or 'double_nqd'"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")
        if self.deadline_growth < 1.0:
            raise ValueError("deadline_growth must be at least 1")
        if self.retry_budget is not None and self.retry_budget < 0:
            raise ValueError("retry_budget must be non-negative (or None)")
        if self.breaker_threshold < 0:
            raise ValueError("breaker_threshold must be non-negative")


class ResilienceLog:
    """Structured event log backed by the perf counter machinery.

    Every event is a plain dict (JSON-serializable); event kinds are
    additionally tallied in a :class:`CounterSet` under ``event.<kind>``
    so existing perf reporting sees resilience activity for free.

    The file mirror is best-effort: a failed append (ENOSPC, permission
    loss, or the ``eventlog.enospc`` fault site) records a
    ``log_write_failed`` event and disables mirroring rather than
    killing the run -- losing telemetry must never lose physics.  The
    in-memory list stays complete either way, and
    :func:`read_event_log` tolerates torn trailing lines on readback.
    """

    def __init__(self, path: Optional[Union[str, pathlib.Path]] = None) -> None:
        self.path = pathlib.Path(path) if path is not None else None
        self.events: List[Dict] = []
        self.counters = CounterSet()
        self._t0 = time.perf_counter()
        self._mirror = self.path is not None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text("")

    def _mirror_line(self, event: Dict) -> None:
        """Best-effort append of one JSON line to the mirror file."""
        assert self.path is not None
        line = json.dumps(event) + "\n"
        spec = fault_point("eventlog.torn_write")
        if spec is not None:
            keep = float(spec.payload.get("keep_fraction", 0.5))
            line = line[: max(0, int(len(line) * keep))]
        try:
            if fault_point("eventlog.enospc") is not None:
                raise OSError(errno.ENOSPC,
                              "No space left on device (injected fault)",
                              str(self.path))
            with open(self.path, "a") as fh:
                fh.write(line)
        except OSError as exc:
            self._mirror = False
            self.record("log_write_failed", path=str(self.path),
                        error=str(exc))

    def record(self, kind: str, **fields: object) -> Dict:
        """Append one event; mirrors it to the JSON-lines file if set."""
        event = {"event": kind, "wall_time": time.perf_counter() - self._t0}
        event.update(fields)
        self.events.append(event)
        self.counters.add(f"event.{kind}", 0.0, 0.0)
        if self._mirror and self.path is not None:
            self._mirror_line(event)
        return event

    def count(self, kind: str) -> int:
        """Number of events of one kind recorded so far."""
        return self.counters.calls.get(f"event.{kind}", 0)

    def to_json(self) -> str:
        """The full event list as a JSON array."""
        return json.dumps(self.events, indent=1)


def read_event_log(path: Union[str, pathlib.Path]) -> List[Dict]:
    """Parse a JSON-lines resilience log, skipping torn/corrupt lines.

    A crash mid-append leaves a truncated final line (and the next
    append may concatenate onto it); such lines fail to decode and are
    dropped instead of failing the whole readback.  A missing file reads
    as an empty log.
    """
    p = pathlib.Path(path)
    out: List[Dict] = []
    if not p.exists():
        return out
    for line in p.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn by a mid-write crash; the survivors stand
        if isinstance(event, dict):
            out.append(event)
    return out


class RunSupervisor:
    """Checkpointed, self-healing driver around one DC-MESH simulation."""

    def __init__(
        self,
        sim: SupervisableRun,
        checkpoint_dir: Union[str, pathlib.Path],
        config: Optional[SupervisorConfig] = None,
    ) -> None:
        self.sim = sim
        self.checkpoint_dir = pathlib.Path(checkpoint_dir)
        self.config = config if config is not None else SupervisorConfig()
        self.guard = HealthGuard(self.config.guard)
        sim.health_guard = self.guard
        self.log = ResilienceLog(self.config.log_path)
        self.total_retries = 0
        #: Run-wide recovery budget (None budget = unbounded).
        self.retry_budget = RetryBudget(self.config.retry_budget)
        #: Consecutive-fault breaker (threshold 0 = disabled).
        self.breaker = CircuitBreaker(self.config.breaker_threshold)
        #: Live per-segment deadline; grows by ``deadline_growth`` after
        #: every deadline fault, so it can exceed ``config.deadline_s``.
        self.deadline_s = self.config.deadline_s

    # ------------------------------------------------------------------ #
    def _checkpoint(self) -> None:
        with trace_span("checkpoint.write", "checkpoint",
                        step=self.sim.step_count):
            path = write_checkpoint(
                self.sim, self.checkpoint_dir, keep=self.config.keep_checkpoints
            )
        self.log.record(
            "checkpoint", step=self.sim.step_count, path=str(path.name)
        )

    def _backoff(self, retry: int) -> float:
        delay = self.config.backoff_base * (2.0 ** (retry - 1))
        if delay > 0:
            time.sleep(delay)
        return delay

    def _maybe_degrade(self, retry: int, exc: Exception) -> None:
        cfg = self.config
        if cfg.degrade_mode == "none" or retry < cfg.degrade_after:
            return
        if not isinstance(exc, NumericalHealthError):
            return
        ts = self.sim.config.timescale
        if cfg.degrade_mode == "halve_dt":
            new_ts = TimescaleSplit(dt_md=ts.dt_md / 2.0, n_qd=ts.n_qd)
        else:
            new_ts = TimescaleSplit(dt_md=ts.dt_md, n_qd=ts.n_qd * 2)
        self.sim.config.timescale = new_ts
        self.log.record(
            "degrade",
            mode=cfg.degrade_mode,
            dt_md=new_ts.dt_md,
            n_qd=new_ts.n_qd,
            dt_qd=new_ts.dt_qd,
        )

    def _restore(self) -> None:
        """Load the newest verified checkpoint, falling back on corruption."""
        with trace_span("checkpoint.restore", "checkpoint"):
            self._restore_inner()

    def _restore_inner(self) -> None:
        try:
            path, meta, skipped = restore_newest_verified(
                self.sim, self.checkpoint_dir
            )
        except CheckpointCorruptError as exc:
            raise SupervisorAbort(str(exc)) from exc
        for bad, error in skipped:
            self.log.record(
                "corrupt_checkpoint", path=str(bad.name), error=str(error)
            )
        # Drop history beyond the restored step so records stay
        # consistent with the replayed trajectory.
        self.sim.history[:] = [
            r for r in self.sim.history if r.step <= self.sim.step_count
        ]
        self.guard.reset_energy_reference()
        self.log.record(
            "restore", step=self.sim.step_count, path=str(path.name),
            checkpoint_time=meta["time"],
        )

    # ------------------------------------------------------------------ #
    def run(self, nsteps: int) -> List[MDStepRecord]:
        """Advance ``nsteps`` MD steps with checkpointing and recovery.

        Returns the records of the steps taken by this call (replayed
        segments appear once, with their final successful values).
        """
        if nsteps < 0:
            raise ValueError("nsteps must be non-negative")
        sim = self.sim
        cfg = self.config
        start_step = sim.step_count
        target = start_step + nsteps
        # Record the tuned parameters this run executes under: replayed
        # segments restore checkpoints that carry the same profile, so
        # the log documents what a resume will replay.
        from repro.tuning.profile import get_active_profile

        profile = get_active_profile()
        self.log.record(
            "tuning_profile",
            source=profile.source,
            tuned=list(profile.tuned_ids),
        )
        # Prune generations from a previous run of this directory that lie
        # ahead of the current trajectory: restoring one would teleport the
        # simulation into a *different* run's future.
        for path in list_checkpoints(self.checkpoint_dir):
            step = int(_CKPT_RE.match(path.name).group(1))
            if step > start_step:
                path.unlink()
                self.log.record(
                    "stale_checkpoint", path=str(path.name), step=step
                )
        if not list_checkpoints(self.checkpoint_dir):
            self._checkpoint()  # generation 0: the pre-run state
        retries = 0
        while sim.step_count < target:
            seg_end = min(sim.step_count + cfg.checkpoint_every, target)
            try:
                with trace_span("supervisor.segment", "md",
                                start=sim.step_count, end=seg_end,
                                deadline_s=self.deadline_s):
                    with deadline_scope(self.deadline_s,
                                        f"supervisor.segment@{seg_end}"):
                        while sim.step_count < seg_end:
                            sim.md_step()
                    self._checkpoint()
                retries = 0
                self.breaker.record_success()
            except RECOVERABLE as exc:
                retries += 1
                self.total_retries += 1
                self.breaker.record_failure()
                self.log.record(
                    "fault",
                    error=type(exc).__name__,
                    message=str(exc),
                    step=sim.step_count,
                    retry=retries,
                )
                if retries > cfg.max_retries:
                    self.log.record(
                        "abort", step=sim.step_count, retries=retries
                    )
                    raise SupervisorAbort(
                        f"segment ending at step {seg_end} failed "
                        f"{retries} time(s): {exc}"
                    ) from exc
                if not self.retry_budget.consume():
                    self.log.record(
                        "retry_budget_exhausted",
                        step=sim.step_count,
                        budget=cfg.retry_budget,
                    )
                    raise SupervisorAbort(
                        f"run-wide retry budget of {cfg.retry_budget} "
                        f"recoveries exhausted at step {sim.step_count}: {exc}"
                    ) from exc
                if self.breaker.open:
                    self.log.record(
                        "breaker_open",
                        step=sim.step_count,
                        consecutive=self.breaker.consecutive_failures,
                        threshold=cfg.breaker_threshold,
                    )
                    raise SupervisorAbort(
                        f"circuit breaker open after "
                        f"{self.breaker.consecutive_failures} consecutive "
                        f"fault(s) without a completed segment: {exc}"
                    ) from exc
                if (isinstance(exc, DeadlineExceeded)
                        and self.deadline_s is not None
                        and cfg.deadline_growth > 1.0):
                    relaxed = self.deadline_s * cfg.deadline_growth
                    self.log.record(
                        "deadline_relaxed",
                        budget_s=self.deadline_s,
                        new_budget_s=relaxed,
                    )
                    self.deadline_s = relaxed
                with trace_span("supervisor.recover", "md", retry=retries):
                    t0 = time.perf_counter()
                    delay = self._backoff(retries)
                    self._maybe_degrade(retries, exc)
                    try:
                        self._restore()
                    finally:
                        recovery_s = time.perf_counter() - t0
                self.log.record(
                    "recovered",
                    step=sim.step_count,
                    retry=retries,
                    backoff_s=delay,
                    recovery_s=recovery_s,
                )
        return [r for r in sim.history if r.step > start_step]
