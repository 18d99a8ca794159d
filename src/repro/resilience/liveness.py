"""Liveness primitives: deadline budgets, retry budgets, circuit breaker.

PR 4's process backend self-heals a SIGKILLed worker, but a *wedged*
worker (deadlocked kernel, livelocked IPC, NFS stall) previously blocked
``map`` forever -- at scale, slow/stuck ranks dominate the failure
distribution, not clean crashes.  This module provides the three
bounded-waiting primitives the rest of the stack builds on:

* :class:`Deadline` / :func:`deadline_scope` / :func:`check_deadline` --
  a wall-clock budget carried on a process-global scope stack.  Hot
  paths call :func:`check_deadline` at natural yield points (between
  executor map items, between dispatch rounds); with no scope armed that
  is one module-global ``None`` check, mirroring the zero-overhead
  discipline of :func:`repro.resilience.faults.fault_point`.  Expiry
  raises :class:`DeadlineExceeded`, which the
  :class:`~repro.resilience.supervisor.RunSupervisor` treats as
  recoverable (restore the newest checkpoint, relax the budget, replay).
* :class:`RetryBudget` -- a total cap on recoveries across a whole run,
  replacing the per-segment-only bound (a run alternating failures
  between segments could previously retry forever).
* :class:`CircuitBreaker` -- trips after ``threshold`` consecutive
  faults without a single completed segment; an open breaker converts
  "retry again" into a fast abort so a persistently failing run stops
  burning allocation instead of looping.

All three are NumPy-free and import nothing from ``repro.core``, so the
executor backends can import them without layering cycles.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional


class DeadlineExceeded(RuntimeError):
    """A deadline-scoped phase overran its wall-clock budget.

    Supervisor-recoverable: the run restores its newest checkpoint and
    replays the segment, optionally with a relaxed budget
    (``SupervisorConfig.deadline_growth``).
    """

    def __init__(self, where: str, budget_s: float, elapsed_s: float) -> None:
        super().__init__(
            f"{where}: exceeded deadline budget of {budget_s:.3g}s "
            f"(elapsed {elapsed_s:.3g}s)"
        )
        self.where = where
        self.budget_s = float(budget_s)
        self.elapsed_s = float(elapsed_s)


class Deadline:
    """One armed wall-clock budget (monotonic-clock based)."""

    def __init__(self, budget_s: float, where: str = "deadline") -> None:
        if budget_s < 0:
            raise ValueError("budget_s must be non-negative")
        self.budget_s = float(budget_s)
        self.where = where
        self.t0 = time.monotonic()

    def elapsed(self) -> float:
        """Seconds since the deadline was armed."""
        return time.monotonic() - self.t0

    def remaining(self) -> float:
        """Seconds left in the budget (negative once expired)."""
        return self.budget_s - self.elapsed()

    @property
    def expired(self) -> bool:
        """Whether the budget has run out."""
        return self.remaining() < 0.0

    def check(self, where: Optional[str] = None) -> None:
        """Raise :class:`DeadlineExceeded` if the budget has run out."""
        elapsed = self.elapsed()
        if elapsed > self.budget_s:
            raise DeadlineExceeded(where or self.where, self.budget_s, elapsed)


#: The armed deadline stack (outermost first).  A plain module global --
#: worker threads of the thread backend must observe the main thread's
#: scope, which thread-local storage would hide.
_SCOPES: List[Deadline] = []


#: Callables told, as each deadline scope arms, the ``time.monotonic()``
#: instant it expires (a watchdog's lease renewals); empty -- the common
#: case -- costs one truthiness check per armed scope.
_WATCHERS: List[Callable[[float], None]] = []


@contextmanager
def watching_deadlines(watcher: Callable[[float], None]) -> Iterator[None]:
    """Call ``watcher(expires_at)`` as each deadline scope in the block arms.

    Every armed scope promises that its block finishes, or raises
    :class:`DeadlineExceeded` at its next check, by ``expires_at``; a
    watchdog that extends a lease to each such instant can tell work
    that keeps arming fresh budgets from work that is hung.
    """
    _WATCHERS.append(watcher)
    try:
        yield
    finally:
        _WATCHERS.remove(watcher)


def active_deadline() -> Optional[Deadline]:
    """The innermost armed deadline, or None (the common case)."""
    if not _SCOPES:
        return None
    return _SCOPES[-1]


def check_deadline(where: str = "work") -> None:
    """Hot-path hook: raise if any armed deadline scope has expired.

    With no scope armed this is one truthiness check on a module global,
    so instrumented loops pay essentially nothing (gated by
    ``BENCH_chaos.json``).
    """
    if not _SCOPES:
        return
    for scope in _SCOPES:
        scope.check(where)


@contextmanager
def deadline_scope(
    budget_s: Optional[float], where: str = "deadline"
) -> Iterator[Optional[Deadline]]:
    """Arm a wall-clock budget for the enclosed block.

    ``budget_s=None`` is a no-op scope (the disarmed fast path), so
    callers can thread an optional budget without branching.  Scopes
    nest; :func:`check_deadline` enforces every armed level, so an inner
    scope can never outlive its enclosing budget.
    """
    if budget_s is None:
        yield None
        return
    scope = Deadline(budget_s, where)
    _SCOPES.append(scope)
    try:
        for watcher in _WATCHERS:
            watcher(scope.t0 + scope.budget_s)
        yield scope
    finally:
        _SCOPES.remove(scope)


class RetryBudget:
    """A total recovery budget across an entire supervised run.

    ``budget=None`` means unbounded (legacy behaviour); otherwise each
    :meth:`consume` spends one retry and returns False once the budget
    is gone, converting an endless heal-fail loop into a clean abort.
    """

    def __init__(self, budget: Optional[int] = None) -> None:
        if budget is not None and budget < 0:
            raise ValueError("retry budget must be non-negative")
        self.budget = budget
        self.spent = 0

    @property
    def remaining(self) -> Optional[int]:
        """Retries left, or None when unbounded."""
        if self.budget is None:
            return None
        return max(0, self.budget - self.spent)

    @property
    def exhausted(self) -> bool:
        """Whether the budget has been fully spent."""
        return self.budget is not None and self.spent >= self.budget

    def consume(self) -> bool:
        """Spend one retry; False when the budget was already exhausted."""
        if self.exhausted:
            return False
        self.spent += 1
        return True


class CircuitBreaker:
    """Consecutive-failure breaker over supervised segments.

    Counts faults since the last *completed* segment; at ``threshold``
    consecutive failures the breaker opens and stays open (the
    supervisor aborts instead of retrying).  ``threshold=0`` disables
    the breaker entirely.  Unlike per-segment ``max_retries``, the
    counter survives segment boundaries, so a run that limps forward
    one step per N failures still trips eventually.
    """

    def __init__(self, threshold: int = 0) -> None:
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.threshold = int(threshold)
        self.consecutive_failures = 0

    @property
    def enabled(self) -> bool:
        """Whether a non-zero threshold was configured."""
        return self.threshold > 0

    @property
    def open(self) -> bool:
        """Whether the breaker has tripped (no further retries allowed)."""
        return self.enabled and self.consecutive_failures >= self.threshold

    def record_failure(self) -> None:
        """Count one fault toward the trip threshold."""
        self.consecutive_failures += 1

    def record_success(self) -> None:
        """A segment completed; reset the consecutive-failure count."""
        self.consecutive_failures = 0
