"""Deterministic, seeded fault injection for resilience testing.

Production DC-MESH trajectories run for thousands of MD steps on
hundreds of nodes, where SCF divergence, NaN-poisoned orbitals, device
out-of-memory bursts, dropped messages and failed ranks are routine.
None of those failure paths can be tested unless they can be *provoked*
on demand, reproducibly.  This module provides that: named fault sites
are wired into the hot paths (``qxmd.scf``, ``lfd.propagator``,
``device.allocator``, ``parallel.comm``, checkpoint writing) and stay
no-ops unless a :class:`FaultPlan` is armed, so the fault-free path is a
single module-global ``None`` check.

A plan is fully deterministic: each site keeps an arrival counter and a
spec fires on an exact call index (``at_call``/``count``) or, for soak
testing, with a seeded per-arrival probability.  Two runs with the same
plan and the same workload observe the same faults.

Usage::

    from repro.resilience.faults import FaultPlan, FaultSpec, armed

    plan = FaultPlan([FaultSpec("lfd.nan", at_call=7)])
    with armed(plan):
        supervisor.run(100)      # QD sub-step 7 is NaN-poisoned
    assert plan.fired == [("lfd.nan", 7)]
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np


class RankFailure(RuntimeError):
    """An injected (or detected) failure of one simulated MPI rank."""

    def __init__(self, rank: int, op: str = "collective") -> None:
        super().__init__(f"rank {rank} failed during {op}")
        self.rank = int(rank)
        self.op = op


#: Every fault site wired into the codebase.  Plans naming an unknown
#: site fail fast at construction instead of silently never firing.
KNOWN_SITES: Tuple[str, ...] = (
    "qxmd.scf_diverge",    # GlobalDCSolver / scf_solve SCF iteration
    "lfd.nan",             # QDPropagator.step orbital poisoning
    "device.oom",          # DeviceAllocator.allocate OOM burst
    "comm.drop",           # SimComm.send message dropped
    "comm.dup",            # SimComm.send message duplicated
    "comm.rank_fail",      # SimComm collective rank failure
    "checkpoint.corrupt",  # resilience.checkpointing post-write corruption
    "executor.worker_crash",  # ProcessBackend worker SIGKILL mid-map
    # hang-aware fault classes (hang / slow / torn_write / enospc):
    "executor.hang",          # worker wedges mid-chunk (no heartbeats)
    "executor.slow",          # worker runs its chunk late (still beating)
    "checkpoint.torn_write",  # checkpoint archive truncated after publish
    "checkpoint.enospc",      # disk full while writing a checkpoint
    "cache.torn_write",       # tuning cache document published truncated
    "cache.enospc",           # disk full while saving the tuning cache
    "eventlog.torn_write",    # resilience event log line torn mid-append
    "eventlog.enospc",        # disk full while appending an event
    "artifact.torn_write",    # artifact-store npz published truncated
    "artifact.enospc",        # disk full while publishing an artifact
)


@dataclass
class FaultSpec:
    """One injectable fault at a named site.

    Attributes
    ----------
    site:
        One of :data:`KNOWN_SITES`.
    at_call:
        Zero-based arrival index at the site on which to start firing.
    count:
        Number of consecutive arrivals that fire (a "burst").
    probability:
        When set, overrides the deterministic window: every arrival from
        ``at_call`` onward fires with this probability, drawn from the
        plan's seeded RNG (still reproducible run-to-run).
    payload:
        Site-specific parameters (e.g. ``{"orbital": 2}`` for ``lfd.nan``,
        ``{"rank": 3}`` for ``comm.rank_fail``, ``{"nbytes": 64}`` for
        ``checkpoint.corrupt``).
    """

    site: str
    at_call: int = 0
    count: int = 1
    probability: Optional[float] = None
    payload: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.site not in KNOWN_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; options: {sorted(KNOWN_SITES)}"
            )
        if self.at_call < 0:
            raise ValueError("at_call must be non-negative")
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.probability is not None and not (0.0 <= self.probability <= 1.0):
            raise ValueError("probability must lie in [0, 1]")


class FaultPlan:
    """A seeded collection of fault specs plus per-site arrival counters."""

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0) -> None:
        self.specs: List[FaultSpec] = list(specs)
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self._calls: Dict[str, int] = {}
        #: Chronological (site, arrival_index) record of every firing.
        self.fired: List[Tuple[str, int]] = []

    def add(self, site: str, **kwargs: Any) -> "FaultPlan":
        """Append a spec (chainable): ``plan.add("lfd.nan", at_call=3)``."""
        self.specs.append(FaultSpec(site, **kwargs))
        return self

    def calls(self, site: str) -> int:
        """Arrivals observed at ``site`` so far."""
        return self._calls.get(site, 0)

    def check(self, site: str) -> Optional[FaultSpec]:
        """Record one arrival at ``site``; return the spec if a fault fires."""
        n = self._calls.get(site, 0)
        self._calls[site] = n + 1
        for spec in self.specs:
            if spec.site != site:
                continue
            if spec.probability is None:
                if spec.at_call <= n < spec.at_call + spec.count:
                    self.fired.append((site, n))
                    return spec
            elif n >= spec.at_call and self.rng.random() < spec.probability:
                self.fired.append((site, n))
                return spec
        return None

    def reset(self) -> None:
        """Rewind counters, the RNG and the firing record (keeps specs)."""
        self._calls.clear()
        self.fired.clear()
        self.rng = np.random.default_rng(self.seed)


_ACTIVE: Optional[FaultPlan] = None


def arm(plan: FaultPlan) -> FaultPlan:
    """Make ``plan`` the active plan observed by every fault site."""
    global _ACTIVE
    _ACTIVE = plan
    return plan


def disarm() -> None:
    """Deactivate fault injection (all sites become no-ops again)."""
    global _ACTIVE
    _ACTIVE = None


def active_plan() -> Optional[FaultPlan]:
    """The currently armed plan, or None."""
    return _ACTIVE


def fault_point(site: str) -> Optional[FaultSpec]:
    """Hot-path hook: returns a firing spec, or None (the common case).

    With no plan armed this is one global read and a ``None`` check, so
    instrumented kernels pay essentially nothing.
    """
    if _ACTIVE is None:
        return None
    return _ACTIVE.check(site)


@contextmanager
def armed(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Scope-bound arming; restores the previously armed plan on exit."""
    previous = _ACTIVE
    arm(plan)
    try:
        yield plan
    finally:
        if previous is None:
            disarm()
        else:
            arm(previous)
