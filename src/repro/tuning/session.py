"""Tuning session orchestration: cache -> search -> cache -> profile.

A :class:`TuningSession` is what ``repro tune`` drives: for every
selected tunable it first consults the persisted cache (a valid entry is
a *pure cache hit* -- zero trials run), otherwise runs the seeded search,
stores the gated winner and saves the cache atomically.  The session's
final product is a :class:`~repro.tuning.profile.TuningProfile` plus a
machine-readable report of what happened per tunable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.obs import trace_span
from repro.tuning.cache import TuningCache, machine_fingerprint
from repro.tuning.gate import GATE_TOL
from repro.tuning.profile import TuningProfile
from repro.tuning.registry import TunableRegistry, default_registry
from repro.tuning.search import TuningOutcome, tune


@dataclass
class SessionRecord:
    """What the session did for one tunable."""

    tunable_id: str
    action: str  # "cache_hit" | "tuned"
    params: dict
    speedup: float
    non_default: bool
    outcome: Optional[TuningOutcome] = None

    @property
    def trials_run(self) -> int:
        """Measured trials this session actually executed (0 on a hit)."""
        if self.outcome is None:
            return 0
        return self.outcome.measured_trials

    def to_dict(self) -> dict:
        """JSON-serializable per-tunable session record."""
        return {
            "tunable_id": self.tunable_id,
            "action": self.action,
            "params": dict(self.params),
            "speedup": self.speedup,
            "non_default": self.non_default,
            "trials_run": self.trials_run,
            "outcome": self.outcome.to_dict() if self.outcome else None,
        }


@dataclass
class SessionResult:
    """Everything one ``repro tune`` invocation produced."""

    records: List[SessionRecord] = field(default_factory=list)
    machine: str = ""
    cache_path: str = ""
    #: Why persisting the cache failed (None = saved or nothing to save).
    #: Tuned winners still apply in-process; only the *next* run re-tunes.
    cache_save_error: Optional[str] = None

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.action == "cache_hit")

    @property
    def tuned(self) -> int:
        return sum(1 for r in self.records if r.action == "tuned")

    @property
    def total_trials(self) -> int:
        return sum(r.trials_run for r in self.records)

    def profile(self) -> TuningProfile:
        """The tuned profile this session resolved."""
        overrides = {r.tunable_id: dict(r.params) for r in self.records}
        return TuningProfile(overrides, source=f"tune:{self.cache_path}")

    def to_dict(self) -> dict:
        """JSON-serializable session report (the payload of
        :func:`repro.tuning.report.write_report_json`)."""
        return {
            "machine": self.machine,
            "cache_path": self.cache_path,
            "cache_hits": self.cache_hits,
            "tuned": self.tuned,
            "total_trials": self.total_trials,
            "cache_save_error": self.cache_save_error,
            "records": [r.to_dict() for r in self.records],
        }


class TuningSession:
    """Cache-first tuning over a selection of registered tunables."""

    def __init__(
        self,
        cache: Optional[TuningCache] = None,
        registry: Optional[TunableRegistry] = None,
    ) -> None:
        self.cache = cache if cache is not None else TuningCache()
        self.registry = registry if registry is not None else default_registry()

    def run(
        self,
        select: Optional[Sequence[str]] = None,
        force: bool = False,
        strategy: str = "auto",
        warmup: int = 1,
        repeats: int = 3,
        seed: int = 0,
        gate_tol: float = GATE_TOL,
        clock: Callable[[], float] = time.perf_counter,
    ) -> SessionResult:
        """Tune the selected tunables (all registered ones by default).

        ``force`` drops any cached entry first, guaranteeing a fresh
        search; otherwise a valid cache entry short-circuits the search
        entirely (zero trials).
        """
        ids = tuple(select) if select else self.registry.ids()
        machine = machine_fingerprint()
        result = SessionResult(machine=machine,
                               cache_path=str(self.cache.path))
        dirty = False
        with trace_span("tuning.session", "tuning", tunables=len(ids),
                        force=force):
            for tid in ids:
                tunable = self.registry.get(tid)
                if force:
                    self.cache.drop(tid)
                entry = None if force else self.cache.get(tunable,
                                                          machine=machine)
                if entry is not None:
                    result.records.append(SessionRecord(
                        tunable_id=tid,
                        action="cache_hit",
                        params=dict(entry.params),
                        speedup=entry.speedup,
                        non_default=(dict(entry.params)
                                     != tunable.canonical_defaults()),
                    ))
                    continue
                outcome = tune(tunable, strategy=strategy, warmup=warmup,
                               repeats=repeats, seed=seed, gate_tol=gate_tol,
                               clock=clock)
                best_trial = next(
                    t for t in outcome.trials
                    if t.status == "ok" and dict(t.params) == outcome.best_params
                )
                self.cache.put(
                    tunable, outcome.best_params, speedup=outcome.speedup,
                    strategy=outcome.strategy,
                    gate_error=float(best_trial.gate_error or 0.0),
                    machine=machine,
                )
                dirty = True
                result.records.append(SessionRecord(
                    tunable_id=tid,
                    action="tuned",
                    params=dict(outcome.best_params),
                    speedup=outcome.speedup,
                    non_default=outcome.non_default,
                    outcome=outcome,
                ))
        if dirty:
            try:
                self.cache.save()
            except OSError as exc:
                # A full disk must not void the tuning that already ran:
                # winners stay active in this process, the failure is
                # reported, and the next session simply re-tunes.
                result.cache_save_error = f"{type(exc).__name__}: {exc}"
        return result
