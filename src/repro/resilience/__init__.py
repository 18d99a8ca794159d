"""Resilience layer: fault injection, health guards, supervised runs.

Cooperating sub-modules:

* :mod:`repro.resilience.faults` -- seeded deterministic fault injection
  with named sites wired into the SCF, propagator, allocator, SimComm,
  executor, persistence and checkpoint hot paths (no-ops unless a plan
  is armed);
* :mod:`repro.resilience.guards` -- typed numerical health guards
  (finiteness, norm drift, energy drift) for the QD loop and MD step;
* :mod:`repro.resilience.liveness` -- deadline budgets, run-wide retry
  budgets and a circuit breaker (the bounded-waiting primitives);
* :mod:`repro.resilience.atomicio` -- fsync'd same-directory atomic
  writes, the verified archive (arrays) and the verified document
  (JSON): how every file the package writes is published and checked;
* :mod:`repro.resilience.supervisor` -- checkpointed segment execution
  with bounded retries, deadline enforcement, graceful degradation,
  corrupt-checkpoint fallback and a structured JSON event log, on top
  of the hardened atomic/digest/rotating writer in
  :mod:`repro.resilience.checkpointing`.

``faults``, ``guards``, ``liveness`` and ``atomicio`` are
dependency-free (NumPy at most) and imported eagerly -- instrumented
hot paths may import them during ``repro.core`` initialization.
``checkpointing`` and ``supervisor`` depend on ``repro.core`` and are
loaded lazily (PEP 562) to keep the import graph acyclic.
"""

from repro.resilience.atomicio import (
    CheckpointCorruptError,
    atomic_write_bytes,
    atomic_write_text,
    fsync_directory,
    read_archive,
    read_document,
    write_archive,
    write_document,
)
from repro.resilience.faults import (
    KNOWN_SITES,
    FaultPlan,
    FaultSpec,
    RankFailure,
    active_plan,
    arm,
    armed,
    disarm,
    fault_point,
)
from repro.resilience.guards import (
    EnergyDriftError,
    GuardConfig,
    HealthGuard,
    NormDriftError,
    NumericalDivergenceError,
    NumericalHealthError,
    SCFDivergenceError,
)
from repro.resilience.liveness import (
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    RetryBudget,
    active_deadline,
    check_deadline,
    deadline_scope,
)

_LAZY = {
    "checkpoint_path": "repro.resilience.checkpointing",
    "list_checkpoints": "repro.resilience.checkpointing",
    "load_verified": "repro.resilience.checkpointing",
    "restore_newest_verified": "repro.resilience.checkpointing",
    "verify_checkpoint": "repro.resilience.checkpointing",
    "write_checkpoint": "repro.resilience.checkpointing",
    "RECOVERABLE": "repro.resilience.supervisor",
    "ResilienceLog": "repro.resilience.supervisor",
    "RunSupervisor": "repro.resilience.supervisor",
    "SupervisorAbort": "repro.resilience.supervisor",
    "SupervisorConfig": "repro.resilience.supervisor",
    "read_event_log": "repro.resilience.supervisor",
}

__all__ = [
    "CheckpointCorruptError",
    "atomic_write_bytes",
    "atomic_write_text",
    "fsync_directory",
    "read_archive",
    "read_document",
    "write_archive",
    "write_document",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "RetryBudget",
    "active_deadline",
    "check_deadline",
    "deadline_scope",
    "KNOWN_SITES",
    "FaultPlan",
    "FaultSpec",
    "RankFailure",
    "active_plan",
    "arm",
    "armed",
    "disarm",
    "fault_point",
    "EnergyDriftError",
    "GuardConfig",
    "HealthGuard",
    "NormDriftError",
    "NumericalDivergenceError",
    "NumericalHealthError",
    "SCFDivergenceError",
] + sorted(_LAZY)


def __getattr__(name: str) -> object:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> "list[str]":
    return sorted(__all__)
