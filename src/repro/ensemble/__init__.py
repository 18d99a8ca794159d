"""Trajectory-ensemble engine: batched FSSH swarms over classical paths.

Surface hopping is a statistical method: the paper's QXMD observables
(population relaxation, carrier dynamics) only emerge from averages over
hundreds of stochastic trajectories.  This package vectorizes the
surface-hopping loop across a *swarm* -- stacked ``(ntraj, nstates)``
amplitude/active arrays stepped together through the batch-size-
invariant kernels of :mod:`repro.qxmd.sh_kernels` -- and fans batches
out over the serial/thread/process
:class:`~repro.parallel.executor.DomainExecutor`.

The defining contract: every trajectory in a swarm draws from its own
deterministic RNG stream keyed by ``(seed, trajectory index)`` (the
PR-4 executor scheme), and its batched evolution is **bit-identical** to
a standalone :class:`~repro.qxmd.surface_hopping.FSSH` loop on the same
stream.  ``tests/ensemble/test_ensemble_equivalence.py`` enforces this
at the exact (per-trajectory, bitwise) and statistical (ensemble
population trace, KS/stderr) tiers.
"""

from repro.ensemble.engine import (
    BatchResult,
    EnsembleConfig,
    EnsembleMember,
    EnsembleResult,
    EnsembleRoundRecord,
    EnsembleRun,
    resolve_batch_size,
    run_ensemble,
)
from repro.ensemble.path import ClassicalPath, model_path, path_from_simulation
from repro.ensemble.stats import (
    EnsembleStats,
    compute_stats,
    ks_pvalue,
    ks_statistic,
    ks_test,
    stderr_overlap,
)
from repro.ensemble.swarm import (
    SwarmState,
    TrajectoryTrace,
    run_reference_trajectory,
    step_swarm,
    trajectory_rng,
)

__all__ = [
    "BatchResult",
    "ClassicalPath",
    "EnsembleConfig",
    "EnsembleMember",
    "EnsembleResult",
    "EnsembleRoundRecord",
    "EnsembleRun",
    "EnsembleStats",
    "SwarmState",
    "TrajectoryTrace",
    "compute_stats",
    "ks_pvalue",
    "ks_statistic",
    "ks_test",
    "model_path",
    "path_from_simulation",
    "resolve_batch_size",
    "run_ensemble",
    "run_reference_trajectory",
    "stderr_overlap",
    "step_swarm",
    "trajectory_rng",
]
