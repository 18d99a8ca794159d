"""Cross-request coalescing: many jobs, one batched execution.

The swarm kernels are *batch-size invariant*: each trajectory row
evolves identically no matter which rows share its stacked arrays, and
its RNG stream is a pure function of ``(job seed, trajectory index)``.
That makes cross-request coalescing free: the daemon stacks several
queued ensemble jobs as the members of one
:class:`~repro.ensemble.engine.EnsembleRun`, so four 8-trajectory
requests cost one 32-wide batched sweep instead of four narrow ones --
and every job's results are bit-identical to running it alone.

This module only keeps the names the layer map of ``perfbench/``
wraps: the coalesced group runner *is* the ensemble runner.
"""

from __future__ import annotations

from repro.ensemble.engine import EnsembleRun
from repro.ensemble.stats import compute_stats
from repro.ensemble.swarm import step_swarm

#: A coalesced job group runs on the one ensemble runner.
EnsembleGroupRun = EnsembleRun

__all__ = ["EnsembleGroupRun", "compute_stats", "step_swarm"]
