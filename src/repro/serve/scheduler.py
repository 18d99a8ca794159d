"""Batch assembly policy and compatibility grouping.

The daemon's scheduler pulls one queued job, then keeps taking jobs
while each next one arrives within :data:`ARRIVAL_GAP_S` of the one
before, up to ``max_batch`` jobs; the first quiet gap dispatches the
batch.  A burst of requests therefore lands in one batch, while a lone
request waits for one gap only, and no batch waits longer than
``(max_batch - 1) * ARRIVAL_GAP_S``.  The assembled batch is
partitioned into *compatibility groups* by
:func:`repro.serve.jobs.batch_key` -- each group becomes one coalesced
execution, and jobs with no batch key fall out as singletons.  Batching
never changes results, only how many requests share one execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.serve.jobs import JobSpec, batch_key

T = TypeVar("T")


#: Seconds of quiet that end a batch.  Most requests of a synchronized
#: burst of clients arrive well under a millisecond apart, so the burst
#: lands in one or two batches, while a lone request waits one gap.
ARRIVAL_GAP_S = 0.002


@dataclass(frozen=True)
class BatchPolicy:
    """How wide to batch; ``max_batch=1`` dispatches every job alone."""

    max_batch: int = 16

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be positive")


def group_jobs(
    specs: Sequence[JobSpec],
    carriers: Optional[Sequence[T]] = None,
) -> List[Tuple[Tuple[JobSpec, ...], Tuple[T, ...]]]:
    """Partition a batch into coalescible groups, order-preserving.

    ``carriers`` is an optional parallel sequence (the daemon passes the
    per-job response futures) sliced identically to the specs, so group
    membership never desynchronizes from reply routing.  Returns
    ``[(specs, carriers), ...]`` with groups ordered by first
    appearance and singletons (``batch_key() is None``) kept alone.
    """
    if carriers is None:
        carriers = [None] * len(specs)  # type: ignore[list-item]
    if len(carriers) != len(specs):
        raise ValueError("carriers must parallel specs")
    groups: Dict[str, List[int]] = {}
    order: List[List[int]] = []
    for i, spec in enumerate(specs):
        key = batch_key(spec)
        if key is None:
            order.append([i])
            continue
        existing = groups.get(key)
        if existing is None:
            groups[key] = bucket = [i]
            order.append(bucket)
        else:
            existing.append(i)
    return [
        (tuple(specs[i] for i in bucket),
         tuple(carriers[i] for i in bucket))
        for bucket in order
    ]
