"""Backend-abstracted execution of per-domain work (the DomainExecutor).

The paper's entire scaling story (Figs. 2-3, 96.5% weak-scaling
efficiency) rests on DC domains executing *concurrently*.  This module
defines the narrow contract the DC-MESH hot paths program against:
an order-preserving ``map`` of one picklable task function over
per-domain work items.  Three interchangeable backends implement it
(:mod:`repro.parallel.backends`):

* ``serial`` -- in-process, in-order; bit-identical to the historical
  inline loops and the default everywhere.
* ``thread`` -- a ``concurrent.futures.ThreadPoolExecutor``; wins on
  NumPy-heavy kernels that release the GIL.
* ``process`` -- a spawn-context process pool with
  ``multiprocessing.shared_memory`` transport for large arrays and
  worker-crash retry-on-survivors degradation (escalating to the PR-1
  :class:`~repro.resilience.supervisor.RunSupervisor` via
  :class:`WorkerCrashError` when the crash budget is exhausted).

Equivalence contract (enforced by
``tests/parallel/test_backend_equivalence.py``):

1. ``map(fn, items)`` returns ``[fn(items[0]), fn(items[1]), ...]`` in
   item order, regardless of completion order or worker count.
2. Task functions are **module-level picklable callables** taking one
   argument (a tuple of picklable values) and must return fresh objects,
   never views of their inputs: process workers may hand tasks read-only
   shared-memory views whose lifetime ends with the chunk.
3. Randomness inside a task comes either from seeds carried in the item
   itself (preferred for physics -- placement-independent by
   construction) or from :func:`worker_rng`, which every backend seeds
   identically per ``(executor seed, map call, chunk)`` so worker
   *placement* can never change a random stream.  With the default
   ``chunk_size=1`` the chunk index equals the item index and all three
   backends produce identical streams.

The serial/thread backends run tasks against the caller's live objects,
so in-place task mutations (orbital refinement) need no write-back; the
process backend returns fresh arrays that the caller applies in item
order.  Either way the caller-side apply loop is deterministic, which is
what makes the differential harness a meaningful test.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Iterable, List, Optional, Tuple

import numpy as np

from repro.resilience.faults import RankFailure

#: The selectable backend names, in increasing isolation order.
BACKENDS: Tuple[str, ...] = ("serial", "thread", "process")


class WorkerCrashError(RankFailure):
    """A process-backend map lost workers beyond its retry budget, or an
    owned worker (:mod:`repro.parallel.owned`) died during a call.

    "Lost" covers both hard crashes (SIGKILL, OOM) and wedged workers
    the heartbeat watchdog terminated -- hangs heal, and escalate,
    exactly like crashes.

    Subclasses :class:`~repro.resilience.faults.RankFailure`, so the
    PR-1 :class:`~repro.resilience.supervisor.RunSupervisor` treats it as
    recoverable: the supervisor restores the newest checkpoint and
    replays the segment while the backend keeps running on the surviving
    workers (retry-on-survivors degradation).  Raised only in the parent
    process, never pickled across a pool boundary.
    """

    def __init__(self, label: str, crashes: int, survivors: int,
                 message: Optional[str] = None) -> None:
        RuntimeError.__init__(
            self,
            message or f"process backend lost workers {crashes} time(s) "
            f"during map {label!r}; {survivors} worker(s) surviving",
        )
        self.rank = -1
        self.op = f"executor.map({label!r})"
        self.crashes = int(crashes)
        self.survivors = int(survivors)


_TLS = threading.local()


def set_worker_rng(rng: Optional[np.random.Generator]) -> None:
    """Install the per-task Generator (backend plumbing, not user API).

    Backends call this immediately before running a task (serial/thread)
    or a chunk of tasks (process worker), with a Generator seeded from
    ``SeedSequence((seed, map_index, chunk_index))``.
    """
    _TLS.rng = rng


def worker_rng() -> np.random.Generator:
    """The deterministic Generator of the currently executing task.

    Every backend seeds this identically per (executor seed, map call,
    chunk), so a task drawing from it gets the same stream no matter
    which backend or worker runs it (with the default ``chunk_size=1``).
    Raises ``RuntimeError`` outside a task.
    """
    rng = getattr(_TLS, "rng", None)
    if rng is None:
        raise RuntimeError(
            "worker_rng() is only available inside a task run by "
            "DomainExecutor.map"
        )
    return rng


def chunk_entropy(seed: int, map_index: int, chunk_index: int) -> Tuple[int, int, int]:
    """The SeedSequence entropy key shared by every backend's chunk RNG."""
    return (int(seed), int(map_index), int(chunk_index))


def chunk_rng(seed: int, map_index: int, chunk_index: int) -> np.random.Generator:
    """The deterministic per-chunk Generator (identical across backends)."""
    return np.random.default_rng(
        np.random.SeedSequence(chunk_entropy(seed, map_index, chunk_index))
    )


def chunk_slices(nitems: int, chunk_size: int) -> List[Tuple[int, int]]:
    """Half-open ``[lo, hi)`` chunk boundaries covering ``nitems`` items."""
    if nitems < 0:
        raise ValueError("nitems must be non-negative")
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    return [(lo, min(lo + chunk_size, nitems))
            for lo in range(0, nitems, chunk_size)]


def default_workers() -> int:
    """Default worker count: the visible CPU count (at least 1)."""
    return max(1, os.cpu_count() or 1)


class DomainExecutor:
    """The executor protocol every backend implements.

    Parameters
    ----------
    workers:
        Concurrency of the backend (1 for serial).
    seed:
        Base seed of the :func:`worker_rng` streams; tasks that carry
        their own seeds in the items ignore it entirely.
    """

    #: Backend name as accepted by :func:`make_executor`.
    name: str = "abstract"

    def __init__(self, workers: int = 1, seed: int = 0) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = int(workers)
        self.seed = int(seed)
        #: Ordinal of the next map() call; part of the RNG entropy so
        #: consecutive maps draw from distinct (but deterministic) streams.
        self._map_index = 0

    def _next_map_index(self) -> int:
        """Consume and return this call's map ordinal."""
        idx = self._map_index
        self._map_index += 1
        return idx

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        label: str = "tasks",
    ) -> List[Any]:
        """Apply ``fn`` to every item; results in item order."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release worker resources (idempotent; executor reusable after)."""

    def __enter__(self) -> "DomainExecutor":
        """Context-manager entry: the executor itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: shut the backend down."""
        self.shutdown()


def make_executor(
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    seed: int = 0,
    **kwargs: Any,
) -> DomainExecutor:
    """Build a backend by name (``serial`` / ``thread`` / ``process``).

    ``backend=None`` resolves backend, workers and (for the process
    backend) ``chunk_size`` from the active
    :class:`~repro.tuning.profile.TuningProfile` (the
    ``parallel.executor`` tunable); an explicit backend name leaves the
    caller in full control.  ``workers`` defaults to 1 for serial and
    :func:`default_workers` otherwise; extra keyword arguments
    (``chunk_size``, ``shm_threshold``, ``max_crash_retries``,
    ``hang_timeout``) are forwarded to the process backend.
    """
    if backend is None:
        from repro.tuning.profile import get_active_profile

        params = get_active_profile().params_for("parallel.executor")
        backend = str(params["backend"])
        if workers is None:
            workers = int(params["workers"])  # type: ignore[arg-type]
        if backend == "process":
            kwargs.setdefault("chunk_size", int(params["chunk_size"]))  # type: ignore[arg-type]
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; options: {', '.join(BACKENDS)}"
        )
    # Imported here: the backends subclass DomainExecutor, so importing
    # them at module scope would be circular.
    if backend == "serial":
        from repro.parallel.backends.serial import SerialBackend

        if kwargs:
            raise ValueError(f"serial backend takes no extras: {sorted(kwargs)}")
        return SerialBackend(seed=seed)
    nworkers = workers if workers is not None else default_workers()
    if backend == "thread":
        from repro.parallel.backends.thread import ThreadBackend

        if kwargs:
            raise ValueError(f"thread backend takes no extras: {sorted(kwargs)}")
        return ThreadBackend(workers=nworkers, seed=seed)
    from repro.parallel.backends.process import ProcessBackend

    return ProcessBackend(workers=nworkers, seed=seed, **kwargs)
