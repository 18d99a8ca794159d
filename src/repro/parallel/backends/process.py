"""ProcessBackend: spawn-context pool with shm transport, crash healing
and a heartbeat watchdog for wedged workers.

The closest stand-in for the paper's one-rank-per-GPU deployment that a
single host can offer: each worker is a separate interpreter (spawn
context, so no inherited state), large arrays travel through
``multiprocessing.shared_memory`` (:mod:`repro.parallel.backends.shm`),
and work is dispatched in deterministic chunks whose results the caller
applies in item order.

Crash handling is *retry-on-survivors*: a worker dying mid-map (real
crash, OOM kill, or the ``executor.worker_crash`` fault site) breaks the
pool; the backend keeps the chunks that already finished, rebuilds the
pool with one fewer worker, and resubmits only the unfinished chunks.
After ``max_crash_retries`` consecutive pool losses in one map call it
raises :class:`~repro.parallel.executor.WorkerCrashError`, which the
PR-1 RunSupervisor treats as a recoverable rank failure (restore the
newest checkpoint, replay the segment on whatever workers survive).

Hang handling reuses the same path.  With ``hang_timeout`` set, workers
stamp a shared-memory heartbeat board
(:mod:`repro.parallel.backends.heartbeat`) at chunk start and after
every task; a parent-side watchdog thread polls the board and SIGKILLs
the pool the moment any started chunk stops beating for longer than
``hang_timeout``.  The kill surfaces as a broken pool, so a wedged
worker heals exactly like a crashed one -- degraded pool, resubmitted
chunks, :class:`WorkerCrashError` escalation when the budget runs out.
A *slow* worker (the ``executor.slow`` fault site, or a genuinely
overloaded host) keeps beating and is deliberately left alone.  With
``hang_timeout=None`` (the default) no board, no thread and no polling
exist -- the disarmed overhead is gated by ``BENCH_chaos.json``.

Deadline budgets (:mod:`repro.resilience.liveness`) are honoured between
dispatch rounds: an armed :func:`~repro.resilience.liveness.deadline_scope`
turns an over-budget map into a supervisor-recoverable
:class:`~repro.resilience.liveness.DeadlineExceeded` instead of an
unbounded wait.

Observability caveat: worker processes carry the null tracer, so
per-kernel spans inside tasks are not recorded; the parent-side
``executor.map`` span absorbs the whole dispatch wall time, and
watchdog kills emit ``executor.watchdog_kill`` spans.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.obs import trace_span
from repro.parallel.backends.heartbeat import HeartbeatBoard
from repro.parallel.backends.shm import (
    DEFAULT_SHM_THRESHOLD,
    ShmSession,
    attached,
)
from repro.parallel.executor import (
    DomainExecutor,
    WorkerCrashError,
    chunk_rng,
    chunk_slices,
    set_worker_rng,
)
from repro.resilience.faults import fault_point
from repro.resilience.liveness import DeadlineExceeded, check_deadline
from repro.tuning.profile import (
    TuningProfile,
    get_active_profile,
    set_active_profile,
)

#: Worker heartbeat cadence while servicing an injected slow-down.
_SLOW_BEAT_S = 0.05

#: Default wedge duration of the ``executor.hang`` fault site.  Bounded
#: so an armed hang without a watchdog stalls loudly, not forever.
_DEFAULT_HANG_S = 60.0

#: Default lateness of the ``executor.slow`` fault site.
_DEFAULT_SLOW_S = 0.25


def _sleep_beating(board: Optional[HeartbeatBoard], slot: int,
                   seconds: float) -> None:
    """Sleep ``seconds`` while refreshing the heartbeat (a slow, live worker)."""
    end = time.monotonic() + seconds
    while True:
        remaining = end - time.monotonic()
        if remaining <= 0:
            return
        time.sleep(min(_SLOW_BEAT_S, remaining))
        if board is not None:
            board.beat(slot)


def _run_chunk(
    fn: Callable[[Any], Any],
    packed_tasks: List[Any],
    entropy: Tuple[int, int, int],
    heartbeat: Optional[Tuple[str, int, int]] = None,
    delay: Optional[Tuple[str, float]] = None,
) -> List[Any]:
    """Worker-side chunk body: beat, seed the RNG, attach shm, run tasks.

    ``heartbeat`` is ``(board name, slot, nslots)`` when the watchdog is
    armed.  ``delay`` carries an injected fault: ``("hang", s)`` wedges
    the worker for ``s`` seconds *without* beating (stale heartbeat, the
    watchdog's prey); ``("slow", s)`` sleeps the same way but keeps
    beating (late but alive -- must survive the watchdog).
    """
    board: Optional[HeartbeatBoard] = None
    slot = 0
    try:
        if heartbeat is not None:
            name, slot, nslots = heartbeat
            board = HeartbeatBoard.attach(name, nslots)
            board.beat(slot)
        if delay is not None:
            kind, seconds = delay
            if kind == "hang":
                time.sleep(seconds)  # wedged: no beats until it wakes
            else:
                _sleep_beating(board, slot, seconds)
        set_worker_rng(chunk_rng(*entropy))
        try:
            with attached(packed_tasks) as tasks:
                out: List[Any] = []
                for t in tasks:
                    out.append(fn(t))
                    if board is not None:
                        board.beat(slot)
                return out
        finally:
            set_worker_rng(None)
    finally:
        if board is not None:
            board.close()


def _adopt_profile(profile: Dict[str, Any]) -> None:
    """Pool initializer: install the parent's tuning profile."""
    set_active_profile(TuningProfile.from_dict(profile))


def _worker_suicide() -> None:
    """Fault-injection payload: hard-kill the hosting worker (SIGKILL)."""
    os.kill(os.getpid(), signal.SIGKILL)


class _Watchdog(threading.Thread):
    """Parent-side monitor: SIGKILL the pool when a chunk stops beating.

    One watchdog guards one dispatch round.  It polls the heartbeat
    board every ``poll_s``; when any *started, unfinished* chunk has not
    beaten for ``hang_timeout`` seconds it kills every pool process
    (turning the hang into an ordinary broken pool that the crash-heal
    path already handles) and exits.  ``stop()`` always joins with a
    timeout -- the watchdog itself must never become the hang.
    """

    def __init__(
        self,
        pool: ProcessPoolExecutor,
        board: HeartbeatBoard,
        outstanding: Set[int],
        lock: threading.Lock,
        hang_timeout: float,
        poll_s: float,
    ) -> None:
        super().__init__(name="repro-watchdog", daemon=True)
        self._pool = pool
        self._board = board
        self._outstanding = outstanding
        self._lock = lock
        self._hang_timeout = hang_timeout
        self._poll_s = poll_s
        self._stop_event = threading.Event()
        #: Slots the watchdog declared hung (read by the parent after join).
        self.killed_slots: List[int] = []

    def run(self) -> None:
        while not self._stop_event.wait(self._poll_s):
            with self._lock:
                candidates = list(self._outstanding)
            stalled = self._board.stalled_slots(candidates,
                                                self._hang_timeout)
            if stalled:
                self.killed_slots = stalled
                with trace_span("executor.watchdog_kill", "comm",
                                stalled_chunks=len(stalled),
                                hang_timeout_s=self._hang_timeout):
                    _kill_pool_processes(self._pool)
                return

    def stop(self) -> None:
        """Signal and join (bounded -- the watchdog never blocks the parent)."""
        self._stop_event.set()
        self.join(timeout=max(1.0, 4 * self._poll_s))


def _kill_pool_processes(pool: ProcessPoolExecutor) -> None:
    """SIGKILL every live process of a pool (hang -> broken pool).

    Reaches into ``pool._processes`` (stable since CPython 3.3; guarded
    anyway) because ``shutdown`` only *joins* workers -- a wedged worker
    would never exit and the shutdown itself would hang.
    """
    procs = getattr(pool, "_processes", None) or {}
    for proc in list(procs.values()):
        pid = getattr(proc, "pid", None)
        if pid is None:
            continue
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            continue


class ProcessBackend(DomainExecutor):
    """Process-pool execution with shared-memory transport.

    Parameters
    ----------
    workers:
        Pool size at full strength (crashes shrink it, never below 1).
    seed:
        Base seed of the per-chunk worker RNG streams.
    chunk_size:
        Items per dispatched chunk.  The default of 1 keeps the
        ``worker_rng`` streams identical to the serial and thread
        backends; larger chunks amortize dispatch overhead but give each
        chunk one shared stream.
    shm_threshold:
        Minimum array size (bytes) shipped via shared memory; smaller
        arrays ride the pickle path.  0 disables shm entirely.
    max_crash_retries:
        Consecutive pool losses tolerated inside one map call before
        :class:`WorkerCrashError` escalates to the supervisor.
    hang_timeout:
        Seconds a started chunk may go without a heartbeat before the
        watchdog declares its worker wedged and kills the pool (healing
        like a crash).  Must comfortably exceed the longest single task.
        ``None`` (default) disarms the watchdog entirely: no heartbeat
        board, no monitor thread, no polling.
    """

    name = "process"

    def __init__(
        self,
        workers: int = 2,
        seed: int = 0,
        chunk_size: int = 1,
        shm_threshold: int = DEFAULT_SHM_THRESHOLD,
        max_crash_retries: int = 2,
        hang_timeout: Optional[float] = None,
    ) -> None:
        super().__init__(workers=workers, seed=seed)
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        if shm_threshold < 0:
            raise ValueError("shm_threshold must be non-negative")
        if max_crash_retries < 0:
            raise ValueError("max_crash_retries must be non-negative")
        if hang_timeout is not None and hang_timeout <= 0:
            raise ValueError("hang_timeout must be positive (or None)")
        self.chunk_size = int(chunk_size)
        self.shm_threshold = int(shm_threshold)
        self.max_crash_retries = int(max_crash_retries)
        self.hang_timeout = (None if hang_timeout is None
                             else float(hang_timeout))
        #: Current pool size after crash degradation (>= 1).
        self.live_workers = self.workers
        #: Wedged workers the watchdog has killed over this backend's life.
        self.hangs_detected = 0
        self._pool: Optional[ProcessPoolExecutor] = None

    @property
    def _poll_s(self) -> float:
        """Watchdog/gather poll cadence derived from the hang timeout."""
        if self.hang_timeout is None:
            return 0.1
        return min(0.25, max(0.02, self.hang_timeout / 5.0))

    # ------------------------------------------------------------------ #
    def _ensure_pool(self) -> ProcessPoolExecutor:
        """Lazily start the spawn-context pool at ``live_workers`` size.

        Workers start under the caller's active tuning profile (a spawn
        worker would otherwise hold the built-in defaults).
        """
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.live_workers,
                mp_context=get_context("spawn"),
                initializer=_adopt_profile,
                initargs=(get_active_profile().to_dict(),),
            )
        return self._pool

    def _discard_pool(self) -> None:
        """Drop a (possibly broken) pool without waiting on it."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _abandon_pool(self) -> None:
        """Kill and drop the pool (used when workers may be wedged)."""
        if self._pool is not None:
            _kill_pool_processes(self._pool)
            self._discard_pool()

    def reset(self) -> None:
        """Restore full strength after degradation (drops the live pool)."""
        self._discard_pool()
        self.live_workers = self.workers

    def shutdown(self) -> None:
        """Terminate the pool; a later map() restarts it lazily."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # ------------------------------------------------------------------ #
    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        label: str = "tasks",
    ) -> List[Any]:
        """Chunked map over the pool; results in item order.

        Raises whatever a task raises (guard errors unpickle cleanly in
        the parent), :class:`WorkerCrashError` once worker crashes or
        watchdog-killed hangs exhaust ``max_crash_retries``, or
        :class:`DeadlineExceeded` when an armed deadline scope expires
        mid-map.
        """
        items = list(items)
        map_index = self._next_map_index()
        with trace_span("executor.map", "comm", backend=self.name,
                        workers=self.live_workers, ntasks=len(items),
                        label=label):
            if not items:
                return []
            session = ShmSession()
            board: Optional[HeartbeatBoard] = None
            try:
                nchunks = len(chunk_slices(len(items), self.chunk_size))
                if self.hang_timeout is not None:
                    board = HeartbeatBoard.create(nchunks)
                return self._map_chunks(fn, items, label, map_index,
                                        session, board)
            finally:
                if board is not None:
                    board.close()
                session.close()

    def _submit_round(
        self,
        pool: ProcessPoolExecutor,
        fn: Callable[[Any], Any],
        packed: List[List[Any]],
        pending: List[int],
        map_index: int,
        board: Optional[HeartbeatBoard],
    ) -> Dict[int, "Future[List[Any]]"]:
        """Submit every pending chunk, honouring the executor fault sites."""
        futures: Dict[int, Future[List[Any]]] = {}
        if board is not None:
            # Stale stamps from a killed round would read as instant
            # hangs; resubmitted chunks start over as "queued".
            for ci in pending:
                board.clear(ci)
        for ci in pending:
            crash = fault_point("executor.worker_crash")
            delay: Optional[Tuple[str, float]] = None
            spec = fault_point("executor.hang")
            if spec is not None:
                delay = ("hang",
                         float(spec.payload.get("seconds", _DEFAULT_HANG_S)))
            else:
                spec = fault_point("executor.slow")
                if spec is not None:
                    delay = ("slow", float(
                        spec.payload.get("seconds", _DEFAULT_SLOW_S)))
            heartbeat = (None if board is None
                         else (board.name, ci, board.nslots))
            try:
                futures[ci] = pool.submit(
                    _run_chunk, fn, packed[ci],
                    (self.seed, map_index, ci), heartbeat, delay,
                )
                if crash is not None:
                    # Poison every live worker.  The call queue is
                    # FIFO, so chunks dispatched after this point
                    # deterministically fail and get resubmitted.
                    for _ in range(self.live_workers):
                        pool.submit(_worker_suicide)
            except BrokenProcessPool:
                break  # unsubmitted chunks stay pending for retry
        return futures

    def _gather_round(
        self,
        futures: Dict[int, "Future[List[Any]]"],
        chunk_results: List[Optional[List[Any]]],
        outstanding: Set[int],
        lock: threading.Lock,
        label: str,
    ) -> List[int]:
        """Collect results as they land; returns chunks lost to pool breaks.

        Polls with a bounded timeout so armed deadlines are enforced
        even while every future is stuck behind a wedged worker.
        """
        broken: List[int] = []
        by_future = {fut: ci for ci, fut in futures.items()}
        not_done = set(by_future)
        while not_done:
            check_deadline(f"executor.map({label!r})")
            done, not_done = futures_wait(
                not_done, timeout=self._poll_s,
                return_when=FIRST_COMPLETED,
            )
            for fut in done:
                ci = by_future[fut]
                try:
                    chunk_results[ci] = fut.result(timeout=0)
                except BrokenProcessPool:
                    broken.append(ci)
                finally:
                    with lock:
                        outstanding.discard(ci)
        return broken

    def _map_chunks(
        self,
        fn: Callable[[Any], Any],
        items: List[Any],
        label: str,
        map_index: int,
        session: ShmSession,
        board: Optional[HeartbeatBoard],
    ) -> List[Any]:
        """Dispatch chunks, healing broken pools (crashes AND hangs)."""
        slices = chunk_slices(len(items), self.chunk_size)
        packed = [
            [session.pack(it, self.shm_threshold) for it in items[lo:hi]]
            for lo, hi in slices
        ]
        chunk_results: List[Optional[List[Any]]] = [None] * len(slices)
        pending = list(range(len(slices)))
        lock = threading.Lock()
        crashes = 0
        while pending:
            pool = self._ensure_pool()
            futures = self._submit_round(pool, fn, packed, pending,
                                         map_index, board)
            outstanding = set(futures)
            watchdog: Optional[_Watchdog] = None
            if board is not None and self.hang_timeout is not None:
                watchdog = _Watchdog(pool, board, outstanding, lock,
                                     self.hang_timeout, self._poll_s)
                watchdog.start()
            try:
                broken = self._gather_round(futures, chunk_results,
                                            outstanding, lock, label)
            except DeadlineExceeded:
                # Workers may be wedged or mid-task; abandon the pool so
                # the supervisor's replay starts from a clean slate.
                if watchdog is not None:
                    watchdog.stop()
                    watchdog = None
                self._abandon_pool()
                raise
            finally:
                if watchdog is not None:
                    watchdog.stop()
                    if watchdog.killed_slots:
                        self.hangs_detected += len(watchdog.killed_slots)
            # Chunks never submitted (submit-time pool break) also retry.
            pending = sorted(set(broken)
                             | (set(pending) - set(futures)))
            if pending:
                crashes += 1
                self._discard_pool()
                self.live_workers = max(1, self.live_workers - 1)
                if crashes > self.max_crash_retries:
                    raise WorkerCrashError(label, crashes, self.live_workers)
        out: List[Any] = []
        for results in chunk_results:
            out.extend(results if results is not None else [])
        return out
