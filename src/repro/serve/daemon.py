"""The serving daemon: a long-lived asyncio loop over a unix socket,
computing on one *lane* per CPU it may run on.

Event-loop discipline (enforced lexically by statlint's DCL017): the
``async`` bodies here never block -- they parse lines, route jobs and
await futures.  Blocking work runs on threads: the *io thread* does
every artifact-store read and write and all other file I/O, and each
lane computes on a thread of its own.

Lanes.  A lane computes one coalesced group at a time and owns, for its
whole life, a warm-state pool of ``pool_entries`` entries and a scratch
directory (:class:`LaneState`).  There is one lane per CPU in
``os.sched_getaffinity``.  Lane 0 is the daemon's own worker thread, the
in-process path a 1-CPU host and any one-request-at-a-time load run.
Lanes 1.. are :class:`~repro.parallel.owned.OwnedWorker` processes, each
driven by a daemon thread that waits on its pipe; one starts only when a
group is waiting and every started lane is busy, so nothing but the
daemon runs until load needs a second core.  Every lane runs the same
:meth:`LaneState.execute` against its own pool.

Routing.  A group that touches the pool -- a spectrum group, or scf jobs
the artifact store does not memoize -- goes to the lane that first built
its warm key (:func:`repro.serve.jobs.warm_key`), and waits for that
lane while it is busy; an scf group whose keys live on different lanes
splits by lane.  Any other group goes to the idle ready lane with the
least busy time.  A pooled ground state and its recorded propagation
therefore live in one lane only, and no lock guards them across lanes.
Jobs that wait for a lane join a waiting group of their batch key (up
to ``max_batch``), so load still coalesces while every lane is busy.

Job lifecycle::

    client line -> validate -> admission (bounded queue, typed
    ServerBusy shed) -> scheduler assembles a batch (until arrivals
    pause for ARRIVAL_GAP_S, or max_batch jobs) -> io thread answers
    artifact-store memo hits -> compatibility groups -> routed to lanes
    (the scheduler goes on assembling while lanes compute) -> io thread
    memoizes fresh results -> per-job futures resolve -> NDJSON responses.

The pool holds what the store does not answer: spectrum ground states,
each with its recorded kicked propagation (a spectrum job propagates
only the steps its ground state has not recorded yet; the
``spectrum_qd_steps`` counter sums them), and scf results of
``memoize: false`` jobs or of a daemon without an artifact store.

Failures.  Every job carries a finite deadline
(:data:`~repro.serve.jobs.DEFAULT_DEADLINE_S` unless it names one),
checked cooperatively inside the lane.  A lane holds a *lease* while it
computes a group: at dispatch it runs to the sum of the group's
deadlines, and every deadline scope the lane arms (a supervisor
segment or ensemble round, a retry's relaxed budget, an scf solve, a
spectrum extension) extends it to that scope's expiry.  A lane still
busy :data:`HANG_GRACE_S` past its lease is hung: its group's jobs are
answered ``DeadlineExceeded``, and a lane process is killed.  A thread
cannot be killed, so lane 0 stays busy until its group returns.  A
lane process that dies answers its group's jobs with a typed
``WorkerCrashError``; its routes are dropped, and the next start gives
an empty replacement.

``stats`` reports ``metrics`` and ``pool`` summed over lanes, plus a
``lanes`` list (pid, status, groups, busy seconds, pool counts and the
lane's peak resident set, VmHWM).  ``invalidate`` reaches every started
lane: lane 0's thread-safe pool from the io thread, at once, and a lane
process's pool on its lane thread, after the group in flight.  While a
tracer is installed in the daemon's process, lane 0 records into it
directly, and a lane process returns its spans with each group result,
rebased onto that tracer's epoch and tagged ``lane``.

A request line longer than the stream limit (asyncio's 64 KiB) cannot
be framed: it gets a typed ``ProtocolError`` response and the
connection closes.

Drain: SIGTERM (or the ``shutdown`` op) stops admission, resolves
still-queued jobs and groups still waiting for a lane with typed
``ServerShutdown`` responses, lets in-flight groups finish, joins every
lane (one still starting too), then closes the server.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import os
import pathlib
import resource
import shutil
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.artifacts import ArtifactKey, ArtifactStore, machine_fingerprint
from repro.ensemble.engine import (
    EnsembleConfig,
    EnsembleMember,
    EnsembleResult,
    EnsembleRun,
)
from repro.obs import SpanRecord, get_tracer, trace_span, tracing
from repro.parallel.executor import WorkerCrashError
from repro.parallel.owned import Lease, OwnedWorker, worker_lease
from repro.resilience.liveness import (
    DeadlineExceeded,
    deadline_scope,
    watching_deadlines,
)
from repro.serve import workloads
from repro.serve.jobs import (
    DEFAULT_DEADLINE_S,
    JobSpec,
    artifact_key,
    batch_key,
    group_signature,
    validate_job,
    warm_key,
)
from repro.serve.pool import WarmStatePool
from repro.serve.protocol import (
    PROTOCOL,
    ProtocolError,
    busy_response,
    dumps_line,
    error_response,
    loads_line,
    ok_response,
    protocol_error_response,
    shutdown_response,
)
from repro.serve.scheduler import ARRIVAL_GAP_S, BatchPolicy, group_jobs

_SENTINEL: Any = object()

#: Seconds a lane may compute past its lease before it is deemed hung.
#: Deadlines are checked between steps, so a healthy lane raises
#: ``DeadlineExceeded``, or arms its next budget, well inside this grace.
HANG_GRACE_S = 30.0

#: Warm keys the router remembers (least recently dispatched go first;
#: a forgotten key is rebuilt on whichever lane takes it next).
_MAX_ROUTES = 4096


def lane_count() -> int:
    """One lane per CPU this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        return max(1, len(affinity(0)))
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class ServeConfig:
    """Everything the daemon needs to start."""

    socket_path: pathlib.Path
    artifact_root: Optional[pathlib.Path] = None
    artifact_max_bytes: Optional[int] = None
    scratch_root: Optional[pathlib.Path] = None
    policy: BatchPolicy = field(default_factory=BatchPolicy)
    max_queue: int = 64
    #: Warm-state pool entry cap, per lane.
    pool_entries: int = 8
    pool_max_bytes: Optional[int] = None
    default_deadline_s: float = DEFAULT_DEADLINE_S
    max_retries: int = 1

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError("max_queue must be positive")
        if not 0 < self.default_deadline_s < float("inf"):
            raise ValueError("default_deadline_s must be positive and finite")


class ServeMetrics:
    """Thread-safe serving counters, summed over lanes."""

    _COUNTERS = (
        "submitted", "completed", "failed", "busy_shed", "shutdown_shed",
        "batches", "groups", "coalesced_jobs", "memo_hits", "memo_stores",
        "warm_hits", "spectrum_qd_steps",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {k: 0 for k in self._COUNTERS}
        self._queue_wait_s = 0.0
        self._exec_s = 0.0

    def bump(self, name: str, by: int = 1) -> None:
        """Increment one named counter."""
        with self._lock:
            self._counts[name] += by

    def time_spent(self, queue_wait_s: float = 0.0,
                   exec_s: float = 0.0) -> None:
        """Accumulate queue-wait / execution wall time."""
        with self._lock:
            self._queue_wait_s += queue_wait_s
            self._exec_s += exec_s

    def snapshot(self) -> Dict[str, Any]:
        """Consistent copy of every counter plus accumulated times."""
        with self._lock:
            out: Dict[str, Any] = dict(self._counts)
            out["queue_wait_s"] = self._queue_wait_s
            out["exec_s"] = self._exec_s
            return out


def _split_payload(
    payload: Dict[str, Any],
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Partition a workload payload into (arrays, JSON-able scalars)."""
    arrays: Dict[str, np.ndarray] = {}
    scalars: Dict[str, Any] = {}
    for key, value in payload.items():
        if isinstance(value, np.ndarray):
            arrays[key] = value
        else:
            scalars[key] = value
    return arrays, scalars


def _vmhwm_mb() -> float:
    """This process's peak resident set (VmHWM), in MB (10^6 bytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# ---------------------------------------------------------------------- #
# lanes: the group-execution function and the state it runs against
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class LaneConfig:
    """What a lane needs to build its state (picklable, sent to lanes)."""

    index: int
    pool_entries: int
    pool_max_bytes: Optional[int]
    scratch_root: pathlib.Path
    max_retries: int
    #: Whether the daemon memoizes results in an artifact store (then
    #: memoized scf results are answered by the store, not pooled).
    memo_store: bool


@dataclass
class GroupOutcome:
    """One group's answers, in spec order, and the lane's counters.

    An answer is ``("ok", payload, meta)`` or ``("error", response)``.
    ``counts`` are this group's increments of the lane-side counters;
    ``pool`` and ``vmhwm_mb`` are the lane's totals after the group.
    """

    answers: List[Tuple[Any, ...]]
    counts: Dict[str, int]
    pool: Dict[str, int]
    vmhwm_mb: float
    spans: List[SpanRecord] = field(default_factory=list)
    epoch: float = 0.0


class LaneState:
    """What one lane owns for its whole life: its warm pool and scratch.

    Each deadline scope a group arms extends ``lease`` to its expiry.
    """

    def __init__(self, config: LaneConfig, lease: Lease) -> None:
        self.config = config
        self.lease = lease
        self.pool = WarmStatePool(max_entries=config.pool_entries,
                                  max_bytes=config.pool_max_bytes)
        self.scratch = pathlib.Path(config.scratch_root) / f"lane{config.index}"
        self._exec_counter = itertools.count(1)

    def execute(self, specs: Tuple[JobSpec, ...]) -> GroupOutcome:
        """One coalesced execution; one answer per spec, errors typed."""
        counts = {"warm_hits": 0, "spectrum_qd_steps": 0}
        kind = specs[0].kind
        answers: Dict[str, Tuple[Any, ...]] = {}
        with trace_span("serve.group", "serve", kind=kind, jobs=len(specs),
                        lane=self.config.index):
            try:
                with watching_deadlines(self.lease.extend):
                    computed = self._compute(kind, list(specs), counts)
                for spec, payload, meta in computed:
                    answers[spec.job_id] = ("ok", payload, meta)
            except BaseException as exc:  # noqa: BLE001 -- per-job typed errors
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                for spec in specs:
                    answers.setdefault(
                        spec.job_id,
                        ("error", error_response(spec.job_id, exc)))
        return GroupOutcome([answers[s.job_id] for s in specs], counts,
                            self.pool.stats(), _vmhwm_mb())

    def _scratch_dir(self, specs: Tuple[JobSpec, ...]) -> pathlib.Path:
        name = f"{group_signature(specs)[:16]}-{next(self._exec_counter)}"
        return self.scratch / name

    def _compute(
        self, kind: str, specs: List[JobSpec], counts: Dict[str, int],
    ) -> List[Tuple[JobSpec, Dict[str, Any], Dict[str, Any]]]:
        if kind == "scf":
            return self._compute_scf(specs, counts)
        if kind == "spectrum":
            return self._compute_spectrum(specs, counts)
        if kind == "ensemble":
            return self._compute_ensemble(specs)
        out = []
        for spec in specs:
            with trace_span("serve.job", "serve", kind=kind,
                            job=spec.job_id, lane=self.config.index):
                payload = workloads.run_payload(
                    spec.params,
                    supervise_dir=self._scratch_dir((spec,)),
                    deadline_s=spec.deadline_s,
                    max_retries=self.config.max_retries,
                )
            out.append((spec, payload, {}))
        return out

    def _compute_scf(
        self, specs: List[JobSpec], counts: Dict[str, int],
    ) -> List[Tuple[JobSpec, Dict[str, Any], Dict[str, Any]]]:
        from repro.qxmd.scf import scf_solve_batch

        warm: Dict[str, Dict[str, Any]] = {}
        cold: List[JobSpec] = []
        for spec in specs:
            pooled = self.pool.get(warm_key(spec))
            if pooled is not None:
                warm[spec.job_id] = pooled
                counts["warm_hits"] += 1
            else:
                cold.append(spec)
        solved: Dict[str, Dict[str, Any]] = {}
        if cold:
            budget = min(s.deadline_s for s in cold)
            tasks = [workloads.scf_task(s.params) for s in cold]
            with trace_span("serve.job", "serve", kind="scf",
                            jobs=len(cold), lane=self.config.index):
                with deadline_scope(budget, "serve.scf"):
                    results = scf_solve_batch(tasks)
            for spec, result in zip(cold, results):
                payload = workloads.scf_payload(result)
                if not (self.config.memo_store and spec.memoize):
                    # The store answers a memoized repeat before this
                    # method runs, so pooling it too would only evict.
                    self.pool.put(
                        warm_key(spec), payload,
                        nbytes=lambda p: sum(
                            v.nbytes for v in p.values()
                            if isinstance(v, np.ndarray)
                        ),
                    )
                solved[spec.job_id] = payload
        out = []
        for spec in specs:
            if spec.job_id in warm:
                payload = warm[spec.job_id]
                meta = {"warm": True}
            else:
                payload = solved[spec.job_id]
                meta = {"warm": False}
            out.append((spec, dict(payload), meta))
        return out

    def _compute_spectrum(
        self, specs: List[JobSpec], counts: Dict[str, int],
    ) -> List[Tuple[JobSpec, Dict[str, Any], Dict[str, Any]]]:
        key = warm_key(specs[0])
        pooled = self.pool.get(key)
        warm = pooled is not None
        if warm:
            counts["warm_hits"] += len(specs)
            gs = pooled
        else:
            with trace_span("serve.spectrum.groundstate", "serve",
                            jobs=len(specs), lane=self.config.index):
                gs = workloads.spectrum_ground_state(specs[0].params)
        out = []
        propagated = gs.propagated_steps
        try:
            for spec in specs:
                with trace_span("serve.job", "serve", kind="spectrum",
                                job=spec.job_id, lane=self.config.index):
                    payload = workloads.spectrum_payload(
                        gs, spec.params, deadline_s=spec.deadline_s
                    )
                out.append((spec, payload, {"warm": warm}))
        finally:
            counts["spectrum_qd_steps"] += gs.propagated_steps - propagated
            # Pooled after its jobs, so the size counts the samples
            # they recorded.
            self.pool.put(key, gs, nbytes=lambda g: g.nbytes())
        return out

    def _compute_ensemble(
        self, specs: List[JobSpec]
    ) -> List[Tuple[JobSpec, Dict[str, Any], Dict[str, Any]]]:
        shared = specs[0].params
        path = workloads.ensemble_path(shared)
        nstates = int(shared["nstates"])
        members = []
        for spec in specs:
            istate = spec.params["istate"]
            members.append(EnsembleMember(
                ntraj=int(spec.params["ntraj"]),
                istate=(nstates - 1 if istate is None else int(istate)),
                seed=int(spec.params["seed"]),
            ))
        explicit = [s.params["batch_size"] for s in specs
                    if s.params["batch_size"] is not None]
        config = EnsembleConfig(
            substeps=int(shared["substeps"]),
            policy=workloads.ensemble_policy(shared),
            batch_size=int(explicit[0]) if explicit else None,
            array_backend=shared["array_backend"],
        )
        with EnsembleRun(path, config, members=members) as group:
            results = run_group_supervised(
                group,
                self._scratch_dir(tuple(specs)),
                deadline_s=min(s.deadline_s for s in specs),
                max_retries=self.config.max_retries,
            )
        return [
            (spec, workloads.ensemble_payload(member), {})
            for spec, member in zip(specs, results)
        ]


#: The lane state of a lane process (module state of the OwnedWorker).
_LANE: Optional[LaneState] = None


def _lane(config: LaneConfig) -> LaneState:
    global _LANE
    if _LANE is None:
        lease = worker_lease()
        assert lease is not None, "lane state lives in a lane process"
        _LANE = LaneState(config, lease)
    return _LANE


def _lane_ready(config: LaneConfig) -> int:
    """Lane-process start: build the lane's state; returns the pid."""
    _lane(config)
    return os.getpid()


def _lane_execute(config: LaneConfig, specs: Tuple[JobSpec, ...],
                  trace: bool) -> GroupOutcome:
    """Lane-process body of one group (spans shipped back when traced)."""
    state = _lane(config)
    if not trace:
        return state.execute(specs)
    with tracing() as tracer:
        outcome = state.execute(specs)
    outcome.spans = tracer.records
    outcome.epoch = tracer.epoch
    return outcome


def _lane_invalidate(config: LaneConfig,
                     key: Optional[str]) -> Tuple[int, Dict[str, int]]:
    """Drop pooled entries of a lane; returns (dropped, pool stats)."""
    pool = _lane(config).pool
    return pool.invalidate(key), pool.stats()


class _Lane:
    """The daemon's handle on one lane and the last counts it reported.

    ``status`` is ``stopped`` (no process yet, or it died), ``starting``,
    ``ready`` or ``broken`` (its process would not start).  Every call
    into the lane runs on its own thread, in submission order.
    """

    def __init__(self, config: LaneConfig) -> None:
        self.config = config
        self.index = config.index
        in_process = config.index == 0
        self.worker = (None if in_process
                       else OwnedWorker(f"serve-lane-{config.index}"))
        #: Runs to when the group in flight promised to be done.
        self.lease = Lease() if self.worker is None else self.worker.lease
        self.state = LaneState(config, self.lease) if in_process else None
        self.thread = concurrent.futures.ThreadPoolExecutor(
            max_workers=1,
            thread_name_prefix="serve-exec" if in_process
            else f"serve-lane{config.index}",
        )
        self.status = "ready" if in_process else "stopped"
        self.group: Optional["_Group"] = None
        self.groups = 0
        self.busy_s = 0.0
        self.pool: Dict[str, int] = WarmStatePool().stats()
        self.vmhwm_mb = 0.0

    @property
    def idle(self) -> bool:
        return self.status == "ready" and self.group is None

    @property
    def pid(self) -> Optional[int]:
        return os.getpid() if self.worker is None else self.worker.pid

    # -- lane thread ---------------------------------------------------- #
    def start(self) -> int:
        assert self.worker is not None
        return int(self.worker.call(_lane_ready, self.config))

    def execute(self, specs: Tuple[JobSpec, ...], trace: bool) -> GroupOutcome:
        """Compute one group (on the lane thread)."""
        if self.state is not None:
            return self.state.execute(specs)
        assert self.worker is not None
        outcome: GroupOutcome = self.worker.call(_lane_execute, self.config,
                                                 specs, trace)
        return outcome

    def invalidate(self, key: Optional[str]) -> Tuple[int, Dict[str, int]]:
        """Drop pooled entries (lane 0's pool is thread-safe: any thread)."""
        if self.state is not None:
            return self.state.pool.invalidate(key), self.state.pool.stats()
        assert self.worker is not None
        if not self.worker.alive:
            return 0, self.pool
        result: Tuple[int, Dict[str, int]] = self.worker.call(
            _lane_invalidate, self.config, key)
        return result

    def close(self) -> None:
        if self.worker is not None:
            self.worker.close()

    # -- loop thread ---------------------------------------------------- #
    def snapshot(self) -> Dict[str, Any]:
        in_process = self.worker is None
        return {
            "lane": self.index,
            "pid": self.pid,
            "status": self.status,
            "busy": self.group is not None,
            "groups": self.groups,
            "busy_s": self.busy_s,
            "restarts": 0 if in_process else self.worker.restarts,
            "pool": dict(self.pool),
            "vmhwm_mb": _vmhwm_mb() if in_process else self.vmhwm_mb,
        }


class _QueuedJob:
    """One admitted job: its spec, reply future, and queue timing."""

    __slots__ = ("spec", "future", "queued_at")

    def __init__(self, spec: JobSpec,
                 future: "asyncio.Future[Dict[str, Any]]",
                 queued_at: float) -> None:
        self.spec = spec
        self.future = future
        self.queued_at = queued_at


class _Group:
    """A coalesced group on its way to (or on) a lane."""

    __slots__ = ("specs", "jobs", "keys", "batch", "hung", "watchdog")

    def __init__(self, specs: Tuple[JobSpec, ...],
                 jobs: Tuple[_QueuedJob, ...], keys: Set[str],
                 batch: Optional[str]) -> None:
        self.specs = specs
        self.jobs = jobs
        self.keys = keys
        self.batch = batch
        self.hung = False
        self.watchdog: Optional[asyncio.TimerHandle] = None

    @property
    def deadline_s(self) -> float:
        """The group's budget: its jobs' deadlines, one after another."""
        return sum(s.deadline_s for s in self.specs)

    def expired(self, elapsed_s: float) -> DeadlineExceeded:
        return DeadlineExceeded("serve.group", self.deadline_s, elapsed_s)


class ServeDaemon:
    """The persistent serving loop (one instance per socket)."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.metrics = ServeMetrics()
        self.store: Optional[ArtifactStore] = None
        if config.artifact_root is not None:
            self.store = ArtifactStore(config.artifact_root,
                                       max_bytes=config.artifact_max_bytes)
        self._machine = machine_fingerprint()
        self._queue: "asyncio.Queue[Any]" = asyncio.Queue()
        self._pending = 0
        self._draining = False
        self._drained = asyncio.Event()
        self._started = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._io = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-io"
        )
        self._scratch_root = config.scratch_root
        self._own_scratch = config.scratch_root is None
        self._lanes: List[_Lane] = []
        self._lanes_closed = False
        self._waiting: List[_Group] = []
        self._routes: "OrderedDict[str, int]" = OrderedDict()
        self._tasks: Set["asyncio.Future[Any]"] = set()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def run(self, install_signals: bool = True) -> None:
        """Serve until drained (SIGTERM or the ``shutdown`` op)."""
        loop = asyncio.get_running_loop()
        self._loop = loop
        if self._scratch_root is None:
            self._scratch_root = pathlib.Path(
                await loop.run_in_executor(
                    self._io,
                    lambda: tempfile.mkdtemp(prefix="repro-serve-"),
                )
            )
        self._lanes = [_Lane(LaneConfig(
            index=i,
            pool_entries=self.config.pool_entries,
            pool_max_bytes=self.config.pool_max_bytes,
            scratch_root=self._scratch_root,
            max_retries=self.config.max_retries,
            memo_store=self.store is not None,
        )) for i in range(lane_count())]
        if install_signals:
            import signal

            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.begin_drain)
                except (NotImplementedError, RuntimeError):
                    break
        socket_path = self.config.socket_path
        try:
            await loop.run_in_executor(
                self._io, self._prepare_socket_dir, socket_path
            )
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=str(socket_path)
            )
            scheduler = asyncio.ensure_future(self._scheduler())
            self._started.set()
            try:
                await self._drained.wait()
            finally:
                self.begin_drain()
                await scheduler
                # Let in-flight response writes (e.g. the shutdown op's
                # own acknowledgement) flush before tearing the server
                # down.
                await asyncio.sleep(0.05)
                self._server.close()
                await self._server.wait_closed()
        finally:
            await self._close_lanes()
            await loop.run_in_executor(self._io, self._cleanup)
            self._io.shutdown(wait=True)

    @staticmethod
    def _prepare_socket_dir(socket_path: pathlib.Path) -> None:
        socket_path.parent.mkdir(parents=True, exist_ok=True)
        if socket_path.exists():
            socket_path.unlink()

    def _cleanup(self) -> None:
        if self.config.socket_path.exists():
            self.config.socket_path.unlink()
        if self._own_scratch and self._scratch_root is not None \
                and self._scratch_root.exists():
            shutil.rmtree(self._scratch_root, ignore_errors=True)

    async def _close_lanes(self) -> None:
        """Join every lane: after its queued calls, its process exits."""
        if self._lanes_closed:
            return
        self._lanes_closed = True
        loop = asyncio.get_running_loop()
        await asyncio.gather(*(loop.run_in_executor(lane.thread, lane.close)
                               for lane in self._lanes))
        for lane in self._lanes:
            lane.thread.shutdown(wait=True)

    def begin_drain(self) -> None:
        """Stop admission; the scheduler flushes and signals drained.

        Sync and idempotent so it can be a signal handler.
        """
        if self._draining:
            return
        self._draining = True
        self._queue.put_nowait(_SENTINEL)

    def _spawn(self, coro: Any) -> None:
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._task_done)

    def _task_done(self, task: "asyncio.Future[Any]") -> None:
        self._tasks.discard(task)
        if not task.cancelled() and task.exception() is not None:
            task.get_loop().call_exception_handler({
                "message": "serve daemon task failed",
                "exception": task.exception(), "future": task})

    # ------------------------------------------------------------------ #
    # connection handling (async; must never block -- DCL017 territory)
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError as exc:  # the line overran the limit
                    writer.write(dumps_line(protocol_error_response(
                        ProtocolError(f"request line too long: {exc}"))))
                    await writer.drain()
                    break
                if not line:
                    break
                try:
                    request = loads_line(line)
                    response = await self._dispatch(request)
                except ProtocolError as exc:
                    response = protocol_error_response(exc)
                writer.write(dumps_line(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()

    async def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        if op == "ping":
            return {"protocol": PROTOCOL, "status": "ok", "op": "ping"}
        if op == "stats":
            return {"protocol": PROTOCOL, "status": "ok", "op": "stats",
                    "stats": self.stats()}
        if op == "invalidate":
            return await self._op_invalidate(request)
        if op == "shutdown":
            self.begin_drain()
            await self._drained.wait()
            return {"protocol": PROTOCOL, "status": "ok", "op": "shutdown"}
        if op == "submit":
            return await self._op_submit(request)
        raise ProtocolError(f"unknown op {op!r}")

    async def _op_invalidate(self,
                             request: Dict[str, Any]) -> Dict[str, Any]:
        scope = request.get("scope", "pool")
        if scope not in ("pool", "artifacts", "all"):
            raise ProtocolError(f"unknown invalidate scope {scope!r}")
        loop = asyncio.get_running_loop()
        dropped_pool = dropped_artifacts = 0
        if scope in ("pool", "all"):
            key = request.get("key")
            lanes = [lane for lane in self._lanes
                     if lane.status in ("ready", "starting")]
            # Lane 0 answers even while its thread computes (or hangs).
            results = await asyncio.gather(
                *(loop.run_in_executor(
                    self._io if lane.worker is None else lane.thread,
                    lane.invalidate, key) for lane in lanes),
                return_exceptions=True)
            for lane, result in zip(lanes, results):
                if isinstance(result, BaseException):
                    continue  # a dead lane's pool died with it
                dropped, lane.pool = result
                dropped_pool += dropped
        if scope in ("artifacts", "all") and self.store is not None:
            dropped_artifacts = await loop.run_in_executor(
                self._io, self.store.clear
            )
        return {"protocol": PROTOCOL, "status": "ok", "op": "invalidate",
                "dropped": {"pool": dropped_pool,
                            "artifacts": dropped_artifacts}}

    async def _op_submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        raw_jobs = request.get("jobs")
        if not isinstance(raw_jobs, list) or not raw_jobs:
            raise ProtocolError("submit needs a non-empty 'jobs' list")
        loop = asyncio.get_running_loop()
        responses: List[Any] = []
        waiting: List["asyncio.Future[Dict[str, Any]]"] = []
        for raw in raw_jobs:
            self.metrics.bump("submitted")
            if not isinstance(raw, dict):
                responses.append(error_response(
                    "?", ProtocolError("each job must be an object")))
                self.metrics.bump("failed")
                continue
            try:
                spec = validate_job(raw, self.config.default_deadline_s)
            except (ValueError, TypeError) as exc:
                responses.append(error_response(
                    str(raw.get("id", "?")), exc))
                self.metrics.bump("failed")
                continue
            if self._draining:
                responses.append(shutdown_response(spec.job_id))
                self.metrics.bump("shutdown_shed")
                continue
            if self._pending >= self.config.max_queue:
                responses.append(busy_response(
                    spec.job_id, self._pending, self.config.max_queue))
                self.metrics.bump("busy_shed")
                continue
            future: "asyncio.Future[Dict[str, Any]]" = loop.create_future()
            self._pending += 1
            self._queue.put_nowait(_QueuedJob(spec, future, loop.time()))
            responses.append(future)
            waiting.append(future)
        if waiting:
            await asyncio.wait(waiting)
        jobs_out = [r.result() if isinstance(r, asyncio.Future) else r
                    for r in responses]
        return {"protocol": PROTOCOL, "status": "ok", "op": "submit",
                "jobs": jobs_out}

    # ------------------------------------------------------------------ #
    # scheduler: batches in, groups out to lanes
    # ------------------------------------------------------------------ #
    async def _scheduler(self) -> None:
        while True:
            item = await self._queue.get()
            if item is _SENTINEL:
                break
            if self._draining:
                self._shed([item])
                continue
            batch = await self._assemble_batch(item)
            self._spawn(self._admit(batch))
            if self._draining:
                break
        self._flush_shutdown()
        # Admissions finish (shedding what they still hold), in-flight
        # groups finish, lane starts finish; the lanes close after.
        while self._tasks:
            await asyncio.wait(list(self._tasks))
        await self._close_lanes()
        self._drained.set()

    async def _assemble_batch(self, first: _QueuedJob) -> List[_QueuedJob]:
        """Take jobs while each arrives within ``ARRIVAL_GAP_S`` of the last.

        The batch also ends at ``max_batch`` jobs or when a drain begins.
        """
        batch = [first]
        while len(batch) < self.config.policy.max_batch:
            try:
                item = await asyncio.wait_for(self._queue.get(),
                                              ARRIVAL_GAP_S)
            except asyncio.TimeoutError:
                break
            if item is _SENTINEL:
                # Drain began: the batch is shed by its admission, the
                # outer loop flushes the rest.
                break
            batch.append(item)
        return batch

    async def _admit(self, batch: List[_QueuedJob]) -> None:
        """Answer memo hits, group the rest and queue the groups for lanes."""
        loop = asyncio.get_running_loop()
        now = loop.time()
        for job in batch:
            self.metrics.time_spent(queue_wait_s=now - job.queued_at)
        self.metrics.bump("batches")
        fresh = batch
        if self.store is not None and any(j.spec.memoize for j in batch):
            answered = await loop.run_in_executor(
                self._io, self._answer_memoized, [j.spec for j in batch])
            fresh = []
            for job in batch:
                response = answered.get(job.spec.job_id)
                if response is None:
                    fresh.append(job)
                else:
                    self._resolve(job, response)
        if self._draining:
            self._shed(fresh)
            return
        for specs, jobs in group_jobs([j.spec for j in fresh], fresh):
            self._enqueue(specs, jobs)
        self._pump()

    def _enqueue(self, specs: Tuple[JobSpec, ...],
                 jobs: Tuple[_QueuedJob, ...]) -> None:
        """Queue a group for a lane, joining a compatible one that waits.

        Jobs that arrive while the lanes they may use are busy coalesce
        with a waiting group of their batch key, up to ``max_batch``
        jobs, as they would have queued into one batch behind one worker.
        """
        new = self._group(specs, jobs)
        for i, group in enumerate(self._waiting):
            if (new.batch is not None and group.batch == new.batch
                    and len(group.specs) + len(specs)
                    <= self.config.policy.max_batch):
                self._waiting[i] = self._group(group.specs + specs,
                                               group.jobs + jobs)
                return
        self._waiting.append(new)

    def _pool_key(self, spec: JobSpec) -> Optional[str]:
        """The warm key a job builds or reads in its lane's pool, if any."""
        if spec.kind == "spectrum" or (
                spec.kind == "scf"
                and not (self.store is not None and spec.memoize)):
            return warm_key(spec)
        return None

    def _group(self, specs: Tuple[JobSpec, ...],
               jobs: Tuple[_QueuedJob, ...]) -> _Group:
        keys = {k for k in map(self._pool_key, specs) if k is not None}
        return _Group(specs, jobs, keys, batch_key(specs[0]))

    def _owner(self, spec: JobSpec) -> Optional[int]:
        key = self._pool_key(spec)
        return None if key is None else self._routes.get(key)

    def _pump(self) -> None:
        """Hand waiting groups to lanes that may take them, in order."""
        if self._draining:
            waiting, self._waiting = self._waiting, []
            for group in waiting:
                self._shed(group.jobs)
            return
        i = 0
        while i < len(self._waiting):
            group = self._waiting[i]
            owners = {self._routes[k] for k in group.keys
                      if k in self._routes}
            if len(owners) > 1:
                self._waiting[i:i + 1] = self._split(group)
                continue
            if owners:
                lane: Optional[_Lane] = self._lanes[owners.pop()]
            else:
                lane = min((ln for ln in self._lanes if ln.idle),
                           key=lambda ln: ln.busy_s, default=None)
            if lane is None or not lane.idle:
                i += 1
                continue
            del self._waiting[i]
            self._dispatch_group(lane, group)
        if self._waiting:
            self._maybe_start_lane()

    def _split(self, group: _Group) -> List[_Group]:
        """An scf group whose warm keys live on different lanes, by lane."""
        parts: Dict[Optional[int], List[int]] = {}
        for i, spec in enumerate(group.specs):
            parts.setdefault(self._owner(spec), []).append(i)
        return [self._group(tuple(group.specs[i] for i in idx),
                            tuple(group.jobs[i] for i in idx))
                for idx in parts.values()]

    def _maybe_start_lane(self) -> None:
        """Start one lane when an unrouted group waits and none is idle."""
        if any(ln.idle or ln.status == "starting" for ln in self._lanes):
            return
        if not any(not any(k in self._routes for k in g.keys)
                   for g in self._waiting):
            return  # every waiting group waits for its owner lane
        lane = next((ln for ln in self._lanes if ln.status == "stopped"),
                    None)
        if lane is not None:
            lane.status = "starting"
            self._spawn(self._start_lane(lane))

    async def _start_lane(self, lane: _Lane) -> None:
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(lane.thread, lane.start)
        except Exception as exc:  # dclint: disable=DCL004 -- reported, lane retired
            lane.status = "broken"
            print(f"serve: lane {lane.index} failed to start: {exc}",
                  flush=True)
        else:
            lane.status = "ready"
        self._pump()

    def _dispatch_group(self, lane: _Lane, group: _Group) -> None:
        for key in group.keys:
            self._routes[key] = lane.index
            self._routes.move_to_end(key)
        while len(self._routes) > _MAX_ROUTES:
            self._routes.popitem(last=False)
        lane.group = group
        self.metrics.bump("groups")
        if len(group.specs) > 1:
            self.metrics.bump("coalesced_jobs", by=len(group.specs))
        self._spawn(self._run_group(lane, group))

    async def _run_group(self, lane: _Lane, group: _Group) -> None:
        loop = asyncio.get_running_loop()
        tracer = get_tracer()
        ship_spans = tracer.enabled and lane.worker is not None
        t0 = time.monotonic()
        lane.lease.set(t0 + group.deadline_s)
        self._watch(lane, group, t0)
        outcome: Optional[GroupOutcome] = None
        failure: Optional[BaseException] = None
        try:
            outcome = await loop.run_in_executor(
                lane.thread, lane.execute, group.specs, ship_spans)
        except Exception as exc:  # dclint: disable=DCL004 -- answered per job, typed
            failure = exc
        finally:
            if group.watchdog is not None:
                group.watchdog.cancel()
        elapsed = time.monotonic() - t0
        lane.groups += 1
        lane.busy_s += elapsed
        lane.group = None
        self.metrics.time_spent(exec_s=elapsed)
        if isinstance(failure, WorkerCrashError):
            lane.status = "stopped"
            lane.pool = WarmStatePool().stats()  # died with the process
            for key in [k for k, i in self._routes.items()
                        if i == lane.index]:
                del self._routes[key]
        if outcome is not None:
            for name, by in outcome.counts.items():
                self.metrics.bump(name, by)
            lane.pool = outcome.pool
            lane.vmhwm_mb = outcome.vmhwm_mb
            if outcome.spans and tracer.enabled:
                tracer.adopt(outcome.spans, outcome.epoch, lane=lane.index)
        self._pump()
        if group.hung:
            failure = group.expired(elapsed)
        if failure is not None:
            for job in group.jobs:
                self._resolve(job, error_response(job.spec.job_id, failure))
            return
        assert outcome is not None
        await self._answer(group, outcome)

    def _watch(self, lane: _Lane, group: _Group, t0: float) -> None:
        """Check the lane's lease at its end plus the grace, until the
        group returns; past it, the group is hung: fail it typed."""
        if lane.group is not group:
            return
        wait_s = lane.lease.until + HANG_GRACE_S - time.monotonic()
        if wait_s > 0:
            group.watchdog = asyncio.get_running_loop().call_later(
                wait_s, self._watch, lane, group, t0)
            return
        group.hung = True
        if lane.worker is not None:
            lane.worker.kill()  # its pending call raises WorkerCrashError
            return
        # A thread cannot be killed: answer now, stay busy until it returns.
        failure = group.expired(time.monotonic() - t0)
        for job in group.jobs:
            self._resolve(job, error_response(job.spec.job_id, failure))

    async def _answer(self, group: _Group, outcome: GroupOutcome) -> None:
        """Memoize fresh results on the io thread, then resolve the jobs."""
        if self.store is not None and any(
                answer[0] == "ok" and spec.memoize
                for spec, answer in zip(group.specs, outcome.answers)):
            loop = asyncio.get_running_loop()
            responses = await loop.run_in_executor(
                self._io, self._responses, group.specs, outcome)
        else:
            responses = self._responses(group.specs, outcome)
        for job, response in zip(group.jobs, responses):
            self._resolve(job, response)

    def _resolve(self, job: _QueuedJob, response: Dict[str, Any]) -> None:
        if job.future.done():
            return  # a hung group's late answer
        self._pending -= 1
        job.future.set_result(response)
        status = response.get("status")
        if status == "ok":
            self.metrics.bump("completed")
        elif status == "error":
            self.metrics.bump("failed")

    def _shed(self, jobs: Any) -> None:
        for job in jobs:
            self._resolve(job, shutdown_response(job.spec.job_id))
            self.metrics.bump("shutdown_shed")

    def _flush_shutdown(self) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is not _SENTINEL:
                self._shed([item])
        self._pump()

    # ------------------------------------------------------------------ #
    # artifact store (io thread; blocking is fine here)
    # ------------------------------------------------------------------ #
    def _answer_memoized(
        self, specs: List[JobSpec]
    ) -> Dict[str, Dict[str, Any]]:
        """Responses of the store's hits (and of failed reads), by job id."""
        assert self.store is not None
        responses: Dict[str, Dict[str, Any]] = {}
        for spec in specs:
            if not spec.memoize:
                continue
            try:
                hit = self.store.get(self._artifact_key(spec))
            except Exception as exc:  # dclint: disable=DCL004 -- answered per job, typed
                responses[spec.job_id] = error_response(spec.job_id, exc)
                continue
            if hit is None:
                continue
            arrays, meta = hit
            payload = dict(meta.get("scalars", {}))
            payload.update(arrays)
            self.metrics.bump("memo_hits")
            responses[spec.job_id] = ok_response(
                spec.job_id, payload, {"memoized": True, "coalesced": 1})
        return responses

    def _artifact_key(self, spec: JobSpec) -> ArtifactKey:
        return artifact_key(spec, machine=self._machine)

    def _responses(self, specs: Tuple[JobSpec, ...],
                   outcome: GroupOutcome) -> List[Dict[str, Any]]:
        """Each job's response, memoizing computed results first."""
        out = []
        for spec, answer in zip(specs, outcome.answers):
            if answer[0] != "ok":
                out.append(answer[1])
                continue
            _, payload, meta = answer
            meta.update(memoized=False, coalesced=len(specs))
            try:
                self._memoize(spec, payload)
            except Exception as exc:  # dclint: disable=DCL004 -- answered per job, typed
                out.append(error_response(spec.job_id, exc))
                continue
            out.append(ok_response(spec.job_id, payload, meta))
        return out

    def _memoize(self, spec: JobSpec, payload: Dict[str, Any]) -> None:
        if self.store is None or not spec.memoize:
            return
        arrays, scalars = _split_payload(payload)
        self.store.put(
            self._artifact_key(spec), arrays,
            meta={"scalars": scalars, "kind": spec.kind,
                  "params": spec.params},
        )
        self.metrics.bump("memo_stores")

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """Queue/pool/store/counter snapshot (the ``stats`` op body)."""
        lanes = [lane.snapshot() for lane in self._lanes]
        pool = dict.fromkeys(WarmStatePool().stats(), 0)
        for lane in lanes:
            for name in pool:
                pool[name] += lane["pool"][name]
        out: Dict[str, Any] = {
            "protocol": PROTOCOL,
            "queue_depth": self._pending,
            "max_queue": self.config.max_queue,
            "draining": self._draining,
            "metrics": self.metrics.snapshot(),
            "pool": pool,
            "lanes": lanes,
        }
        if self.store is not None:
            out["artifacts"] = self.store.stats()
        return out


def run_group_supervised(
    group: EnsembleRun,
    checkpoint_dir: pathlib.Path,
    deadline_s: Optional[float] = None,
    max_retries: int = 1,
) -> List[EnsembleResult]:
    """Drive a coalesced group to completion under the run supervisor.

    One round per checkpointed segment; the tightest member deadline is
    the segment budget.  Recoverable faults (worker crashes, deadline
    expiry with relaxation, torn checkpoints) heal instead of failing
    every job in the group.  Returns one result per member.
    """
    from repro.resilience.supervisor import RunSupervisor, SupervisorConfig

    supervisor = RunSupervisor(
        group,
        checkpoint_dir,
        SupervisorConfig(
            checkpoint_every=1,
            max_retries=max_retries,
            deadline_s=deadline_s,
        ),
    )
    supervisor.run(group.rounds_remaining)
    return group.results()


class DaemonHandle:
    """A daemon running on a dedicated thread (tests, benches, CI smoke).

    The production path is ``repro-mesh serve`` (asyncio.run on the main
    thread); this handle exists so a test can stand a real daemon up
    next to its client without forking.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.daemon = ServeDaemon(config)
        self._thread: Optional[threading.Thread] = None

    def start(self, timeout_s: float = 30.0) -> "DaemonHandle":
        """Launch the daemon thread; returns once the socket listens."""
        def _main() -> None:
            asyncio.run(self.daemon.run(install_signals=False))

        self._thread = threading.Thread(target=_main, daemon=True,
                                        name="serve-daemon")
        self._thread.start()
        if not self.daemon._started.wait(timeout_s):
            raise RuntimeError("daemon failed to start in time")
        deadline = time.monotonic() + timeout_s
        while not self.config.socket_path.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("daemon socket never appeared")
            time.sleep(0.005)
        return self

    def stop(self, timeout_s: float = 60.0) -> None:
        """Begin a drain and join the daemon thread."""
        loop = self.daemon._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.daemon.begin_drain)
        if self._thread is not None:
            self._thread.join(timeout_s)
            if self._thread.is_alive():
                raise RuntimeError("daemon failed to drain in time")

    def __enter__(self) -> "DaemonHandle":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
