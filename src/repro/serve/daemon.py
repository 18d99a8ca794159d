"""The serving daemon: a long-lived asyncio loop over a unix socket,
computing on one *lane* per CPU it may run on.

Event-loop discipline (enforced lexically by statlint's DCL017): the
``async`` bodies here never block -- they parse lines, route jobs and
await futures.  Blocking work runs on threads: the *io thread* does
every artifact-store read and write and all other file I/O, and each
lane is driven by a thread of its own that waits on its pipe.

Lanes.  A lane is an :class:`~repro.parallel.owned.OwnedWorker` process
that computes one coalesced group at a time and owns, for its whole
life, a warm-state pool of ``pool_entries`` entries for spectrum ground
states and a scratch directory (:class:`LaneState`); a group's
supervisor checkpoints live under that directory until the group
returns.  There is one lane per CPU in ``os.sched_getaffinity``.  A
lane starts only when a group is waiting and no started lane is idle,
so nothing but the daemon runs before the first group, and the
daemon's own process never computes.  Every lane runs the same
:meth:`LaneState.execute` against its own pool.

Routing.  Each lane reports its pool's keys with every group it
returns.  A spectrum group goes to the lane that holds its warm key
(:func:`repro.serve.jobs.warm_key`) -- in that lane's last report, or
in the group it is computing -- and waits for that lane while it is
busy, so a pooled ground state and its recorded propagation live in
one lane only and no lock guards them across lanes.  Any other group,
and a spectrum group whose key no lane holds, goes to the idle ready
lane with the least busy time.  Jobs that wait for a lane join a
waiting group of their batch key (up to ``max_batch``), so load still
coalesces while every lane is busy.

Job lifecycle::

    client line -> validate -> admission (bounded queue, typed
    ServerBusy shed) -> scheduler assembles a batch (until arrivals
    pause for ARRIVAL_GAP_S, or max_batch jobs) -> io thread answers
    artifact-store memo hits and warm scf hits -> compatibility groups
    -> routed to lanes (the scheduler goes on assembling while lanes
    compute) -> io thread memoizes fresh results -> per-job futures
    resolve -> NDJSON responses.

The pools hold what the store does not answer.  A lane's pool holds
spectrum ground states, each with its recorded kicked propagation (a
spectrum job propagates only the steps its ground state has not
recorded yet; the ``spectrum_qd_steps`` counter sums them).  The
daemon's own pool holds scf results of ``memoize: false`` jobs, or of
every scf job when there is no artifact store; a repeat is answered
from it before dispatch, whichever lane computed it.

Failures.  Every job carries a finite deadline
(:data:`~repro.serve.jobs.DEFAULT_DEADLINE_S` unless it names one),
checked cooperatively inside the lane.  A lane holds a *lease* while it
computes a group: at dispatch it runs to the sum of the group's
deadlines, and every deadline scope the lane arms (a supervisor
segment or ensemble round, a retry's relaxed budget, an scf solve, a
spectrum extension) extends it to that scope's expiry.  A lane still
busy :data:`HANG_GRACE_S` past its lease is hung: its process is
killed and its group's jobs are answered ``DeadlineExceeded``.  A lane
process that dies answers its group's jobs with a typed
``WorkerCrashError``; its keys die with it, and the next start gives an
empty replacement.

``stats`` reports ``metrics`` and ``pool`` summed over the daemon's
pool and every lane's, plus a ``lanes`` list (pid, status, groups, busy
seconds, pool counts and the lane's peak resident set, VmHWM).
``invalidate`` drops the daemon's pool and answers for every lane at
once, from the lanes' reports; it queues the drop on each started
lane's thread, where it lands after the group in flight and before the
next, and a group that returns in between has the keys of the drops
still queued for its lane taken out of its report.  While a tracer is
installed in the daemon's process, a lane returns its spans with each
group result, rebased onto that tracer's epoch and tagged ``lane``.

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
    #: Warm-state pool entry cap, per pool (each lane's and the daemon's).
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


def _payload_nbytes(payload: Dict[str, Any]) -> int:
    """Bytes of a payload's arrays (its warm-pool footprint)."""
    return sum(v.nbytes for v in payload.values()
               if isinstance(v, np.ndarray))


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


@dataclass
class GroupOutcome:
    """One group's answers, in spec order, and the lane's counters.

    An answer is ``("ok", payload, meta)`` or ``("error", response)``.
    ``counts`` are this group's increments of the lane-side counters;
    ``pool``, ``keys`` (each pooled key's footprint) and ``vmhwm_mb``
    are the lane's state after the group.
    """

    answers: List[Tuple[Any, ...]]
    counts: Dict[str, int]
    pool: Dict[str, int]
    keys: Dict[str, int]
    vmhwm_mb: float
    spans: List[SpanRecord] = field(default_factory=list)
    epoch: float = 0.0


class LaneState:
    """What a lane process owns for its whole life: its warm pool and
    scratch.

    Each deadline scope a group arms extends ``lease`` to its expiry.  A
    group's scratch directory holds its supervisor checkpoints, which
    only recovery inside the group reads, so it is removed when the
    group returns; a lane process that starts removes what a killed
    one left in its lane's scratch.
    """

    def __init__(self, config: LaneConfig, lease: Lease) -> None:
        self.config = config
        self.lease = lease
        self.pool = WarmStatePool(max_entries=config.pool_entries,
                                  max_bytes=config.pool_max_bytes)
        self.scratch = pathlib.Path(config.scratch_root) / f"lane{config.index}"
        shutil.rmtree(self.scratch, ignore_errors=True)
        self._exec_counter = itertools.count(1)

    def execute(self, specs: Tuple[JobSpec, ...]) -> GroupOutcome:
        """One coalesced execution; one answer per spec, errors typed."""
        counts = {"warm_hits": 0, "spectrum_qd_steps": 0}
        kind = specs[0].kind
        answers: Dict[str, Tuple[Any, ...]] = {}
        scratch = self.scratch / (f"{group_signature(specs)[:16]}"
                                  f"-{next(self._exec_counter)}")
        with trace_span("serve.group", "serve", kind=kind, jobs=len(specs),
                        lane=self.config.index):
            try:
                with watching_deadlines(self.lease.extend):
                    computed = self._compute(kind, list(specs), counts,
                                             scratch)
                for spec, payload, meta in computed:
                    answers[spec.job_id] = ("ok", payload, meta)
            except BaseException as exc:  # noqa: BLE001 -- per-job typed errors
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                for spec in specs:
                    answers.setdefault(
                        spec.job_id,
                        ("error", error_response(spec.job_id, exc)))
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
        return GroupOutcome([answers[s.job_id] for s in specs], counts,
                            self.pool.stats(), self.pool.keys(), _vmhwm_mb())

    def _compute(
        self, kind: str, specs: List[JobSpec], counts: Dict[str, int],
        scratch: pathlib.Path,
    ) -> List[Tuple[JobSpec, Dict[str, Any], Dict[str, Any]]]:
        if kind == "scf":
            return self._compute_scf(specs)
        if kind == "spectrum":
            return self._compute_spectrum(specs, counts)
        if kind == "ensemble":
            return self._compute_ensemble(specs, scratch)
        out = []
        for i, spec in enumerate(specs):
            with trace_span("serve.job", "serve", kind=kind,
                            job=spec.job_id, lane=self.config.index):
                payload = workloads.run_payload(
                    spec.params,
                    supervise_dir=scratch / f"job{i}",
                    deadline_s=spec.deadline_s,
                    max_retries=self.config.max_retries,
                )
            out.append((spec, payload, {}))
        return out

    def _compute_scf(
        self, specs: List[JobSpec],
    ) -> List[Tuple[JobSpec, Dict[str, Any], Dict[str, Any]]]:
        from repro.qxmd.scf import scf_solve_batch

        tasks = [workloads.scf_task(s.params) for s in specs]
        with trace_span("serve.job", "serve", kind="scf",
                        jobs=len(specs), lane=self.config.index):
            with deadline_scope(min(s.deadline_s for s in specs),
                                "serve.scf"):
                results = scf_solve_batch(tasks)
        return [(spec, workloads.scf_payload(result), {"warm": False})
                for spec, result in zip(specs, results)]

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
        self, specs: List[JobSpec], scratch: pathlib.Path,
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
                scratch,
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


def _lane_invalidate(config: LaneConfig, key: Optional[str]) -> None:
    """Drop a lane's pooled entry ``key`` (every entry with ``None``)."""
    _lane(config).pool.invalidate(key)


class _Lane:
    """The daemon's handle on one lane process and what it last reported.

    ``status`` is ``stopped`` (no process yet, or it died), ``starting``,
    ``ready`` or ``broken`` (its process would not start).  Every call
    into the lane runs on its own thread, in submission order.  ``keys``
    maps each key the lane pools to its footprint, as its last report
    gave them less the drops queued since; ``drops`` are the keys of
    drops queued on the lane thread that have not landed yet.
    """

    def __init__(self, config: LaneConfig) -> None:
        self.config = config
        self.index = config.index
        self.worker = OwnedWorker(f"serve-lane-{config.index}")
        self.thread = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"serve-lane{config.index}")
        self.status = "stopped"
        self.group: Optional["_Group"] = None
        self.groups = 0
        self.busy_s = 0.0
        self.pool: Dict[str, int] = WarmStatePool().stats()
        self.keys: Dict[str, int] = {}
        self.drops: List[Optional[str]] = []
        self.vmhwm_mb = 0.0

    @property
    def idle(self) -> bool:
        return self.status == "ready" and self.group is None

    def holds(self, key: str) -> bool:
        """Whether the lane pools ``key`` or computes a group of it now."""
        return key in self.keys or (self.group is not None
                                    and self.group.key == key)

    def report(self, pool: Dict[str, int], keys: Dict[str, int]) -> None:
        """Take what the lane reported, less the drops still queued."""
        self.pool = pool
        self.keys = keys
        for key in self.drops:
            self.forget(key)

    def forget(self, key: Optional[str]) -> int:
        """Take ``key`` (every key with ``None``) out of the report;
        returns how many went."""
        if key is None:
            gone = len(self.keys)
            self.keys = {}
            return gone
        return 0 if self.keys.pop(key, None) is None else 1

    # -- lane thread ---------------------------------------------------- #
    def start(self) -> int:
        return int(self.worker.call(_lane_ready, self.config))

    def execute(self, specs: Tuple[JobSpec, ...], trace: bool) -> GroupOutcome:
        """Compute one group (on the lane thread)."""
        outcome: GroupOutcome = self.worker.call(_lane_execute, self.config,
                                                 specs, trace)
        return outcome

    def drop(self, key: Optional[str]) -> None:
        """Drop pooled entries in the lane process (a dead one's pool
        died with it)."""
        if self.worker.alive:
            self.worker.call(_lane_invalidate, self.config, key)

    def close(self) -> None:
        self.worker.close()

    # -- loop thread ---------------------------------------------------- #
    def snapshot(self) -> Dict[str, Any]:
        return {
            "lane": self.index,
            "pid": self.worker.pid,
            "status": self.status,
            "busy": self.group is not None,
            "groups": self.groups,
            "busy_s": self.busy_s,
            "restarts": self.worker.restarts,
            "pool": dict(self.pool, entries=len(self.keys),
                         bytes=sum(self.keys.values())),
            "vmhwm_mb": self.vmhwm_mb,
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
    """A coalesced group on its way to (or on) a lane.

    ``key`` is the warm key of a spectrum group's ground state (one per
    group: spectra coalesce only when they share it), else ``None``.
    """

    __slots__ = ("specs", "jobs", "key", "batch", "hung", "watchdog")

    def __init__(self, specs: Tuple[JobSpec, ...],
                 jobs: Tuple[_QueuedJob, ...]) -> None:
        self.specs = specs
        self.jobs = jobs
        self.key = (warm_key(specs[0]) if specs[0].kind == "spectrum"
                    else None)
        self.batch = batch_key(specs[0])
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
        #: scf results the store does not answer (see :meth:`_pooled`).
        self.pool = WarmStatePool(max_entries=config.pool_entries,
                                  max_bytes=config.pool_max_bytes)
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
            dropped_pool = self.pool.invalidate(key)
            for lane in self._lanes:
                dropped_pool += lane.forget(key)
                if (lane.status in ("ready", "starting")
                        and not self._lanes_closed):
                    lane.drops.append(key)
                    self._spawn(self._drop_on_lane(lane, key))
        if scope in ("artifacts", "all") and self.store is not None:
            dropped_artifacts = await loop.run_in_executor(
                self._io, self.store.clear
            )
        return {"protocol": PROTOCOL, "status": "ok", "op": "invalidate",
                "dropped": {"pool": dropped_pool,
                            "artifacts": dropped_artifacts}}

    async def _drop_on_lane(self, lane: _Lane, key: Optional[str]) -> None:
        """Apply a drop in the lane process, after its group in flight."""
        try:
            await asyncio.get_running_loop().run_in_executor(
                lane.thread, lane.drop, key)
        except WorkerCrashError:
            pass  # the lane died: its pool died with it
        finally:
            lane.drops.remove(key)

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
        """Answer memo and warm hits, group the rest and queue the groups
        for lanes."""
        loop = asyncio.get_running_loop()
        now = loop.time()
        for job in batch:
            self.metrics.time_spent(queue_wait_s=now - job.queued_at)
        self.metrics.bump("batches")
        fresh = batch
        if any(self._memoized(j.spec) or self._pooled(j.spec)
               for j in batch):
            answered = await loop.run_in_executor(
                self._io, self._answer_stored, [j.spec for j in batch])
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
        new = _Group(specs, jobs)
        for i, group in enumerate(self._waiting):
            if (new.batch is not None and group.batch == new.batch
                    and len(group.specs) + len(specs)
                    <= self.config.policy.max_batch):
                self._waiting[i] = _Group(group.specs + specs,
                                          group.jobs + jobs)
                return
        self._waiting.append(new)

    def _memoized(self, spec: JobSpec) -> bool:
        """Whether the artifact store answers and keeps this job."""
        return self.store is not None and spec.memoize

    def _pooled(self, spec: JobSpec) -> bool:
        """Whether the daemon's pool answers and keeps this job: scf
        results the store does not memoize."""
        return spec.kind == "scf" and not self._memoized(spec)

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
            lane = self._owner(group)
            if lane is None:
                lane = min((ln for ln in self._lanes if ln.idle),
                           key=lambda ln: ln.busy_s, default=None)
            if lane is None or not lane.idle:
                i += 1
                continue
            del self._waiting[i]
            self._dispatch_group(lane, group)
        if self._waiting:
            self._maybe_start_lane()

    def _owner(self, group: _Group) -> Optional[_Lane]:
        """The lane that holds a spectrum group's warm key, if any."""
        if group.key is None:
            return None
        return next((ln for ln in self._lanes if ln.holds(group.key)), None)

    def _maybe_start_lane(self) -> None:
        """Start one lane when an unowned group waits and none is idle."""
        if any(ln.idle or ln.status == "starting" for ln in self._lanes):
            return
        if all(self._owner(g) is not None for g in self._waiting):
            return  # every waiting group waits for the lane holding its key
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
        lane.group = group
        self.metrics.bump("groups")
        if len(group.specs) > 1:
            self.metrics.bump("coalesced_jobs", by=len(group.specs))
        self._spawn(self._run_group(lane, group))

    async def _run_group(self, lane: _Lane, group: _Group) -> None:
        loop = asyncio.get_running_loop()
        tracer = get_tracer()
        t0 = time.monotonic()
        lane.worker.lease.set(t0 + group.deadline_s)
        self._watch(lane, group)
        outcome: Optional[GroupOutcome] = None
        failure: Optional[BaseException] = None
        try:
            outcome = await loop.run_in_executor(
                lane.thread, lane.execute, group.specs, tracer.enabled)
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
            lane.report(WarmStatePool().stats(), {})  # died with the process
        if outcome is not None:
            for name, by in outcome.counts.items():
                self.metrics.bump(name, by)
            lane.report(outcome.pool, outcome.keys)
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

    def _watch(self, lane: _Lane, group: _Group) -> None:
        """Check the lane's lease at its end plus the grace, until the
        group returns; past it, the group is hung: kill the lane, whose
        pending call then raises and the group is failed typed."""
        if lane.group is not group:
            return
        wait_s = lane.worker.lease.until + HANG_GRACE_S - time.monotonic()
        if wait_s > 0:
            group.watchdog = asyncio.get_running_loop().call_later(
                wait_s, self._watch, lane, group)
            return
        group.hung = True
        lane.worker.kill()

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
    def _answer_stored(
        self, specs: List[JobSpec]
    ) -> Dict[str, Dict[str, Any]]:
        """Responses of the store's and the daemon pool's hits (and of
        failed store reads), by job id."""
        responses: Dict[str, Dict[str, Any]] = {}
        for spec in specs:
            if self._pooled(spec):
                pooled = self.pool.get(warm_key(spec))
                if pooled is not None:
                    self.metrics.bump("warm_hits")
                    responses[spec.job_id] = ok_response(
                        spec.job_id, pooled,
                        {"warm": True, "memoized": False, "coalesced": 1})
                continue
            if not self._memoized(spec):
                continue
            assert self.store is not None
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
            if self._pooled(spec):
                self.pool.put(warm_key(spec), payload, nbytes=_payload_nbytes)
            try:
                self._memoize(spec, payload)
            except Exception as exc:  # dclint: disable=DCL004 -- answered per job, typed
                out.append(error_response(spec.job_id, exc))
                continue
            out.append(ok_response(spec.job_id, payload, meta))
        return out

    def _memoize(self, spec: JobSpec, payload: Dict[str, Any]) -> None:
        if not self._memoized(spec):
            return
        assert self.store is not None
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
        pool = self.pool.stats()
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
