"""The serving daemon: a long-lived asyncio loop over a unix socket.

Event-loop discipline (enforced lexically by statlint's DCL017): the
``async`` bodies here never block -- they parse lines, route jobs and
await futures.  All compute runs in a single dedicated worker thread
via ``run_in_executor`` (one worker, because the workloads are
internally parallel and a second concurrent batch would thrash the
same cores), and all blocking file I/O (artifact store, checkpoint
scratch) happens on that thread too.

Job lifecycle::

    client line -> validate -> admission (bounded queue, typed
    ServerBusy shed) -> scheduler assembles a batch (until arrivals
    pause for ARRIVAL_GAP_S, or max_batch jobs) -> compatibility groups
    -> one coalesced execution per group on the worker thread
    (artifact-store memo hits answered first, warm-state pool reuse,
    RunSupervisor + deadline budgets) -> per-job futures resolve ->
    NDJSON responses.

The pool holds what the store does not answer: spectrum ground states,
each with its recorded kicked propagation (a spectrum job propagates
only the steps its ground state has not recorded yet; the
``spectrum_qd_steps`` counter sums them), and scf results of
``memoize: false`` jobs or of a daemon without an artifact store.  Only
the worker thread extends a pooled propagation record.

A request line longer than the stream limit (asyncio's 64 KiB) cannot
be framed: it gets a typed ``ProtocolError`` response and the
connection closes.

Drain: SIGTERM (or the ``shutdown`` op) stops admission, lets the
in-flight group finish, resolves still-queued jobs with typed
``ServerShutdown`` responses, then closes the server.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import pathlib
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.artifacts import ArtifactKey, ArtifactStore, machine_fingerprint
from repro.ensemble.engine import (
    EnsembleConfig,
    EnsembleMember,
    EnsembleResult,
    EnsembleRun,
)
from repro.obs import trace_span
from repro.resilience.liveness import deadline_scope
from repro.serve import workloads
from repro.serve.jobs import (
    JobSpec,
    artifact_key,
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


@dataclass(frozen=True)
class ServeConfig:
    """Everything the daemon needs to start."""

    socket_path: pathlib.Path
    artifact_root: Optional[pathlib.Path] = None
    artifact_max_bytes: Optional[int] = None
    scratch_root: Optional[pathlib.Path] = None
    policy: BatchPolicy = field(default_factory=BatchPolicy)
    max_queue: int = 64
    pool_entries: int = 8
    pool_max_bytes: Optional[int] = None
    default_deadline_s: Optional[float] = None
    max_retries: int = 1

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError("max_queue must be positive")


class ServeMetrics:
    """Thread-safe serving counters (worker thread writes, loop reads)."""

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


class _QueuedJob:
    """One admitted job: its spec, reply future, and queue timing."""

    __slots__ = ("spec", "future", "queued_at")

    def __init__(self, spec: JobSpec,
                 future: "asyncio.Future[Dict[str, Any]]",
                 queued_at: float) -> None:
        self.spec = spec
        self.future = future
        self.queued_at = queued_at


class ServeDaemon:
    """The persistent serving loop (one instance per socket)."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.metrics = ServeMetrics()
        self.pool = WarmStatePool(max_entries=config.pool_entries,
                                  max_bytes=config.pool_max_bytes)
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
        self._worker = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-exec"
        )
        self._exec_counter = itertools.count(1)
        self._scratch_root = config.scratch_root
        self._own_scratch = config.scratch_root is None

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
                    self._worker,
                    lambda: tempfile.mkdtemp(prefix="repro-serve-"),
                )
            )
        if install_signals:
            import signal

            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.begin_drain)
                except (NotImplementedError, RuntimeError):
                    break
        socket_path = self.config.socket_path
        await loop.run_in_executor(
            self._worker, self._prepare_socket_dir, socket_path
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
            # Let in-flight response writes (e.g. the shutdown op's own
            # acknowledgement) flush before tearing the server down.
            await asyncio.sleep(0.05)
            self._server.close()
            await self._server.wait_closed()
            await loop.run_in_executor(self._worker, self._cleanup)
            self._worker.shutdown(wait=True)

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

    def begin_drain(self) -> None:
        """Stop admission; the scheduler flushes and signals drained.

        Sync and idempotent so it can be a signal handler.
        """
        if self._draining:
            return
        self._draining = True
        self._queue.put_nowait(_SENTINEL)

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
        dropped_pool = dropped_artifacts = 0
        if scope in ("pool", "all"):
            dropped_pool = self.pool.invalidate(request.get("key"))
        if scope in ("artifacts", "all") and self.store is not None:
            loop = asyncio.get_running_loop()
            dropped_artifacts = await loop.run_in_executor(
                self._worker, self.store.clear
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
    # scheduler
    # ------------------------------------------------------------------ #
    async def _scheduler(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            item = await self._queue.get()
            if item is _SENTINEL:
                self._flush_shutdown()
                break
            if self._draining:
                self._resolve(item, shutdown_response(item.spec.job_id))
                self.metrics.bump("shutdown_shed")
                continue
            batch = await self._assemble_batch(item)
            await self._run_batch(loop, batch)
            if self._draining:
                self._flush_shutdown()
                break
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
                # Drain began: finish what we already pulled (in-flight),
                # the outer loop flushes the rest.
                break
            batch.append(item)
        return batch

    async def _run_batch(self, loop: asyncio.AbstractEventLoop,
                         batch: List[_QueuedJob]) -> None:
        now = loop.time()
        for job in batch:
            self.metrics.time_spent(queue_wait_s=now - job.queued_at)
        self.metrics.bump("batches")
        groups = group_jobs([j.spec for j in batch], batch)
        for specs, jobs in groups:
            t0 = loop.time()
            results = await loop.run_in_executor(
                self._worker, self._execute_group, specs
            )
            self.metrics.time_spent(exec_s=loop.time() - t0)
            for job, response in zip(jobs, results):
                self._resolve(job, response)

    def _resolve(self, job: _QueuedJob, response: Dict[str, Any]) -> None:
        self._pending -= 1
        if not job.future.done():
            job.future.set_result(response)
        status = response.get("status")
        if status == "ok":
            self.metrics.bump("completed")
        elif status == "error":
            self.metrics.bump("failed")

    def _flush_shutdown(self) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is _SENTINEL:
                continue
            self._resolve(item, shutdown_response(item.spec.job_id))
            self.metrics.bump("shutdown_shed")

    # ------------------------------------------------------------------ #
    # group execution (worker thread; blocking is fine here)
    # ------------------------------------------------------------------ #
    def _execute_group(
        self, specs: Tuple[JobSpec, ...]
    ) -> List[Dict[str, Any]]:
        """One coalesced execution; returns one response per spec."""
        self.metrics.bump("groups")
        if len(specs) > 1:
            self.metrics.bump("coalesced_jobs", by=len(specs))
        kind = specs[0].kind
        responses: Dict[str, Dict[str, Any]] = {}
        with trace_span("serve.group", "serve", kind=kind,
                        jobs=len(specs)):
            try:
                fresh, responses = self._answer_memoized(specs)
                if fresh:
                    computed = self._compute_group(kind, fresh)
                    for spec, payload, meta in computed:
                        meta.update(memoized=False, coalesced=len(specs))
                        self._memoize(spec, payload, meta)
                        responses[spec.job_id] = ok_response(
                            spec.job_id, payload, meta)
            except BaseException as exc:  # noqa: BLE001 -- per-job typed errors
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                failure = {s.job_id for s in specs} - set(responses)
                for job_id in failure:
                    responses[job_id] = error_response(job_id, exc)
        return [responses[s.job_id] for s in specs]

    def _answer_memoized(
        self, specs: Tuple[JobSpec, ...]
    ) -> Tuple[List[JobSpec], Dict[str, Dict[str, Any]]]:
        """Resolve artifact-store hits; return the still-fresh remainder."""
        responses: Dict[str, Dict[str, Any]] = {}
        fresh: List[JobSpec] = []
        for spec in specs:
            hit = None
            if self.store is not None and spec.memoize:
                hit = self.store.get(self._artifact_key(spec))
            if hit is None:
                fresh.append(spec)
                continue
            arrays, meta = hit
            payload = dict(meta.get("scalars", {}))
            payload.update(arrays)
            self.metrics.bump("memo_hits")
            responses[spec.job_id] = ok_response(
                spec.job_id, payload,
                {"memoized": True, "coalesced": len(specs)},
            )
        return fresh, responses

    def _artifact_key(self, spec: JobSpec) -> ArtifactKey:
        return artifact_key(spec, machine=self._machine)

    def _memoize(self, spec: JobSpec, payload: Dict[str, Any],
                 meta: Dict[str, Any]) -> None:
        if self.store is None or not spec.memoize:
            return
        arrays, scalars = _split_payload(payload)
        self.store.put(
            self._artifact_key(spec), arrays,
            meta={"scalars": scalars, "kind": spec.kind,
                  "params": spec.params},
        )
        self.metrics.bump("memo_stores")

    def _scratch_dir(self, specs: Tuple[JobSpec, ...]) -> pathlib.Path:
        assert self._scratch_root is not None
        name = f"{group_signature(specs)[:16]}-{next(self._exec_counter)}"
        return pathlib.Path(self._scratch_root) / name

    def _compute_group(
        self, kind: str, specs: List[JobSpec]
    ) -> List[Tuple[JobSpec, Dict[str, Any], Dict[str, Any]]]:
        if kind == "scf":
            return self._compute_scf(specs)
        if kind == "spectrum":
            return self._compute_spectrum(specs)
        if kind == "ensemble":
            return self._compute_ensemble(specs)
        out = []
        for spec in specs:
            with trace_span("serve.job", "serve", kind=kind,
                            job=spec.job_id):
                payload = workloads.run_payload(
                    spec.params,
                    supervise_dir=self._scratch_dir((spec,)),
                    deadline_s=spec.deadline_s,
                    max_retries=self.config.max_retries,
                )
            out.append((spec, payload, {}))
        return out

    def _compute_scf(
        self, specs: List[JobSpec]
    ) -> List[Tuple[JobSpec, Dict[str, Any], Dict[str, Any]]]:
        from repro.qxmd.scf import scf_solve_batch

        warm: Dict[str, Dict[str, Any]] = {}
        cold: List[JobSpec] = []
        for spec in specs:
            pooled = self.pool.get(warm_key(spec))
            if pooled is not None:
                warm[spec.job_id] = pooled
                self.metrics.bump("warm_hits")
            else:
                cold.append(spec)
        solved: Dict[str, Dict[str, Any]] = {}
        if cold:
            deadlines = [s.deadline_s for s in cold
                         if s.deadline_s is not None]
            budget = min(deadlines) if deadlines else None
            tasks = [workloads.scf_task(s.params) for s in cold]
            with trace_span("serve.job", "serve", kind="scf",
                            jobs=len(cold)):
                with deadline_scope(budget, "serve.scf"):
                    results = scf_solve_batch(tasks)
            for spec, result in zip(cold, results):
                payload = workloads.scf_payload(result)
                if self.store is None or not spec.memoize:
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
        self, specs: List[JobSpec]
    ) -> List[Tuple[JobSpec, Dict[str, Any], Dict[str, Any]]]:
        key = warm_key(specs[0])
        pooled = self.pool.get(key)
        warm = pooled is not None
        if warm:
            self.metrics.bump("warm_hits", by=len(specs))
            gs = pooled
        else:
            with trace_span("serve.spectrum.groundstate", "serve",
                            jobs=len(specs)):
                gs = workloads.spectrum_ground_state(specs[0].params)
        out = []
        propagated = gs.propagated_steps
        try:
            for spec in specs:
                with trace_span("serve.job", "serve", kind="spectrum",
                                job=spec.job_id):
                    payload = workloads.spectrum_payload(
                        gs, spec.params, deadline_s=spec.deadline_s
                    )
                out.append((spec, payload, {"warm": warm}))
        finally:
            self.metrics.bump("spectrum_qd_steps",
                              by=gs.propagated_steps - propagated)
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
        deadlines = [s.deadline_s for s in specs if s.deadline_s is not None]
        budget = min(deadlines) if deadlines else None
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
                deadline_s=budget,
                max_retries=self.config.max_retries,
            )
        return [
            (spec, workloads.ensemble_payload(member), {})
            for spec, member in zip(specs, results)
        ]

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """Queue/pool/store/counter snapshot (the ``stats`` op body)."""
        out: Dict[str, Any] = {
            "protocol": PROTOCOL,
            "queue_depth": self._pending,
            "max_queue": self.config.max_queue,
            "draining": self._draining,
            "metrics": self.metrics.snapshot(),
            "pool": self.pool.stats(),
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
