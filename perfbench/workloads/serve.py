"""serve_mixed: a closed loop of mixed multi-job requests against the daemon.

``python -m repro.cli serve`` runs in its own process with its default
batching and pool settings and fresh artifact and scratch directories.
Two client threads (one per vCPU) send requests back to back, with zero
think time; each client's request sequence is a pure function of the
benchmark seed (:func:`request_sequence`).  Requests carry several jobs
drawn from five kinds:

* ensemble seed sweeps, which coalesce into one batched swarm;
* scf systems from a working set that fits the default 8-entry warm
  pool (sent unmemoized, so repeats hit the pool), plus one-off systems;
* spectra sharing one ground state per client;
* exact repeats of this client's earlier jobs (artifact-store reads next
  to first-time writes);
* short supervised ``run`` jobs, which write scratch checkpoints.

Every answer must be ``ok``; a repeated job must be bitwise-equal to its
first answer; after the loop one job per kind is recomputed with the
one-shot ``repro.serve.workloads`` functions and must match bitwise.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from perfbench.common import SETUP_SAMPLES, Window, peak_rss_mb_of
from perfbench.workloads import Context

CLIENTS = 2

#: A deck is four strata of five requests: one computed ("slow") request
#: of each kind below, one per stratum, and four fast ones.  Stratifying
#: keeps every stretch of the loop at the same mix, so where a window
#: ends does not change the work it measured.
SLOW_KINDS = ("scf_oneoff", "spectrum", "ensemble_sweep", "run")

#: The 16 fast requests of a deck: exact repeats and warm scf pairs.
FAST_KINDS = ("repeat",) * 11 + ("scf_ws",) * 5

STRATUM = 5

#: scf working-set size (the default warm pool holds 8 entries, shared
#: with the two clients' spectrum ground states and one-off systems).
WORKING_SET = 5

#: Requests generated per client (far more than a window consumes).
SEQUENCE_LENGTH = 800

#: Job kinds each successive repeat request copies (one earlier job each).
REPEAT_KINDS = (("ensemble", "scf"), ("spectrum", "run"),
                ("ensemble", "spectrum"), ("scf", "run"))

ENSEMBLE_SHARED = {"ntraj": 16, "nsteps": 50}
RUN_SHARED = {"grid": 12, "steps": 1, "n_qd": 5}


#: Spectrum jobs take SPECTRUM_STEPS[0] + k QD steps, k < SPECTRUM_STEPS[1],
#: each k used once per client (a sequence of SEQUENCE_LENGTH requests
#: holds 82 spectrum jobs).
SPECTRUM_STEPS = (110, 84)


def _spectrum_plan(seed: int) -> Tuple[List[int], List[List[int]]]:
    """Per-client ground-state seeds and spectrum step counts.

    The clients' ground-state seeds differ, so no spectrum job of one
    client equals one of the other's, and each client uses every step
    count once, in a seeded order, so none of its own spectra repeats
    either: a computed spectrum is never a memo hit by accident.  The
    shuffle keeps the mean spectrum cost the same along the sequence.
    """
    rng = random.Random(f"serve-spectrum:{seed}")
    seeds = rng.sample(range(1 << 30), CLIENTS)
    base, count = SPECTRUM_STEPS
    steps = [rng.sample(range(base, base + count), count)
             for _ in range(CLIENTS)]
    return seeds, steps


def _working_set(seed: int) -> List[Dict[str, Any]]:
    rng = random.Random(f"serve-working-set:{seed}")
    return [{"separation": round(rng.uniform(1.0, 2.0), 6),
             "seed": rng.randrange(1 << 30)} for _ in range(WORKING_SET)]


def _job_key(job: Dict[str, Any]) -> str:
    return json.dumps({"kind": job["kind"], "params": job["params"]},
                      sort_keys=True)


Request = Tuple[str, List[Dict[str, Any]]]


def request_sequence(seed: int, client: int,
                     length: int = SEQUENCE_LENGTH) -> List[Request]:
    """Client ``client``'s requests, ``(kind, raw jobs)``, from ``seed`` only.

    The seed shuffles each deck (within its strata) and draws the job
    parameters; the work in a deck is fixed (repeats cycle through
    :data:`REPEAT_KINDS`), so the seed changes the inputs without
    changing the mix.  A first request of every computed kind gives the
    repeats something to copy.
    """
    rng = random.Random(f"serve-client:{seed}:{client}")
    working_set = _working_set(seed)
    spectrum_seeds, spectrum_steps = _spectrum_plan(seed)
    spectrum_seed = spectrum_seeds[client]
    spectrum_steps = spectrum_steps[client]
    earlier: Dict[str, List[Dict[str, Any]]] = {}  # memoizable, by kind
    requests: List[Request] = []
    repeats = spectra = 0
    first = list(SLOW_KINDS)
    rng.shuffle(first)
    while len(requests) < length:
        slow = list(SLOW_KINDS)
        fast = list(FAST_KINDS)
        rng.shuffle(slow)
        rng.shuffle(fast)
        deck = []
        for i, kind in enumerate(slow):
            stratum = [kind] + fast[i * (STRATUM - 1):(i + 1) * (STRATUM - 1)]
            rng.shuffle(stratum)
            deck.extend(stratum)
        for kind in (first if not requests else deck):
            if kind == "repeat":
                pair = REPEAT_KINDS[repeats % len(REPEAT_KINDS)]
                repeats += 1
                jobs = [{k: v for k, v in rng.choice(earlier[job_kind]).items()
                         if k != "id"} for job_kind in pair]
            elif kind == "scf_ws":
                jobs = [{"kind": "scf", "params": dict(p), "memoize": False}
                        for p in rng.sample(working_set, 2)]
            elif kind == "scf_oneoff":
                jobs = [{"kind": "scf", "params": {
                    "separation": round(rng.uniform(1.0, 2.0), 6),
                    "seed": rng.randrange(1 << 30)}}]
            elif kind == "spectrum":
                if spectra + 2 > len(spectrum_steps):
                    raise ValueError(f"{length} requests need more than "
                                     f"{len(spectrum_steps)} distinct spectra")
                jobs = [{"kind": "spectrum",
                         "params": {"steps": spectrum_steps[spectra + j],
                                    "seed": spectrum_seed}}
                        for j in range(2)]
                spectra += 2
            elif kind == "ensemble_sweep":
                jobs = [{"kind": "ensemble",
                         "params": dict(ENSEMBLE_SHARED,
                                        seed=rng.randrange(1 << 30))}
                        for _ in range(3)]
            else:
                jobs = [{"kind": "run", "params": dict(
                    RUN_SHARED, seed=rng.randrange(1 << 30))}]
            if kind not in ("repeat", "scf_ws"):
                for job in jobs:
                    earlier.setdefault(job["kind"], []).append(job)
            for j, job in enumerate(jobs):
                job["id"] = f"c{client}-r{len(requests)}-j{j}"
            requests.append((kind, jobs))
    return requests[:length]


def payloads_equal(got: Any, want: Any) -> bool:
    """Bitwise equality of two decoded payloads (arrays by dtype+bytes)."""
    import numpy as np

    if isinstance(want, np.ndarray):
        return (isinstance(got, np.ndarray) and got.dtype == want.dtype
                and got.shape == want.shape
                and got.tobytes() == want.tobytes())
    if isinstance(want, dict):
        return (isinstance(got, dict) and set(got) == set(want)
                and all(payloads_equal(got[k], want[k]) for k in want))
    if isinstance(want, (list, tuple)):
        return (isinstance(got, (list, tuple)) and len(got) == len(want)
                and all(payloads_equal(g, w) for g, w in zip(got, want)))
    return bool(got == want) and type(got) is type(want)


# ---------------------------------------------------------------------- #
# the daemon
# ---------------------------------------------------------------------- #
class Daemon:
    """One ``repro.cli serve`` process in its own fresh directory."""

    def __init__(self, directory: pathlib.Path) -> None:
        directory.mkdir(parents=True)
        self.directory = directory
        # Relative to the working directory: a unix socket path holds at
        # most 107 bytes, which a deep checkout's absolute path exceeds.
        self.socket = pathlib.Path(os.path.relpath(directory / "serve.sock"))
        self.log = open(directory / "daemon.log", "wb")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--socket", "serve.sock", "--artifact-root", "artifacts",
             "--scratch-dir", "scratch"],
            cwd=directory, stdout=self.log, stderr=subprocess.STDOUT,
        )

    def wait_ready(self, timeout_s: float = 60.0) -> float:
        """Seconds from spawn until the first ``ping`` answers."""
        from repro.serve import ServeClient

        client = ServeClient(self.socket, timeout_s=10.0)
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}")
            try:
                if client.ping():
                    return time.perf_counter() - self.t0
            except (FileNotFoundError, ConnectionRefusedError):
                pass  # not listening yet; any other error is final
            time.sleep(0.002)
        raise RuntimeError("daemon did not answer ping in time")

    def stop(self) -> None:
        """Drain through the ``shutdown`` op; kill only if that fails."""
        from repro.serve import ServeClient

        try:
            if self.proc.poll() is None:
                ServeClient(self.socket, timeout_s=60.0).shutdown()
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.log.close()


@dataclass
class ServeState:
    """The client plus the daemon it talks to (process or in-process)."""

    client: Any
    daemon: Optional[Daemon]
    handle: Any
    setups: List[float]


def setup(name: str, ctx: Context) -> ServeState:
    """Start the daemon (several times, for the set-up median)."""
    from repro.serve import ServeClient

    if ctx.tracing is not None:
        # The traced run hosts the daemon in-process so the wrappers see
        # its worker thread.
        from repro.serve import DaemonHandle, ServeConfig

        config = ServeConfig(socket_path=pathlib.Path("serve.sock"),
                             artifact_root=ctx.work / "artifacts",
                             scratch_root=ctx.work / "scratch")
        handle = DaemonHandle(config).start()
        return ServeState(ServeClient(config.socket_path), None, handle, [])
    setups = []
    for i in range(SETUP_SAMPLES):
        daemon = Daemon(ctx.work / f"daemon{i}")
        try:
            setups.append(daemon.wait_ready())
        except BaseException:
            daemon.stop()
            raise
        if i + 1 < SETUP_SAMPLES:
            daemon.stop()
    return ServeState(ServeClient(daemon.socket, timeout_s=120.0), daemon,
                      None, setups)


# ---------------------------------------------------------------------- #
# the closed loop
# ---------------------------------------------------------------------- #
class Book:
    """First answers, latencies and failures, shared by the clients."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.lock = threading.Lock()
        self.first: Dict[str, Tuple[Dict[str, Any], Any]] = {}
        self.latencies: List[float] = []
        self.kinds: List[str] = []
        self.ids: List[str] = []
        self.jobs_ok = 0
        self.jobs_sent = 0
        self.failed = 0
        self.traj_steps = 0
        self.ensemble_jobs = 0
        self.ensemble_hops = 0
        self.end = 0.0

    def record(self, kind: str, jobs: List[Dict[str, Any]],
               replies: List[Dict[str, Any]], latency: float) -> None:
        with self.lock:
            self.latencies.append(latency)
            self.kinds.append(kind)
            self.ids.append(jobs[0]["id"])
            self.jobs_sent += len(jobs)
            for job, reply in zip(jobs, replies):
                if not self._check(job, reply):
                    self.failed += 1
                    continue
                self.jobs_ok += 1
                result = reply["result"]
                if job["kind"] == "ensemble":
                    self.traj_steps += int(result["pop_mean"].shape[0]) * int(
                        job["params"]["ntraj"])
                    self.ensemble_jobs += 1
                    self.ensemble_hops += int(result["total_hops"])
                elif job["kind"] == "run":
                    self.traj_steps += int(result["step"].shape[0])

    def _check(self, job: Dict[str, Any], reply: Dict[str, Any]) -> bool:
        if reply.get("status") != "ok":
            self.ctx.fail(f"{job['kind']} job answered {reply.get('status')}: "
                          f"{reply.get('error')}")
            return False
        memoized = bool(reply.get("meta", {}).get("memoized"))
        key = _job_key(job)
        seen = self.first.get(key)
        if seen is None:
            self.first[key] = (job, reply["result"])
            return True
        if not payloads_equal(reply["result"], seen[1]):
            self.ctx.fail(f"{'memo hit' if memoized else 'repeat'} of a "
                          f"{job['kind']} job differs from its first answer")
            return False
        return True


def _client_loop(client: Any, requests: List[Request],
                 book: Book, window: Window, position: List[int],
                 errors: List[BaseException]) -> None:
    try:
        while window.open() and position[0] < len(requests):
            kind, jobs = requests[position[0]]
            position[0] += 1
            t0 = time.perf_counter()
            replies = client.submit(jobs)
            latency = time.perf_counter() - t0
            book.record(kind, jobs, replies, latency)
        with book.lock:
            book.end = max(book.end, time.perf_counter())
    except BaseException as exc:  # noqa: BLE001 -- re-raised by the caller
        errors.append(exc)


def _closed_loop(state: ServeState, sequences: List[List[Request]],
                 positions: List[List[int]], book: Book,
                 seconds: float) -> float:
    """Both clients for ``seconds``; returns the loop's wall time."""
    window = Window(seconds)
    start = time.perf_counter()
    errors: List[BaseException] = []
    threads = [threading.Thread(
        target=_client_loop,
        args=(state.client, sequences[c], book, window, positions[c], errors))
        for c in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=seconds + 120.0)
        if t.is_alive():
            raise RuntimeError("a client thread did not finish")
    if errors:
        raise errors[0]
    return book.end - start


def run(state: ServeState, ctx: Context) -> Dict[str, Any]:
    """The closed loop, then the stats, shutdown and one-shot recompute."""
    sequences = [request_sequence(ctx.seed, c) for c in range(CLIENTS)]
    positions = [[0] for _ in range(CLIENTS)]
    book = Book(ctx)
    out: Dict[str, Any] = {}
    try:
        if ctx.tracing is None:
            loop_wall = _closed_loop(state, sequences, positions, book,
                                     ctx.seconds)
            out["op_walls"] = list(book.latencies)
        else:
            loop_wall, traced = _traced_phases(state, sequences, positions,
                                               book, ctx)
            out.update(traced)
        stats = state.client.stats()
        if state.daemon is not None:
            out["peak_rss_mb"] = peak_rss_mb_of(state.daemon.proc.pid)
    finally:
        if state.daemon is not None:
            state.daemon.stop()
        else:
            state.handle.stop()
    if ctx.tracing is not None:
        out.update(_serve_per_layer(ctx, stats, book, out))
    failed = book.failed + _recompute(book, ctx)
    out.update(
        attempted=book.jobs_sent,
        failed=min(failed, book.jobs_sent),
        jobs=book.jobs_ok,
        traj_steps=book.traj_steps,
        loop_wall=loop_wall,
        requests=len(book.latencies),
        request_kinds=book.kinds,
        setup_samples=state.setups,
        daemon_stats=stats,
    )
    return out


# ---------------------------------------------------------------------- #
# traced run: alternating untraced/traced phases, in-process daemon
# ---------------------------------------------------------------------- #
PHASES = 4


def _traced_phases(state: ServeState, sequences: Any, positions: Any,
                   book: Book, ctx: Context) -> Tuple[float, Dict[str, Any]]:
    tracing = ctx.tracing
    untraced: List[float] = []
    traced: List[float] = []
    traced_jobs = 0
    total = 0.0
    for phase in range(PHASES):
        on = phase % 2 == 1
        before = len(book.latencies)
        jobs_before = book.jobs_sent
        if on:
            tracing.start()
        try:
            total += _closed_loop(state, sequences, positions, book,
                                  ctx.seconds / PHASES)
        finally:
            if on:
                tracing.stop()
        walls = book.latencies[before:]
        (traced if on else untraced).extend(walls)
        if on:
            traced_jobs += book.jobs_sent - jobs_before
    return total, {"op_walls": untraced, "traced_walls": traced,
                   "traced_jobs": traced_jobs}


def _wire_seconds(recorder: Any, book: Book) -> float:
    """Mean client latency not spent inside the daemon, per request.

    The daemon's residence for a request runs from parsing its line to
    encoding its reply (the traced ``loads_line``/``dumps_line`` calls,
    matched by the request's first job id); the rest of the client's
    latency is the wire: client encoding, socket transfer and decoding.
    """
    seen_in: Dict[str, float] = {}
    residence: Dict[str, float] = {}
    for name, key, t in recorder.marks:
        if name == "serve.request_in":
            seen_in[key] = t
        elif name == "serve.reply_out" and key in seen_in:
            residence[key] = t - seen_in[key]
    wires = [lat - residence[rid] for rid, lat in zip(book.ids, book.latencies)
             if rid in residence]
    return sum(wires) / len(wires) if wires else 0.0


def _serve_per_layer(ctx: Context, stats: Dict[str, Any], book: Book,
                     out: Dict[str, Any]) -> Dict[str, Any]:
    from perfbench import layers
    from perfbench.tracing import SpanIndex

    tracing = ctx.tracing
    idx = SpanIndex(tracing.recorder.spans)
    n_jobs = out["traced_jobs"]
    metrics = stats["metrics"]
    pool = stats["pool"]
    completed = max(metrics["completed"], 1)
    values = layers.grid_layers(idx, tracing, n_jobs)
    values.update(layers.ensemble_layers(idx, n_jobs))
    values.update(layers.serve_layers(idx, n_jobs))
    values["core.setup.scf_s"] = layers.setup_scf_seconds(idx)
    values.update({
        "serve.queue_wait_s": metrics["queue_wait_s"] / completed,
        "serve.wire_s": _wire_seconds(tracing.recorder, book),
        "serve.memo_hit_ratio": metrics["memo_hits"] / completed,
        "serve.warm_hit_ratio": pool["hits"] / max(pool["hits"] + pool["misses"], 1),
        "serve.jobs_per_group": completed / max(metrics["groups"], 1),
        "serve.busy_shed": float(metrics["busy_shed"]),
        "ensemble.hops": book.ensemble_hops / max(book.ensemble_jobs, 1),
    })
    values["obs.trace_overhead"] = layers.trace_overhead(out["traced_walls"],
                                                         out["op_walls"])
    return {"per_layer": layers.complete(values), "shares": {}}


# ---------------------------------------------------------------------- #
# one-shot recompute
# ---------------------------------------------------------------------- #
def _one_shot(job: Dict[str, Any], work: pathlib.Path) -> Dict[str, Any]:
    """The job computed by the one-shot ``repro.serve.workloads`` bodies."""
    from repro.serve import validate_job
    from repro.serve import workloads

    params = validate_job(job).params
    kind = job["kind"]
    if kind == "scf":
        from repro.qxmd.scf import scf_solve_batch

        (result,) = scf_solve_batch([workloads.scf_task(params)])
        return workloads.scf_payload(result)
    if kind == "spectrum":
        gs = workloads.spectrum_ground_state(params)
        return workloads.spectrum_payload(gs, params)
    if kind == "run":
        return workloads.run_payload(params, supervise_dir=work / "one-shot-run")
    from repro.ensemble import EnsembleConfig, run_ensemble

    istate = params["istate"]
    result = run_ensemble(workloads.ensemble_path(params), EnsembleConfig(
        ntraj=int(params["ntraj"]),
        seed=int(params["seed"]),
        istate=int(params["nstates"]) - 1 if istate is None else int(istate),
        substeps=int(params["substeps"]),
        policy=workloads.ensemble_policy(params),
        batch_size=params["batch_size"],
    ))
    return workloads.ensemble_payload(result)


def _recompute(book: Book, ctx: Context) -> int:
    """Recompute the first answered job of each kind; count mismatches."""
    firsts: Dict[str, Tuple[Dict[str, Any], Any]] = {}
    for job, answer in book.first.values():
        firsts.setdefault(job["kind"], (job, answer))
    failed = 0
    for kind in ("scf", "spectrum", "ensemble", "run"):
        if kind not in firsts:
            ctx.fail(f"no {kind} job was answered; nothing to recompute")
            failed += 1
            continue
        job, answer = firsts[kind]
        if not payloads_equal(answer, _one_shot(job, ctx.work)):
            ctx.fail(f"served {kind} answer differs from the one-shot "
                     f"recompute")
            failed += 1
    return failed

