"""The trajectory-ensemble engine: stacked swarms over a DomainExecutor.

A run stacks one or more *members* -- independent jobs, each an
``(ntraj, istate, seed)`` :class:`EnsembleMember` -- on one trajectory
axis.  A single :class:`EnsembleConfig` job is a run with one member;
the serving daemon coalesces compatible requests into one run with many.
The engine packs the stacked axis into tasks of at most ``batch_size``
rows (the ``ensemble.swarm`` tunable), and no wider than a round needs
to give each of its tasks a share, runs each task as one picklable
executor task -- a full swarm sweep over the classical path -- and
writes the per-trajectory traces back *in trajectory order*.  Every
row's RNG stream is keyed on ``(member seed, member-local index)`` and
the swarm kernels are batch-size invariant, so each member's traces
(and every statistic computed from them) are identical for any batch
size, backend, worker count or co-member.

:class:`EnsembleRun` is supervisable: one *round* (up to ``round_size``
tasks through the executor) is one "MD step" to the
:class:`~repro.resilience.supervisor.RunSupervisor`, and
``save_state``/``load_state`` persist the partial run as one verified
archive -- a crash mid-run resumes with the completed tasks intact and
replays only the missing ones, bit-identically (each task is a pure
function of ``(path, segments)``).
"""

from __future__ import annotations

import math
import pathlib
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ensemble.path import ClassicalPath
from repro.ensemble.stats import EnsembleStats, compute_stats
from repro.ensemble.swarm import SwarmState, step_swarm, trajectory_rng
from repro.obs import trace_span
from repro.parallel.executor import DomainExecutor, make_executor
from repro.qxmd.sh_kernels import HopPolicy
from repro.resilience.atomicio import (
    CheckpointCorruptError,
    read_archive,
    write_archive,
)

#: Version tag of the partial-run checkpoint schema.
ENSEMBLE_CKPT_VERSION = 2
#: Archive schema of a partial-run checkpoint.
ENSEMBLE_SCHEMA = f"ensemble.run.v{ENSEMBLE_CKPT_VERSION}"


@dataclass
class EnsembleConfig:
    """What to run: swarm size, initial state, RNG seed, hop physics.

    ``istate=None`` starts every trajectory on the highest state of the
    path (the photoexcited carrier relaxing downward).  ``batch_size=
    None`` resolves from the active tuning profile's ``ensemble.swarm``
    tunable.  ``array_backend`` names the array-API substrate for the
    batched FSSH kernels (``None`` = NumPy); it travels to the
    workers as a plain name, so process-spawn batches use it too.
    """

    ntraj: int = 32
    istate: Optional[int] = None
    seed: int = 2024
    substeps: int = 20
    policy: HopPolicy = field(default_factory=HopPolicy)
    batch_size: Optional[int] = None
    array_backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.ntraj < 1:
            raise ValueError("ntraj must be positive")
        if self.substeps < 1:
            raise ValueError("substeps must be positive")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be positive (or None)")
        if self.istate is not None and self.istate < 0:
            raise ValueError("istate must be non-negative (or None)")
        if self.array_backend is not None:
            from repro.backend import get_backend

            # Validate and canonicalize eagerly ("auto" -> "numpy"), so
            # every batch task carries a resolved name.
            self.array_backend = get_backend(self.array_backend).name


def resolve_batch_size(config: EnsembleConfig) -> int:
    """The effective batch size: explicit config or the tuning profile."""
    if config.batch_size is not None:
        return config.batch_size
    from repro.tuning.profile import get_active_profile

    return int(get_active_profile().params_for("ensemble.swarm")["batch_size"])


@dataclass(frozen=True)
class EnsembleMember:
    """One job on a run's stacked trajectory axis."""

    ntraj: int
    istate: int
    seed: int

    def __post_init__(self) -> None:
        if self.ntraj < 1:
            raise ValueError("ntraj must be positive")
        if self.istate < 0:
            raise ValueError("istate must be non-negative")


@dataclass(frozen=True)
class Segment:
    """A contiguous run of one member's trajectories inside a task.

    ``lo``/``hi`` index the run's stacked (global) trajectory axis;
    ``local_lo`` is the member-local index of row ``lo``, which seeds
    the per-trajectory RNG stream -- the stream depends on the
    trajectory's identity *within its job*, never on its placement in
    the stack.
    """

    seed: int
    istate: int
    lo: int
    hi: int
    local_lo: int


def pack_segments(
    members: Sequence[EnsembleMember], batch_size: int
) -> List[Tuple[Segment, ...]]:
    """Greedily pack every member's trajectories into stacked tasks.

    Members are walked in order; each task accumulates segments until
    it holds ``batch_size`` trajectory rows.  Small jobs therefore share
    tasks (the coalescing win) while a job wider than ``batch_size``
    splits across several; a single member yields exactly the
    :func:`~repro.parallel.executor.chunk_slices` batches.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    tasks: List[Tuple[Segment, ...]] = []
    current: List[Segment] = []
    room = batch_size
    offset = 0
    for member in members:
        local = 0
        while local < member.ntraj:
            width = min(room, member.ntraj - local)
            current.append(Segment(
                seed=member.seed,
                istate=member.istate,
                lo=offset + local,
                hi=offset + local + width,
                local_lo=local,
            ))
            local += width
            room -= width
            if room == 0:
                tasks.append(tuple(current))
                current = []
                room = batch_size
        offset += member.ntraj
    if current:
        tasks.append(tuple(current))
    return tasks


@dataclass(frozen=True)
class BatchResult:
    """One segment's traces as a task hands them back (picklable)."""

    lo: int
    hi: int
    populations: np.ndarray       # (nsteps, hi-lo, nstates)
    actives: np.ndarray           # (nsteps, hi-lo)
    hops: np.ndarray              # (hi-lo,)
    final_amplitudes: np.ndarray  # (hi-lo, nstates)
    final_active: np.ndarray      # (hi-lo,)
    ke_factor: np.ndarray         # (hi-lo,)


def _swarm_task(args: Tuple[Any, ...]) -> List[BatchResult]:
    """Executor task: sweep one stack of segments over the full path.

    ``args`` is ``(energies, nac, kinetic, dt, segments, substeps,
    policy, array_backend)`` with ``segments`` a tuple of
    :class:`Segment`.  Self-contained and placement-independent: the
    RNG streams come from ``(seed, member-local index)`` carried in the
    segments, never from worker state, and rows of different members
    share the stacked kernel calls but are numerically independent, so
    any backend, packing or resume produces identical results.
    ``array_backend`` is a plain substrate name (or ``None``), resolved
    inside the worker.  Inputs may be read-only shared-memory views;
    they are only read, and every returned array is task-local.
    """
    (energies, nac, kinetic, dt, segments, substeps, policy,
     array_backend) = args
    nsteps, nstates = energies.shape
    nb = sum(seg.hi - seg.lo for seg in segments)
    amps = np.zeros((nb, nstates), dtype=np.complex128)
    active = np.empty(nb, dtype=np.int64)
    rngs = []
    row = 0
    for seg in segments:
        width = seg.hi - seg.lo
        amps[row:row + width, seg.istate] = 1.0
        active[row:row + width] = seg.istate
        rngs.extend(trajectory_rng(seg.seed, seg.local_lo + t)
                    for t in range(width))
        row += width
    swarm = SwarmState(amplitudes=amps, active=active)
    populations = np.empty((nsteps, nb, nstates), dtype=np.float64)
    actives = np.empty((nsteps, nb), dtype=np.int64)
    for s in range(nsteps):
        xi = np.array([rng.random() for rng in rngs])
        assert swarm.ke_factor is not None
        ke = kinetic[s] * swarm.ke_factor
        step_swarm(swarm, energies[s], nac[s], dt, ke, xi, policy,
                   substeps, backend=array_backend)
        populations[s] = swarm.populations
        actives[s] = swarm.active
    assert swarm.hop_counts is not None and swarm.ke_factor is not None
    out: List[BatchResult] = []
    row = 0
    for seg in segments:
        sl = slice(row, row + seg.hi - seg.lo)
        out.append(BatchResult(
            lo=seg.lo,
            hi=seg.hi,
            populations=populations[:, sl, :],
            actives=actives[:, sl],
            hops=swarm.hop_counts[sl],
            final_amplitudes=swarm.amplitudes[sl],
            final_active=swarm.active[sl],
            ke_factor=swarm.ke_factor[sl],
        ))
        row = sl.stop
    return out


@dataclass(frozen=True)
class EnsembleRoundRecord:
    """History record of one supervisable round (``.step`` contract)."""

    step: int
    batches_run: int
    batches_done: int
    batches_total: int
    hops_so_far: int


@dataclass(frozen=True)
class EnsembleResult:
    """A completed ensemble (or one member of it): stacked traces plus
    summary statistics."""

    stats: EnsembleStats
    populations: np.ndarray   # (nsteps, ntraj, nstates)
    actives: np.ndarray       # (nsteps, ntraj)
    hops: np.ndarray          # (ntraj,)
    final_amplitudes: np.ndarray
    final_active: np.ndarray
    ke_factor: np.ndarray


class EnsembleRun:
    """Supervisable, checkpointable execution of a stacked ensemble.

    ``members`` lists the jobs on the stacked trajectory axis; when it
    is None the run holds the one job that ``config`` describes
    (``ntraj``, ``istate``, ``seed``).  The rest of ``config`` -- hop
    policy, substeps, batch size, array substrate -- is shared by every
    member.

    Satisfies the supervisor's
    :class:`~repro.resilience.supervisor.SupervisableRun` protocol: one
    ``md_step()`` runs up to ``round_size`` pending tasks through the
    executor (a serial one unless ``backend``/``executor`` say
    otherwise); ``save_state``/``load_state`` persist the partial run
    (completed traces + done mask) so the hardened checkpoint writer
    and ``--restart`` machinery work unchanged.
    """

    def __init__(
        self,
        path: ClassicalPath,
        config: Optional[EnsembleConfig] = None,
        backend: Optional[str] = "serial",
        workers: Optional[int] = 1,
        round_size: Optional[int] = None,
        executor: Optional[DomainExecutor] = None,
        members: Optional[Sequence[EnsembleMember]] = None,
        **executor_extras: Any,
    ) -> None:
        self.path = path
        self.config = config if config is not None else EnsembleConfig()
        if members is None:
            istate = (self.config.istate if self.config.istate is not None
                      else path.nstates - 1)
            members = [EnsembleMember(self.config.ntraj, istate,
                                      self.config.seed)]
        if not members:
            raise ValueError("a run needs at least one member")
        if any(m.istate >= path.nstates for m in members):
            raise ValueError("istate outside the path's state range")
        self.members = tuple(members)
        ntraj = sum(m.ntraj for m in self.members)
        self.ntraj = ntraj
        self.round_size = (round_size if round_size is not None
                           else max(1, workers if workers is not None else 1))
        if self.round_size < 1:
            raise ValueError("round_size must be positive")
        # Rows per task: no wider than a round needs to give each of its
        # tasks a share, so a serial run of up to batch_size rows is one
        # task while every worker of a parallel round still gets one.
        self.batch_size = min(resolve_batch_size(self.config),
                              math.ceil(ntraj / self.round_size))
        self.batches = pack_segments(self.members, self.batch_size)
        self._executor = executor
        self._backend = backend
        self._workers = workers
        self._executor_extras = executor_extras
        nsteps, nstates = path.nsteps, path.nstates
        self.populations = np.zeros((nsteps, ntraj, nstates))
        self.actives = np.zeros((nsteps, ntraj), dtype=np.int64)
        self.hops = np.zeros(ntraj, dtype=np.int64)
        self.final_amplitudes = np.zeros((ntraj, nstates),
                                         dtype=np.complex128)
        self.final_active = np.zeros(ntraj, dtype=np.int64)
        self.ke_factor = np.ones(ntraj, dtype=np.float64)
        self.done = np.zeros(len(self.batches), dtype=bool)
        self.step_count = 0
        self.time = 0.0
        self.history: List[EnsembleRoundRecord] = []
        self.health_guard: Any = None

    # ------------------------------------------------------------------ #
    @property
    def complete(self) -> bool:
        return bool(self.done.all())

    @property
    def rounds_remaining(self) -> int:
        """Supervisable steps needed to finish the pending tasks."""
        pending = int(np.count_nonzero(~self.done))
        return math.ceil(pending / self.round_size)

    def _get_executor(self) -> DomainExecutor:
        if self._executor is None:
            self._executor = make_executor(
                self._backend, workers=self._workers,
                seed=self.config.seed, **self._executor_extras,
            )
        return self._executor

    def close(self) -> None:
        """Shut the executor down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown()

    def __enter__(self) -> "EnsembleRun":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def _batch_item(self, index: int) -> Tuple[Any, ...]:
        return (self.path.energies, self.path.nac, self.path.kinetic,
                self.path.dt, self.batches[index], self.config.substeps,
                self.config.policy, self.config.array_backend)

    def _apply(self, index: int, results: List[BatchResult]) -> None:
        for res in results:
            lo, hi = res.lo, res.hi
            self.populations[:, lo:hi, :] = res.populations
            self.actives[:, lo:hi] = res.actives
            self.hops[lo:hi] = res.hops
            self.final_amplitudes[lo:hi] = res.final_amplitudes
            self.final_active[lo:hi] = res.final_active
            self.ke_factor[lo:hi] = res.ke_factor
        self.done[index] = True

    def md_step(self) -> EnsembleRoundRecord:
        """Run one round of pending tasks (the supervisable unit)."""
        todo = np.nonzero(~self.done)[0][: self.round_size]
        if todo.size:
            items = [self._batch_item(int(i)) for i in todo]
            with trace_span("ensemble.round", "md",
                            round=self.step_count, batches=len(items),
                            members=len(self.members), ntraj=self.ntraj):
                results = self._get_executor().map(
                    _swarm_task, items, label="ensemble.batches"
                )
            for i, res in zip(todo, results):
                self._apply(int(i), res)
        self.step_count += 1
        self.time = float(self.step_count)
        record = EnsembleRoundRecord(
            step=self.step_count,
            batches_run=int(todo.size),
            batches_done=int(np.count_nonzero(self.done)),
            batches_total=len(self.batches),
            hops_so_far=int(self.hops.sum()),
        )
        self.history.append(record)
        return record

    def run(self) -> EnsembleResult:
        """Run every pending round; returns the completed ensemble."""
        while not self.complete:
            self.md_step()
        return self.result()

    def _require_complete(self) -> None:
        if not self.complete:
            raise RuntimeError(
                f"ensemble incomplete: {int(np.count_nonzero(self.done))}"
                f"/{len(self.batches)} batches done"
            )

    def result(self) -> EnsembleResult:
        """The whole stacked ensemble; every task must be done (raises
        ``RuntimeError`` on a partial run)."""
        self._require_complete()
        return EnsembleResult(
            stats=compute_stats(self.populations, self.actives),
            populations=self.populations,
            actives=self.actives,
            hops=self.hops,
            final_amplitudes=self.final_amplitudes,
            final_active=self.final_active,
            ke_factor=self.ke_factor,
        )

    def results(self) -> List[EnsembleResult]:
        """Each member's slice of the completed run, in member order."""
        self._require_complete()
        out: List[EnsembleResult] = []
        offset = 0
        for m in self.members:
            sl = slice(offset, offset + m.ntraj)
            pops = self.populations[:, sl, :].copy()
            acts = self.actives[:, sl].copy()
            out.append(EnsembleResult(
                stats=compute_stats(pops, acts),
                populations=pops,
                actives=acts,
                hops=self.hops[sl].copy(),
                final_amplitudes=self.final_amplitudes[sl].copy(),
                final_active=self.final_active[sl].copy(),
                ke_factor=self.ke_factor[sl].copy(),
            ))
            offset += m.ntraj
        return out

    # ------------------------------------------------------------------ #
    def _fingerprint(self) -> str:
        """Config digest a checkpoint must match to be resumable here.

        The payload is hashed through the shared
        :func:`repro.artifacts.fingerprint.config_hash` helper -- the
        same canonical-JSON digest that keys tuning winners and serve
        artifacts -- so "which run wrote this checkpoint" and "which
        config produced this artifact" are answered by one scheme.
        """
        from repro.artifacts.fingerprint import config_hash

        p = self.config.policy
        return config_hash({
            "version": ENSEMBLE_CKPT_VERSION,
            "members": [[m.ntraj, m.istate, m.seed] for m in self.members],
            "substeps": self.config.substeps,
            "batch_size": self.batch_size,
            "nsteps": self.path.nsteps,
            "nstates": self.path.nstates,
            "dt": self.path.dt,
            "policy": [p.hop_rescale, p.hop_reject,
                       p.dec_correction or "", p.edc_parameter],
            # Cross-substrate trajectories agree only to ~1e-10, so a
            # resume on a different substrate must be rejected outright.
            "array_backend": self.config.array_backend or "numpy",
        })

    def save_state(self, path: Union[str, pathlib.Path]) -> None:
        """Archive the partial run (checkpoint-writer callback)."""
        write_archive(
            path,
            {
                "populations": self.populations,
                "actives": self.actives,
                "hops": self.hops,
                "final_amplitudes": self.final_amplitudes,
                "final_active": self.final_active,
                "ke_factor": self.ke_factor,
                "done": self.done,
            },
            {"fingerprint": self._fingerprint(),
             "step_count": self.step_count, "time": self.time},
            ENSEMBLE_SCHEMA,
            fault_prefix="checkpoint",
        )

    def load_state(self, path: Union[str, pathlib.Path]) -> None:
        """Restore a partial run written by :meth:`save_state`.

        Two-phase: the archive is read and verified, and checked against
        this run's configuration fingerprint and shapes, before any
        state is touched.  A mismatch raises
        :class:`~repro.resilience.atomicio.CheckpointCorruptError` so
        the restore machinery falls back a generation rather than
        splicing an incompatible ensemble into this run.
        """
        loaded, meta = read_archive(path, ENSEMBLE_SCHEMA)
        expected = self._fingerprint()
        if meta.get("fingerprint") != expected:
            raise CheckpointCorruptError(
                f"ensemble checkpoint fingerprint mismatch: "
                f"{meta.get('fingerprint')} != {expected}"
            )
        if loaded["populations"].shape != self.populations.shape or \
                loaded["done"].shape != self.done.shape:
            raise CheckpointCorruptError(
                "ensemble checkpoint array shapes do not match the run"
            )
        self.populations = loaded["populations"]
        self.actives = loaded["actives"]
        self.hops = loaded["hops"]
        self.final_amplitudes = loaded["final_amplitudes"]
        self.final_active = loaded["final_active"]
        self.ke_factor = loaded["ke_factor"]
        self.done = loaded["done"]
        self.step_count = int(meta["step_count"])
        self.time = float(meta["time"])


def run_ensemble(
    path: ClassicalPath,
    config: Optional[EnsembleConfig] = None,
    backend: str = "serial",
    workers: int = 1,
    round_size: Optional[int] = None,
    **executor_extras: Any,
) -> EnsembleResult:
    """Convenience wrapper: run a full ensemble and return its result."""
    with EnsembleRun(path, config, backend=backend, workers=workers,
                     round_size=round_size, **executor_extras) as run:
        return run.run()
