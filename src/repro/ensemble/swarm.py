"""SwarmState and the batched swarm step (plus the standalone reference).

A swarm is the stacked state of ``ntraj`` FSSH carriers: amplitudes
``(ntraj, nstates)``, active states ``(ntraj,)``, the cumulative
kinetic-energy factor each trajectory's velocity rescales have
accumulated, and hop counters.  :func:`step_swarm` advances all of them
through one MD step with the batch-size-invariant kernels of
:mod:`repro.qxmd.sh_kernels`; :func:`run_reference_trajectory` is the
standalone single-carrier loop the equivalence harness holds it to, bit
for bit.

RNG discipline: trajectory ``i`` of an ensemble seeded ``s`` always
draws from :func:`trajectory_rng` ``(s, i)`` -- the PR-4 executor's
``SeedSequence((seed, map_index, chunk_index))`` scheme with the map
ordinal pinned to 0 -- so the stream depends on the trajectory's
*identity*, never on its batch, backend or worker placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.backend import ArrayBackend, get_backend, to_numpy
from repro.ensemble.path import ClassicalPath
from repro.parallel.executor import chunk_rng
from repro.qxmd.sh_kernels import (
    HopPolicy,
    apply_edc_batch,
    batched_norm,
    hop_probabilities_batch,
    propagate_amplitudes_batch,
    resolve_hops,
    select_hops,
)
from repro.qxmd.surface_hopping import FSSH, SurfaceHoppingState


def trajectory_rng(seed: int, index: int) -> np.random.Generator:
    """The deterministic RNG stream of ensemble trajectory ``index``.

    Reuses the executor's ``(seed, map_index, chunk_index)`` entropy key
    with ``map_index=0``, so the stream is a pure function of
    ``(seed, index)`` -- extracting trajectory ``index`` from any batch,
    backend or resume replays exactly the same random numbers.
    """
    return chunk_rng(seed, 0, index)


@dataclass
class SwarmState:
    """Stacked FSSH state of ``ntraj`` trajectories.

    Unlike :class:`~repro.qxmd.surface_hopping.SurfaceHoppingState`
    (which rejects stacked input outright), construction normalizes
    **per row** and raises -- naming the offending rows -- if any row
    has zero norm: a global normalize-on-construct would silently bury
    dead trajectories inside an otherwise healthy swarm.
    """

    amplitudes: np.ndarray          # (ntraj, nstates) complex
    active: np.ndarray              # (ntraj,) int
    ke_factor: Optional[np.ndarray] = None    # (ntraj,) float
    hop_counts: Optional[np.ndarray] = None   # (ntraj,) int

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.ndim != 2:
            raise ValueError("amplitudes must have shape (ntraj, nstates)")
        ntraj, nstates = self.amplitudes.shape
        self.active = np.asarray(self.active, dtype=np.int64)
        if self.active.shape != (ntraj,):
            raise ValueError("active must have shape (ntraj,)")
        if np.any((self.active < 0) | (self.active >= nstates)):
            raise ValueError("active state out of range")
        norms = batched_norm(np, self.amplitudes)
        dead = np.nonzero(norms == 0.0)[0]
        if dead.size:
            raise ValueError(
                f"zero amplitude rows in swarm: {dead.tolist()}"
            )
        self.amplitudes = self.amplitudes / norms[:, None]
        if self.ke_factor is None:
            self.ke_factor = np.ones(ntraj, dtype=np.float64)
        else:
            self.ke_factor = np.asarray(self.ke_factor, dtype=np.float64)
            if self.ke_factor.shape != (ntraj,):
                raise ValueError("ke_factor must have shape (ntraj,)")
        if self.hop_counts is None:
            self.hop_counts = np.zeros(ntraj, dtype=np.int64)
        else:
            self.hop_counts = np.asarray(self.hop_counts, dtype=np.int64)
            if self.hop_counts.shape != (ntraj,):
                raise ValueError("hop_counts must have shape (ntraj,)")

    @property
    def ntraj(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def nstates(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def populations(self) -> np.ndarray:
        """|c|^2 per trajectory and state, shape ``(ntraj, nstates)``."""
        return np.abs(self.amplitudes) ** 2

    @classmethod
    def on_state(cls, ntraj: int, nstates: int, active: int) -> "SwarmState":
        """A swarm with every trajectory pure on one adiabatic state."""
        amps = np.zeros((ntraj, nstates), dtype=np.complex128)
        amps[:, active] = 1.0
        return cls(amplitudes=amps,
                   active=np.full(ntraj, active, dtype=np.int64))

    def extract(self, index: int) -> SurfaceHoppingState:
        """Trajectory ``index`` as a standalone single-carrier state."""
        return SurfaceHoppingState(
            amplitudes=self.amplitudes[index].copy(),
            active=int(self.active[index]),
        )


def step_swarm(
    swarm: SwarmState,
    energies: np.ndarray,
    nac: np.ndarray,
    dt: float,
    kinetic: np.ndarray,
    xi: np.ndarray,
    policy: HopPolicy,
    substeps: int = 20,
    backend: Union[str, ArrayBackend, None] = None,
) -> np.ndarray:
    """One full U_SH step for every trajectory; returns accepted-hop mask.

    Mirrors :meth:`repro.qxmd.surface_hopping.FSSH.step` operation for
    operation -- propagate, decohere, select, price -- on the stacked
    arrays.  ``kinetic`` and ``xi`` are per-trajectory: the caller
    supplies ``path.kinetic[s] * swarm.ke_factor`` and one uniform draw
    per trajectory from its :func:`trajectory_rng` stream.

    ``backend`` selects the array-API substrate for the amplitude-heavy
    kernels (propagation, decoherence, hop probabilities); hop selection
    and pricing stay on the host either way.  The swarm's stored state
    is always NumPy -- the substrate is internal to the step.
    """
    assert swarm.ke_factor is not None and swarm.hop_counts is not None
    b = get_backend(backend)
    xp = b.xp
    cx = b.asarray(swarm.amplitudes)
    ex = b.asarray(energies)
    nacx = b.asarray(nac)
    actx = b.asarray(swarm.active)
    cx = propagate_amplitudes_batch(xp, cx, ex, nacx, dt, substeps)
    if policy.dec_correction == "edc":
        cx = apply_edc_batch(
            xp, cx, actx, ex, dt, b.asarray(kinetic), policy.edc_parameter
        )
    gx = hop_probabilities_batch(xp, cx, actx, nacx, dt)
    c = to_numpy(cx)
    g = to_numpy(gx)
    target = select_hops(g, xi)
    attempted = target >= 0
    safe_target = np.where(attempted, target, swarm.active)
    de = energies[safe_target] - energies[swarm.active]
    accepted, scale = resolve_hops(de, kinetic, policy)
    accepted = accepted & attempted
    scale = np.where(attempted, scale, 1.0)
    swarm.amplitudes = c
    swarm.active = np.where(accepted, safe_target, swarm.active)
    swarm.hop_counts = swarm.hop_counts + accepted
    # Multiplying by an exact 1.0 where nothing changed keeps the factor
    # bit-identical to the standalone loop's conditional update.
    swarm.ke_factor = swarm.ke_factor * (scale * scale)
    return accepted


@dataclass(frozen=True)
class TrajectoryTrace:
    """Per-step record of one trajectory (batched or standalone)."""

    populations: np.ndarray   # (nsteps, nstates)
    actives: np.ndarray       # (nsteps,)
    amplitudes: np.ndarray    # final (nstates,) complex
    ke_factor: float
    hops: int


def run_reference_trajectory(
    path: ClassicalPath,
    index: int,
    seed: int,
    istate: int,
    substeps: int = 20,
    policy: Optional[HopPolicy] = None,
) -> TrajectoryTrace:
    """The standalone FSSH loop: bit-level ground truth for one trajectory.

    Exactly what the ensemble engine computes for trajectory ``index``,
    expressed through the public single-carrier :class:`FSSH` API on the
    :func:`trajectory_rng` ``(seed, index)`` stream.  The equivalence
    harness diff's this against the batch-extracted trajectory.
    """
    policy = policy if policy is not None else HopPolicy()
    fssh = FSSH(trajectory_rng(seed, index), substeps=substeps, policy=policy)
    state = SurfaceHoppingState.on_state(path.nstates, istate)
    ke_factor = 1.0
    populations = np.empty((path.nsteps, path.nstates), dtype=np.float64)
    actives = np.empty(path.nsteps, dtype=np.int64)
    for s in range(path.nsteps):
        ke = path.kinetic[s] * ke_factor
        _, scale = fssh.step(
            state, path.energies[s], path.nac[s], path.dt, ke
        )
        if scale != 1.0:
            ke_factor *= scale * scale
        populations[s] = state.populations
        actives[s] = state.active
    hops = sum(1 for e in fssh.events if e.accepted)
    return TrajectoryTrace(
        populations=populations,
        actives=actives,
        amplitudes=state.amplitudes.copy(),
        ke_factor=ke_factor,
        hops=hops,
    )
