"""The compute behind each serve job kind, shared with the one-shot CLI.

These functions are the *single* implementation of the run/spectrum/scf/
ensemble workloads: the CLI bodies call them and the daemon calls them,
so a job submitted through the daemon executes the same floating-point
program as the equivalent one-shot command -- the end-to-end determinism
the differential tests in ``tests/serve`` pin (<= 1e-12, bitwise where
no executor backend changes hands).

Every ``*_payload`` function returns a flat dict of ndarrays and plain
scalars, ready for the wire codec and the artifact store.
"""

from __future__ import annotations

import pathlib
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.ensemble.path import ClassicalPath, model_path
from repro.grids import Grid3D
from repro.qxmd.scf import SCFResult, SCFTask
from repro.qxmd.sh_kernels import HopPolicy
from repro.resilience.liveness import (
    DeadlineExceeded,
    check_deadline,
    deadline_scope,
)

#: Delta-kick strength of the absorption-spectrum workload (matches the
#: CLI's historical hard-coded value).
SPECTRUM_KICK = 1e-3

#: Exponential damping of the dipole signal before the FFT.
SPECTRUM_DAMPING = 0.01

#: CG iterations of the spectrum ground-state eigensolve.
SPECTRUM_NCG = 30


# ---------------------------------------------------------------------- #
# spectrum: delta-kick absorption (ground state + propagation stages)
# ---------------------------------------------------------------------- #
class _PropagationRecord:
    """The kicked propagation of one ground state, as far as it has run.

    Holds the kicked :class:`~repro.lfd.QDPropagator` after its last
    step and the ``(time, dipole)`` sample of every step so far.  A
    sample is recorded before its step's deadline check, so a job whose
    deadline expires leaves a record the next job continues; any other
    failure while extending resets it, and the next job restarts from
    the pre-kick orbitals.
    """

    def __init__(self) -> None:
        # In the daemon only the lane that owns a pooled record extends
        # it; the lock keeps any other concurrent caller exact too.
        self._lock = threading.Lock()
        self._prop: Any = None
        self._times: List[float] = []
        self._dipoles: List[float] = []
        self.propagated = 0

    def __len__(self) -> int:
        return len(self._times)

    def samples(
        self,
        gs: "SpectrumGroundState",
        steps: int,
        deadline_s: Optional[float],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The first ``steps`` samples, propagating the missing ones."""
        with self._lock:
            missing = steps - len(self._times)
            if missing > 0:
                self._extend(gs, missing, deadline_s)
            return (np.array(self._times[:steps]),
                    np.array(self._dipoles[:steps]))

    def _extend(self, gs: "SpectrumGroundState", nsteps: int,
                deadline_s: Optional[float]) -> None:
        from repro import PropagatorConfig, QDPropagator, WaveFunctionSet
        from repro.lfd.observables import dipole_moment

        if self._prop is None:
            grid = Grid3D.cubic(gs.grid_points, 0.5)
            xs, _, _ = grid.meshgrid()
            wf = WaveFunctionSet(grid, gs.norb, data=gs.psi.copy(),
                                 copy=False)
            wf.psi *= np.exp(1j * SPECTRUM_KICK * xs)[..., None]
            self._prop = QDPropagator(wf, gs.vloc, PropagatorConfig(dt=0.05))
        occ = np.zeros(gs.norb)
        occ[0] = 2.0

        def _observe(p: Any) -> None:
            # The per-step observer doubles as the deadline yield point;
            # it records the step first, so an expired deadline loses
            # none of the steps taken.
            self._times.append(p.time)
            self._dipoles.append(dipole_moment(p.wf, occ)[0])
            self.propagated += 1
            check_deadline("serve.spectrum.propagate")

        try:
            with deadline_scope(deadline_s, "serve.spectrum.propagate"):
                self._prop.run(nsteps, observer=_observe)
        except DeadlineExceeded:
            raise
        except BaseException:
            self._prop = None
            self._times.clear()
            self._dipoles.clear()
            raise


@dataclass(frozen=True)
class SpectrumGroundState:
    """The warm-poolable stage of a spectrum job: a converged eigensolve
    and the record of its kicked propagation.

    ``psi`` is the *pre-kick* orbital set and never changes.  The private
    record continues one kicked propagation across jobs: a job of n
    steps reads the first n samples and propagates only the steps not
    recorded yet.  ``QDPropagator.run`` has no per-call setup, so k
    recorded steps followed by m more run the same floating-point
    program as k + m steps at once, and one pooled ground state answers
    any sequence of jobs bit-identically to a fresh one.
    """

    grid_points: int
    norb: int
    evals: np.ndarray
    psi: np.ndarray
    vloc: np.ndarray
    _record: _PropagationRecord = field(
        default_factory=_PropagationRecord, init=False, repr=False,
        compare=False,
    )

    @property
    def propagated_steps(self) -> int:
        """QD steps propagated for this ground state, resets included."""
        return self._record.propagated

    def nbytes(self) -> int:
        """Approximate in-memory footprint (for pool budgets).

        Counts the record's kicked orbital copy and complex phase field
        from the start (the first job creates them), plus the samples
        recorded so far.
        """
        record = (self.psi.nbytes + 2 * self.vloc.nbytes
                  + 16 * len(self._record))
        return int(self.evals.nbytes + self.psi.nbytes + self.vloc.nbytes
                   + record)


def spectrum_ground_state(params: Mapping[str, Any]) -> SpectrumGroundState:
    """Converge the model-well ground state of a spectrum job."""
    from repro.lfd import WaveFunctionSet
    from repro.qxmd import KSHamiltonian, cg_eigensolve

    n = int(params["grid"])
    norb = int(params["norb"])
    grid = Grid3D.cubic(n, 0.5)
    c = (n - 1) * 0.5 / 2.0
    xs, ys, zs = grid.meshgrid()
    vloc = -float(params["depth"]) * np.exp(
        -((xs - c) ** 2 + (ys - c) ** 2 + (zs - c) ** 2) / 1.8
    )
    ham = KSHamiltonian(grid, vloc)
    wf = WaveFunctionSet.random(
        grid, norb, np.random.default_rng(int(params["seed"]))
    )
    evals = cg_eigensolve(ham, wf, ncg=SPECTRUM_NCG)
    return SpectrumGroundState(
        grid_points=n,
        norb=norb,
        evals=np.asarray(evals, dtype=np.float64),
        psi=wf.psi.copy(),
        vloc=vloc,
    )


def spectrum_payload(
    gs: SpectrumGroundState,
    params: Mapping[str, Any],
    deadline_s: Optional[float] = None,
) -> Dict[str, Any]:
    """Kick, propagate and Fourier-analyse one spectrum job.

    Propagates only the steps ``gs`` has not recorded yet; on a fresh
    ground state that is the whole run.
    """
    from repro.analysis import absorption_peaks, dipole_to_spectrum

    times, dips = gs._record.samples(gs, int(params["steps"]), deadline_s)
    omega, spectrum = dipole_to_spectrum(
        times, dips, kick_strength=SPECTRUM_KICK, damping=SPECTRUM_DAMPING,
    )
    peaks = absorption_peaks(omega, spectrum, min_height=0.3)
    return {
        "eigenvalues": gs.evals,
        "times": times,
        "dipole": dips,
        "omega": np.asarray(omega),
        "spectrum": np.asarray(spectrum),
        "peaks": np.asarray(peaks),
    }


# ---------------------------------------------------------------------- #
# scf: independent two-atom ground states (batchable via scf_solve_batch)
# ---------------------------------------------------------------------- #
def scf_system(
    params: Mapping[str, Any],
) -> Tuple[Grid3D, np.ndarray, List[Any]]:
    """The two-atom system of an scf job (symmetric about the cell centre)."""
    from repro.pseudo import get_species

    n = int(params["grid"])
    spacing = float(params["spacing"])
    grid = Grid3D.cubic(n, spacing)
    L = grid.lengths[0]
    half = float(params["separation"]) / 2.0
    positions = np.array(
        [[L / 2 - half, L / 2, L / 2], [L / 2 + half, L / 2, L / 2]]
    )
    species = [get_species(str(params["species"])),
               get_species(str(params["species"]))]
    return grid, positions, species


def scf_task(params: Mapping[str, Any]) -> SCFTask:
    """One scf job as a picklable batch task."""
    from repro.qxmd.scf import SCFConfig

    grid, positions, species = scf_system(params)
    return SCFTask(
        grid=grid,
        positions=positions,
        species=species,
        norb=int(params["norb"]),
        config=SCFConfig(
            nscf=int(params["nscf"]),
            ncg=int(params["ncg"]),
            seed=int(params["seed"]),
        ),
    )


def scf_payload(result: SCFResult) -> Dict[str, Any]:
    """The wire/artifact payload of one converged SCF ground state."""
    payload: Dict[str, Any] = {
        "eigenvalues": np.asarray(result.eigenvalues, dtype=np.float64),
        "occupations": np.asarray(result.occupations, dtype=np.float64),
        "energies": {k: float(v) for k, v in result.energies.items()},
        "homo": float(result.eigenvalues[result.homo_index]),
    }
    try:
        payload["gap"] = float(result.gap)
    except ValueError:  # norb too small for an unoccupied orbital
        payload["gap"] = None
    return payload


# ---------------------------------------------------------------------- #
# ensemble: batched FSSH swarms over a synthetic classical path
# ---------------------------------------------------------------------- #
def ensemble_policy(params: Mapping[str, Any]) -> HopPolicy:
    """The hop policy encoded in ensemble job params (CLI semantics)."""
    dec = str(params["decoherence"])
    return HopPolicy(
        hop_rescale=str(params["hop_rescale"]),
        hop_reject=str(params["hop_reject"]),
        dec_correction=None if dec == "none" else dec,
        edc_parameter=float(params["edc_parameter"]),
    )


def ensemble_path(params: Mapping[str, Any]) -> ClassicalPath:
    """The deterministic synthetic classical path of an ensemble job."""
    return model_path(
        nsteps=int(params["nsteps"]),
        nstates=int(params["nstates"]),
        dt=float(params["dt"]),
        seed=int(params["path_seed"]),
        coupling=float(params["coupling"]),
    )


def ensemble_payload(result: Any) -> Dict[str, Any]:
    """The wire/artifact payload of one completed ensemble."""
    stats = result.stats
    return {
        "pop_mean": stats.pop_mean,
        "pop_stderr": stats.pop_stderr,
        "active_fraction": stats.active_fraction,
        "active_counts": stats.active_counts,
        "coherence_mean": stats.coherence_mean,
        "coherence_stderr": stats.coherence_stderr,
        "hops": result.hops,
        "final_active": result.final_active,
        "total_hops": int(result.hops.sum()),
    }


# ---------------------------------------------------------------------- #
# run: one full (small) DC-MESH simulation
# ---------------------------------------------------------------------- #
def run_system(
    params: Mapping[str, Any],
) -> Tuple[Grid3D, np.ndarray, List[Any], Any, Any]:
    """Build the simulation inputs of a run job (shared with the CLI).

    Returns ``(grid, positions, species, laser, config)`` exactly as the
    ``repro-mesh run`` command constructs them, so daemon run jobs and
    CLI runs execute identical systems.
    """
    from repro import DCMESHConfig, TimescaleSplit
    from repro.maxwell import GaussianPulse
    from repro.pseudo import get_species

    n = int(params["grid"])
    spacing = float(params["spacing"])
    grid = Grid3D((n, n, n), (spacing,) * 3)
    L = grid.lengths[0]
    positions = np.array(
        [[L / 4, L / 2, L / 2], [3 * L / 4 - spacing, L / 2, L / 2]]
    )
    species = [get_species(str(params["species"])),
               get_species(str(params["species"]))]
    laser = None
    if float(params["e0"]) > 0:
        laser = GaussianPulse(e0=float(params["e0"]),
                              omega=float(params["omega"]),
                              t0=10.0, sigma=6.0)
    config = DCMESHConfig(
        timescale=TimescaleSplit(dt_md=float(params["dt_md"]),
                                 n_qd=int(params["n_qd"])),
        nscf=int(params["nscf"]),
        ncg=int(params["ncg"]),
        seed=int(params["seed"]),
        array_backend=params.get("array_backend"),
    )
    return grid, positions, species, laser, config


def run_payload(
    params: Mapping[str, Any],
    supervise_dir: Optional[pathlib.Path] = None,
    deadline_s: Optional[float] = None,
    max_retries: int = 1,
) -> Dict[str, Any]:
    """Execute one run job, optionally under the run supervisor.

    With ``supervise_dir`` set, the simulation runs as one checkpointed
    :class:`~repro.resilience.supervisor.RunSupervisor` segment with the
    job's deadline as the segment budget -- recoverable faults heal from
    the generation-0 checkpoint instead of failing the request.
    """
    from repro import DCMESHSimulation, VirtualGPU

    grid, positions, species, laser, config = run_system(params)
    steps = int(params["steps"])
    sim = DCMESHSimulation(
        grid, (2, 1, 1), positions, species,
        laser=laser, config=config, device=VirtualGPU(),
        buffer_width=int(params["buffer"]),
    )
    if bool(params["excite"]):
        sim.excite_carrier(0)
    if supervise_dir is not None:
        from repro.resilience.supervisor import RunSupervisor, SupervisorConfig

        supervisor = RunSupervisor(
            sim,
            supervise_dir,
            SupervisorConfig(
                checkpoint_every=max(1, steps),
                max_retries=max_retries,
                deadline_s=deadline_s,
            ),
        )
        records = supervisor.run(steps)
    else:
        with deadline_scope(deadline_s, "serve.run"):
            records = sim.run(steps)
    return {
        "step": np.array([r.step for r in records], dtype=np.int64),
        "time": np.array([r.time for r in records]),
        "temperature": np.array([r.temperature for r in records]),
        "band_energy": np.array([r.band_energy for r in records]),
        "excited_population": np.array(
            [r.excited_population for r in records]
        ),
        "hops": np.array([r.hops for r in records], dtype=np.int64),
        "positions": sim.md_state.positions.copy(),
        "velocities": sim.md_state.velocities.copy(),
    }
