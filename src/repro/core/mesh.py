"""DCMESHSimulation: the coupled Maxwell-Ehrenfest-surface-hopping driver.

One MD step (Eq. 3) is orchestrated as:

1. **QXMD (CPU)** -- global-local SCF refresh of the adiabatic Kohn-Sham
   states at the new atomic positions (3 SCF x 3 CG in the paper).
2. **Surface hopping** -- nonadiabatic couplings from consecutive
   adiabatic orbital sets drive fewest-switches hops of the excited
   carriers; occupations and nuclear kinetic energy are updated.
3. **Scissor setup** -- Delta_sci (Eq. 8) and the unoccupied reference
   block are computed once and shipped to the (virtual) GPU.
4. **LFD (GPU)** -- N_QD quantum sub-steps of the laser-driven TDDFT
   propagator (Eq. 6) per domain; final orbitals are remapped to
   occupation numbers, the only data returned (shadow dynamics).
5. **Forces + MD** -- excited-state (occupation-weighted) forces move
   the atoms by Delta_MD (velocity Verlet).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.scissor import scissor_shift
from repro.core.shadow import ShadowLedger
from repro.core.timescale import TimescaleSplit
from repro.device.gpu import VirtualGPU
from repro.grids.domain import DomainDecomposition
from repro.grids.grid import Grid3D
from repro.lfd.nonlocal_corr import NonlocalCorrector
from repro.lfd.observables import density
from repro.lfd.occupations import remap_occ
from repro.lfd.propagator import PropagatorConfig, QDPropagator
from repro.lfd.wavefunction import WaveFunctionSet
from repro.maxwell.laser import LaserPulse
from repro.obs import trace_span
from repro.pseudo.elements import PseudoSpecies
from repro.qxmd.dftsolver import DCResult, GlobalDCSolver
from repro.qxmd.forces import ForceCalculator
from repro.qxmd.md import MDState, kinetic_energy, temperature
from repro.qxmd.nac import nonadiabatic_couplings
from repro.qxmd.sh_kernels import HopPolicy
from repro.qxmd.surface_hopping import FSSH, SurfaceHoppingState


@dataclass
class DCMESHConfig:
    """Top-level simulation configuration."""

    timescale: TimescaleSplit = field(
        default_factory=lambda: TimescaleSplit(dt_md=20.0, n_qd=20)
    )
    nscf: int = 3
    ncg: int = 3
    norb_extra: int = 2
    mixing: float = 0.4
    kin_variant: str = "collapsed"
    include_nonlocal: bool = True
    use_scissor: bool = True
    use_surface_hopping: bool = True
    include_nonlocal_forces: bool = True
    conserve_charge: bool = True
    decoherence_c: Optional[float] = None
    hop_policy: Optional["HopPolicy"] = None
    seed: int = 1234
    array_backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.nscf < 1 or self.ncg < 0 or self.norb_extra < 1:
            raise ValueError("nscf >= 1, ncg >= 0, norb_extra >= 1 required")
        if not (0.0 < self.mixing <= 1.0):
            raise ValueError("mixing must be in (0, 1]")
        from repro.lfd.kin_prop import KIN_PROP_VARIANTS

        if self.kin_variant not in KIN_PROP_VARIANTS:
            raise ValueError(
                f"unknown kin_variant {self.kin_variant!r}; "
                f"options: {sorted(KIN_PROP_VARIANTS)}"
            )
        if self.array_backend is not None:
            from repro.backend import get_backend

            # Validate eagerly and normalize "auto"; the name (a plain
            # string) is what crosses the executor pickling boundary.
            self.array_backend = get_backend(self.array_backend).name


@dataclass(frozen=True)
class DomainFieldSampler:
    """Picklable ``A(t)`` sampler for one domain's LFD window.

    Replaces the old closure over the simulation clock so LFD tasks can
    cross a process boundary: the window start time is captured as data,
    and ``t`` is the offset within the current MD step (the dipole
    approximation samples the pulse identically in every domain).
    """

    laser: LaserPulse
    t0: float

    def __call__(self, t: float) -> np.ndarray:
        return self.laser.vector_potential(self.t0 + t)


def _lfd_domain_task(args: tuple) -> np.ndarray:
    """Executor task: propagate one domain through its N_QD sub-steps.

    ``args`` is ``(local_grid, psi, occupations, vloc, dsci,
    use_corrector, conserve_charge, kin_variant, dt_qd, n_qd, sampler,
    guard, array_backend)``.  The adiabatic orbitals are never modified
    (shadow dynamics); only the remapped occupations come back.
    Read-only shared-memory inputs are copied before use under the
    process backend.  ``array_backend`` travels as a plain name (or
    None); the worker re-resolves the namespace in its own interpreter.
    """
    (local_grid, psi, occupations, vloc, dsci, use_corrector,
     conserve_charge, kin_variant, dt_qd, n_qd, sampler, guard,
     array_backend) = args
    if not psi.flags.writeable:
        psi = psi.copy()
    basis = WaveFunctionSet(local_grid, psi.shape[-1], data=psi, copy=False)
    prop_wf = basis.copy()
    corrector = None
    if use_corrector:
        lumo = int(np.ceil(float(occupations.sum()) / 2.0 - 1e-9))
        if lumo < basis.norb:
            ref = WaveFunctionSet(
                basis.grid,
                basis.norb - lumo,
                dtype=basis.dtype,
                data=basis.psi[..., lumo:],
            )
            corrector = NonlocalCorrector(ref, dsci)
    prop = QDPropagator(
        prop_wf,
        vloc,
        PropagatorConfig(dt=dt_qd, kin_variant=kin_variant,
                         backend=array_backend),
        corrector=corrector,
        a_of_t=sampler,
        guard=guard,
    )
    prop.run(n_qd)
    nelec = float(occupations.sum())
    new_occ = remap_occ(prop.wf, basis, occupations)
    if conserve_charge:
        # The finite adiabatic basis cannot capture the whole propagated
        # state; rescale the remapped occupations so the projection
        # leakage does not drain charge.
        total = float(new_occ.sum())
        if total > 0.0:
            new_occ *= nelec / total
    return new_occ


@dataclass
class MDStepRecord:
    """Observables of one completed MD step."""

    step: int
    time: float
    temperature: float
    band_energy: float
    excited_population: float
    scissor_shifts: List[float]
    hops: int
    handshake_bytes: int
    vector_potential: np.ndarray


class DCMESHSimulation:
    """A complete DC-MESH simulation instance.

    Parameters
    ----------
    grid:
        Global periodic grid (shape divisible by the domain counts, local
        grids even-sized for the pair-split kinetic propagator).
    ndomains:
        DC domain lattice.
    positions, species:
        The atomic configuration.
    laser:
        Optional pulse; sampled at each domain centre (dipole
        approximation per domain).
    config:
        Numerical configuration.
    device:
        Optional virtual GPU; when present, LFD transfers and residency
        are charged to its clock and the shadow ledger audits the traffic.
    executor:
        Optional :class:`repro.parallel.executor.DomainExecutor` running
        the per-domain SCF refinements and LFD propagations (None means
        serial).  Every backend produces the same physics.
    """

    def __init__(
        self,
        grid: Grid3D,
        ndomains: tuple,
        positions: np.ndarray,
        species: Sequence[PseudoSpecies],
        laser: Optional[LaserPulse] = None,
        config: Optional[DCMESHConfig] = None,
        device: Optional[VirtualGPU] = None,
        buffer_width: int = 2,
        executor=None,
    ) -> None:
        self.executor = executor
        self.grid = grid
        self.config = config if config is not None else DCMESHConfig()
        self.decomposition = DomainDecomposition(grid, ndomains, buffer_width)
        self.positions = np.asarray(positions, dtype=float)
        self.species = list(species)
        self.laser = laser
        self.device = device
        self.ledger = ShadowLedger(device.transfer if device is not None else None)
        self.rng = np.random.default_rng(self.config.seed)
        if self.config.hop_policy is not None:
            self.fssh = FSSH(self.rng, policy=self.config.hop_policy)
        else:
            self.fssh = FSSH(self.rng, decoherence_c=self.config.decoherence_c)
        self.carriers: Dict[int, List[SurfaceHoppingState]] = {}

        masses = np.array([sp.mass for sp in self.species])
        self.md_state = MDState(
            positions=self.positions.copy(),
            velocities=np.zeros_like(self.positions),
            masses=masses,
        )
        self.time = 0.0
        self.step_count = 0
        self.history: List[MDStepRecord] = []
        self._prev_forces: Optional[np.ndarray] = None
        # Optional numerical health guard (repro.resilience.guards).
        # Guards only read state, so a sim with no guard installed is
        # bit-identical to one running under a RunSupervisor that never
        # trips a check.
        self.health_guard = None

        # Initial electronic structure.
        self.dc: DCResult = self._solve_qxmd(warm=None)
        self.force_calc = ForceCalculator(grid, self.species)
        psi_bytes = sum(st.wf.nbytes for st in self.dc.states)
        self.ledger.record_psi_upload(psi_bytes, pinned=True)

    # ------------------------------------------------------------------ #
    def _executor(self):
        """The configured executor, defaulting to a fresh serial backend."""
        if self.executor is None:
            from repro.parallel.backends.serial import SerialBackend

            self.executor = SerialBackend(seed=self.config.seed)
        return self.executor

    def _solve_qxmd(self, warm: Optional[DCResult]) -> DCResult:
        solver = GlobalDCSolver(
            self.grid,
            self.decomposition,
            self.md_state.positions if hasattr(self, "md_state") else self.positions,
            self.species,
            norb_extra=self.config.norb_extra,
            nscf=self.config.nscf,
            ncg=self.config.ncg,
            mixing=self.config.mixing,
            include_nonlocal=self.config.include_nonlocal,
            seed=self.config.seed,
            executor=self._executor(),
        )
        if warm is not None:
            # Warm start: seed each domain with the previous orbitals when
            # the orbital counts still match (atoms stayed in their cores).
            return solver.solve(warm_wfs=[st.wf for st in warm.states])
        return solver.solve()

    # ------------------------------------------------------------------ #
    def excite_carrier(self, domain_alpha: int, target_offset: int = 1) -> None:
        """Promote one electron of a domain from its HOMO upward.

        ``target_offset`` = 1 puts the carrier on the LUMO.  This models
        the photo-excited electron whose surface-hopping dynamics steers
        the lattice (the Fig. 7 scenario seeds carriers via the laser).
        """
        st = self.dc.states[domain_alpha]
        nelec = float(st.occupations.sum())
        if nelec <= 0:
            raise ValueError("domain has no occupied states")
        homo = int(np.ceil(nelec / 2.0 - 1e-9)) - 1
        target = homo + target_offset
        if target >= st.wf.norb:
            raise ValueError("target state outside the orbital set")
        carrier = SurfaceHoppingState.on_state(st.wf.norb, target)
        self.carriers.setdefault(domain_alpha, []).append(carrier)
        st.occupations[homo] -= 1.0
        st.occupations[target] += 1.0

    def excited_population(self) -> float:
        """Total electron population above each domain's ground filling."""
        total = 0.0
        for st in self.dc.states:
            nelec = st.occupations.sum()
            nfull = int(nelec // 2)
            total += float(st.occupations[nfull:].sum())
        return total

    # ------------------------------------------------------------------ #
    def _domain_a_of_t(self, alpha: int) -> Optional[DomainFieldSampler]:
        if self.laser is None:
            return None
        return DomainFieldSampler(laser=self.laser, t0=self.time)

    def _run_lfd(self, scissors: List[float]) -> int:
        """Run the N_QD LFD sub-steps in every domain; returns handshake bytes."""
        cfg = self.config
        ts = cfg.timescale
        use_corrector = cfg.use_scissor and cfg.include_nonlocal
        items = [
            (st.domain.local_grid, st.wf.psi, st.occupations, st.vloc,
             dsci, use_corrector, cfg.conserve_charge, cfg.kin_variant,
             ts.dt_qd, ts.n_qd, self._domain_a_of_t(st.domain.alpha),
             self.health_guard, cfg.array_backend)
            for st, dsci in zip(self.dc.states, scissors)
        ]
        new_occs = self._executor().map(
            _lfd_domain_task, items, label="lfd.domains"
        )
        handshake_total = 0
        for st, occ in zip(self.dc.states, new_occs):
            st.occupations = occ
            if self.device is not None:
                # The per-step handshake stages vloc/occupations through a
                # transient device buffer (enter data / exit data around the
                # LFD call); modeling the allocation keeps the allocator --
                # and its OOM path -- on the per-MD-step hot path.
                staging = self.device.array(
                    st.occupations, pinned=True, tag="handshake_staging"
                )
                staging.free()
            rec = self.ledger.record_handshake(
                md_step=self.step_count,
                vloc_bytes=st.vloc.nbytes,
                occ_count=st.occupations.size,
                psi_bytes_resident=2 * st.wf.nbytes,
                pinned=True,
            )
            handshake_total += rec.total
        return handshake_total

    def _surface_hopping(self, prev: DCResult) -> int:
        """FSSH update of all carriers; returns the number of accepted hops."""
        hops = 0
        dt = self.config.timescale.dt_md
        ke = kinetic_energy(self.md_state)
        for alpha, carriers in self.carriers.items():
            st_prev = prev.states[alpha]
            st_new = self.dc.states[alpha]
            if st_prev.wf.norb != st_new.wf.norb:
                continue
            nac = nonadiabatic_couplings(st_prev.wf, st_new.wf, dt)
            for carrier in carriers:
                old_active = carrier.active
                hopped, scale = self.fssh.step(
                    carrier, st_new.eigenvalues, nac, dt, ke
                )
                if hopped:
                    hops += 1
                    st_new.occupations[old_active] -= 1.0
                    st_new.occupations[carrier.active] += 1.0
                # The scale also carries frustrated-hop policy: -1.0
                # reverses the velocities under hop_reject="reverse".
                if scale != 1.0:
                    self.md_state.velocities *= scale
        return hops

    def _forces(self) -> np.ndarray:
        """Occupation-weighted (excited-state) forces on all atoms."""
        rho_global = self.decomposition.recombine(
            [density(st.wf, st.occupations) for st in self.dc.states]
        )
        f = self.force_calc.electrostatic_forces(self.md_state.positions, rho_global)
        from repro.pseudo.local import core_repulsion_pair_forces

        f += core_repulsion_pair_forces(self.grid, self.md_state.positions, self.species)
        if self.config.include_nonlocal_forces and self.config.include_nonlocal:
            for st in self.dc.states:
                if st.kb is None or not st.atom_indices:
                    continue
                local_calc = ForceCalculator(
                    st.domain.local_grid,
                    [self.species[i] for i in st.atom_indices],
                    poisson=None,
                )
                local_pos = self.md_state.positions[st.atom_indices]
                f_nl = local_calc.nonlocal_forces(
                    local_pos, st.wf, st.occupations, kb=st.kb
                )
                for row, atom in enumerate(st.atom_indices):
                    f[atom] += f_nl[row]
        return f

    # ------------------------------------------------------------------ #
    def md_step(self) -> MDStepRecord:
        """Advance the coupled system by one Delta_MD."""
        cfg = self.config
        ts = cfg.timescale
        prev = self.dc

        with trace_span("md.step", "md", step=self.step_count + 1):
            # 1. QXMD: adiabatic states at the current positions.
            with trace_span("qxmd.refresh", "scf"):
                self.dc = self._solve_qxmd(warm=prev)
            for st_new, st_old in zip(self.dc.states, prev.states):
                if st_new.wf.norb == st_old.wf.norb:
                    st_new.occupations = st_old.occupations.copy()

            # 2. Surface hopping (U_SH of Eq. 3).
            hops = 0
            if cfg.use_surface_hopping and self.carriers and self.step_count > 0:
                with trace_span("surface_hopping", "md"):
                    hops = self._surface_hopping(prev)

            # 3. Scissor shifts (Eq. 8), once per MD step.
            scissors = []
            with trace_span("scissor_setup", "scf"):
                for st in self.dc.states:
                    if cfg.use_scissor and st.kb is not None:
                        from repro.qxmd.hamiltonian import KSHamiltonian

                        ham = KSHamiltonian(st.domain.local_grid, st.vloc, kb=st.kb)
                        scissors.append(scissor_shift(ham, st.wf, st.occupations))
                    else:
                        scissors.append(0.0)

            # 4. LFD: laser-driven propagation + occupation remap (shadow).
            with trace_span("lfd.domains", "lfd", ndomains=len(self.dc.states)):
                handshake = self._run_lfd(scissors)

            # 5. Excited-state forces + velocity Verlet.
            with trace_span("forces", "forces"):
                forces = self._forces()
            m = self.md_state.masses[:, None]
            f0 = self._prev_forces if self._prev_forces is not None else forces
            dt = ts.dt_md
            self.md_state.velocities = (
                self.md_state.velocities + 0.5 * (f0 + forces) / m * dt
            )
            self.md_state.positions = (
                self.md_state.positions
                + self.md_state.velocities * dt
                + 0.5 * forces / m * dt * dt
            )
            self._prev_forces = forces

        self.time += dt
        self.step_count += 1
        a_now = (
            self.laser.vector_potential(self.time)
            if self.laser is not None
            else np.zeros(3)
        )
        record = MDStepRecord(
            step=self.step_count,
            time=self.time,
            temperature=temperature(self.md_state),
            band_energy=self.dc.band_sum(),
            excited_population=self.excited_population(),
            scissor_shifts=scissors,
            hops=hops,
            handshake_bytes=handshake,
            vector_potential=np.asarray(a_now),
        )
        if self.health_guard is not None:
            # May raise a typed NumericalHealthError *before* the record
            # is committed; the supervisor then replays from a checkpoint.
            self.health_guard.check_md_step(self, record)
        self.history.append(record)
        return record

    def run(self, nsteps: int) -> List[MDStepRecord]:
        """Run ``nsteps`` MD steps; returns their records."""
        if nsteps < 0:
            raise ValueError("nsteps must be non-negative")
        return [self.md_step() for _ in range(nsteps)]
