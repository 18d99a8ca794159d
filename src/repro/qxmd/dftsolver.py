"""Globally-sparse, locally-dense DC-DFT solvers (Section II).

:class:`DomainSolver` solves one DC domain's Kohn-Sham problem on its
core+buffer grid with the globally informed potential as the LDC
(density-adaptive) boundary condition.  :class:`GlobalDCSolver` runs the
global-local SCF iteration: the global electrostatic potential is solved
once per cycle with the O(N) multigrid on the *global* grid (globally
sparse), each domain then refines its orbitals against the gathered
local potential (locally dense), and the domain core densities recombine
exactly (partition of unity) into the next global density.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.grids.domain import Domain, DomainDecomposition
from repro.grids.grid import Grid3D
from repro.lfd.observables import density
from repro.lfd.wavefunction import WaveFunctionSet
from repro.multigrid.poisson import PoissonMultigrid
from repro.obs import trace_span
from repro.pseudo.elements import PseudoSpecies
from repro.pseudo.kb import KBProjectorSet
from repro.pseudo.local import core_repulsion_potential, ionic_density
from repro.qxmd.cg import cg_eigensolve
from repro.qxmd.hamiltonian import KSHamiltonian
from repro.qxmd.hartree import hartree_potential
from repro.qxmd.scf import default_occupations
from repro.qxmd.xc import lda_exchange_correlation
from repro.resilience.faults import fault_point
from repro.resilience.guards import SCFDivergenceError


@dataclass
class DomainState:
    """Per-domain electronic state."""

    domain: Domain
    wf: WaveFunctionSet
    occupations: np.ndarray
    eigenvalues: np.ndarray
    kb: Optional[KBProjectorSet]
    vloc: np.ndarray
    atom_indices: List[int]


class DomainSolver:
    """Refine one domain's orbitals against an externally supplied potential.

    The LDC boundary condition enters through the gathered global
    potential: the buffer region of ``vloc`` carries the globally informed
    values, so local orbitals feel the right environment without any
    global orbital data.
    """

    def __init__(self, domain: Domain, norb: int, seed: int = 0) -> None:
        self.domain = domain
        self.norb = norb
        self.seed = seed

    def initial_wavefunctions(self) -> WaveFunctionSet:
        """Seeded random orthonormal start (deterministic per domain)."""
        rng = np.random.default_rng(self.seed + 7919 * self.domain.alpha)
        return WaveFunctionSet.random(self.domain.local_grid, self.norb, rng)

    def refine(
        self,
        wf: WaveFunctionSet,
        vloc_local: np.ndarray,
        kb: Optional[KBProjectorSet],
        ncg: int,
    ) -> np.ndarray:
        """A few CG sweeps against the gathered potential; returns eigenvalues."""
        ham = KSHamiltonian(self.domain.local_grid, vloc_local, kb=kb)
        return cg_eigensolve(ham, wf, ncg=ncg)


def _domain_refine_task(args: tuple) -> tuple:
    """Executor task: refine one domain against the global potential.

    ``args`` is ``(domain, psi, occupations, kb, v_global, ncg, seed)``.
    Under the serial and thread backends ``psi`` is the caller's live
    orbital array and is refined in place; under the process backend it
    arrives as a read-only shared-memory view and is copied first, with
    the parent writing the returned orbitals back.  Returns
    ``(psi, eigenvalues, vloc, rho_local)``.
    """
    domain, psi, occupations, kb, v_global, ncg, seed = args
    if not psi.flags.writeable:
        psi = psi.copy()
    wf = WaveFunctionSet(domain.local_grid, psi.shape[-1], data=psi, copy=False)
    vloc = domain.gather(v_global)
    eigenvalues = DomainSolver(domain, wf.norb, seed=seed).refine(
        wf, vloc, kb, ncg
    )
    rho_local = density(wf, occupations)
    return wf.psi, eigenvalues, vloc, rho_local


@dataclass
class DCResult:
    """State of a converged (or iteration-limited) global-local SCF."""

    states: List[DomainState]
    rho_global: np.ndarray
    v_global: np.ndarray
    energy_history: List[float]

    def eigenvalues(self, alpha: int) -> np.ndarray:
        """Eigenvalues of domain ``alpha``."""
        return self.states[alpha].eigenvalues

    def band_sum(self) -> float:
        """Sum over domains of occupied band energies (monitoring metric)."""
        return float(
            sum(np.dot(s.occupations, s.eigenvalues) for s in self.states)
        )


class GlobalDCSolver:
    """Global-local SCF across all DC domains.

    Parameters
    ----------
    grid:
        Global periodic grid.
    decomposition:
        DC domain decomposition of the grid.
    positions, species:
        All atoms; they are assigned to domains by core containment.
    norb_extra:
        Unoccupied orbitals per domain beyond the Aufbau filling (needed
        by surface hopping and the scissor correction).
    executor:
        A :class:`repro.parallel.executor.DomainExecutor` running the
        per-domain local refinements (None means serial).  All backends
        produce the same physics; serial and thread are bit-identical.
    """

    def __init__(
        self,
        grid: Grid3D,
        decomposition: DomainDecomposition,
        positions: np.ndarray,
        species: Sequence[PseudoSpecies],
        norb_extra: int = 2,
        nscf: int = 3,
        ncg: int = 3,
        mixing: float = 0.4,
        include_nonlocal: bool = True,
        seed: int = 1234,
        executor=None,
    ) -> None:
        self.grid = grid
        self.decomposition = decomposition
        self.positions = np.asarray(positions, dtype=float)
        self.species = list(species)
        if self.positions.shape[0] != len(self.species):
            raise ValueError("need one species per atom")
        self.norb_extra = norb_extra
        self.nscf = nscf
        self.ncg = ncg
        self.mixing = mixing
        self.include_nonlocal = include_nonlocal
        self.seed = seed
        self.poisson = PoissonMultigrid(grid)
        self.owners = decomposition.assign_atoms(self.positions)
        self.executor = executor

    def _executor(self):
        """The configured executor, defaulting to a fresh serial backend."""
        if self.executor is None:
            # Imported lazily: repro.parallel's package __init__ imports
            # this module back through DistributedDCSolver.
            from repro.parallel.backends.serial import SerialBackend

            self.executor = SerialBackend(seed=self.seed)
        return self.executor

    def _domain_setup(
        self, dom: Domain, atom_idx: List[int],
        warm: Optional[WaveFunctionSet] = None,
    ) -> DomainState:
        """Build one domain's orbitals, occupations and projectors.

        The orbitals are a copy of ``warm`` when its orbital count still
        matches, else the seeded random start.  The copy matters: the
        caller's previous orbitals stay live (surface hopping overlaps
        them with the new ones).
        """
        local_species = [self.species[i] for i in atom_idx]
        local_pos = self.positions[atom_idx] if atom_idx else np.zeros((0, 3))
        nelec = sum(sp.zval for sp in local_species)
        norb = max(1, int(np.ceil(nelec / 2.0)) + self.norb_extra)
        occ = default_occupations(nelec, norb)
        if warm is not None and warm.norb == norb:
            wf = WaveFunctionSet(dom.local_grid, norb)
            wf.psi[...] = warm.psi
        else:
            wf = DomainSolver(dom, norb, seed=self.seed).initial_wavefunctions()
        kb = (
            KBProjectorSet(dom.local_grid, local_pos, local_species)
            if (self.include_nonlocal and atom_idx)
            else None
        )
        return DomainState(
            domain=dom,
            wf=wf,
            occupations=occ,
            eigenvalues=np.zeros(norb),
            kb=kb,
            vloc=dom.local_grid.zeros(),
            atom_indices=list(atom_idx),
        )

    def solve(self, warm_wfs: Optional[Sequence] = None) -> DCResult:
        """Run the global-local SCF iterations (the QXMD DC phase).

        ``warm_wfs`` optionally seeds each domain with previous orbitals
        (one WaveFunctionSet or None per domain); entries whose orbital
        count no longer matches (atoms migrated) fall back to the random
        start.  Warm starts make consecutive MD-step solves converge in
        the paper's small 3 SCF x 3 CG budget.
        """
        grid = self.grid
        rho_ion = ionic_density(grid, self.positions, self.species)
        v_core = core_repulsion_potential(grid, self.positions, self.species)
        nelec_total = sum(sp.zval for sp in self.species)
        ndomains = len(self.owners)
        if warm_wfs is None:
            warm_wfs = [None] * ndomains
        elif len(warm_wfs) != ndomains:
            raise ValueError("need one warm wavefunction set per domain")
        states = [
            self._domain_setup(dom, idx, warm)
            for dom, idx, warm in zip(self.decomposition, self.owners, warm_wfs)
        ]
        # Neutral-atom guess for the global electron density.
        rho_e = rho_ion * (nelec_total / (float(rho_ion.sum()) * grid.dvol))
        v_global = grid.zeros()
        history: List[float] = []
        for it in range(self.nscf):
            if fault_point("qxmd.scf_diverge") is not None:
                raise SCFDivergenceError(
                    f"injected global-local SCF divergence at cycle "
                    f"{it + 1}/{self.nscf}"
                )
            with trace_span("scf.cycle", "scf", cycle=it + 1,
                            ndomains=len(states)):
                # --- global phase: one O(N) multigrid solve on the full grid.
                phi = hartree_potential(
                    rho_ion - rho_e, grid, method="multigrid", solver=self.poisson
                )
                v_xc, _ = lda_exchange_correlation(rho_e)
                v_new = -phi + v_xc + v_core
                v_global = (
                    v_new if it == 0 else (1.0 - self.mixing) * v_global + self.mixing * v_new
                )
                # --- local phase: every domain refines against the gathered
                #     (LDC boundary-informed) potential.
                items = [
                    (st.domain, st.wf.psi, st.occupations, st.kb,
                     v_global, self.ncg, self.seed)
                    for st in states
                ]
                results = self._executor().map(
                    _domain_refine_task, items, label="scf.domains"
                )
                local_rhos = []
                for st, (psi, eig, vloc, rho) in zip(states, results):
                    if psi is not st.wf.psi:
                        st.wf.psi[...] = psi
                    st.eigenvalues = eig
                    st.vloc = vloc
                    local_rhos.append(rho)
                # --- recombine: disjoint cores tile the global density.
                rho_new = self.decomposition.recombine(local_rhos)
                # Renormalize to the exact electron count (buffer truncation).
                total = float(rho_new.sum()) * grid.dvol
                if total > 0:
                    rho_new *= nelec_total / total
                rho_e = rho_new
                history.append(
                    float(sum(np.dot(s.occupations, s.eigenvalues) for s in states))
                )
        return DCResult(
            states=states,
            rho_global=rho_e,
            v_global=v_global,
            energy_history=history,
        )
