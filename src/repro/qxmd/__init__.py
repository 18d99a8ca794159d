"""QXMD: the CPU-resident quantum-excitation molecular-dynamics subprogram.

Mirrors the Fortran/MPI QXMD side of DC-MESH (Fig. 1b): per-domain
Kohn-Sham ground/adiabatic states from global-local SCF iterations
(3 SCF x 3 CG in the paper's benchmark), surface hopping between
adiabatic states driven by nonadiabatic couplings, excited-state
(Ehrenfest) forces and velocity-Verlet molecular dynamics.
"""

from repro.qxmd.xc import lda_exchange_correlation, xc_energy_density
from repro.qxmd.hartree import hartree_potential, hartree_energy
from repro.qxmd.hamiltonian import KSHamiltonian
from repro.qxmd.cg import cg_eigensolve, rayleigh_quotients
from repro.qxmd.scf import SCFConfig, SCFResult, scf_solve
from repro.qxmd.dftsolver import DomainSolver, GlobalDCSolver, DCResult
from repro.qxmd.nac import nonadiabatic_couplings, align_phases
from repro.qxmd.sh_kernels import HopPolicy
from repro.qxmd.surface_hopping import FSSH, SurfaceHoppingState
from repro.qxmd.forces import ForceCalculator, ForceBreakdown
from repro.qxmd.md import VelocityVerlet, MDState, kinetic_energy, temperature
from repro.qxmd.mixing import LinearMixer, PulayMixer, make_mixer
from repro.qxmd.itp import imaginary_time_ground_state

__all__ = [
    "lda_exchange_correlation",
    "xc_energy_density",
    "hartree_potential",
    "hartree_energy",
    "KSHamiltonian",
    "cg_eigensolve",
    "rayleigh_quotients",
    "SCFConfig",
    "SCFResult",
    "scf_solve",
    "DomainSolver",
    "GlobalDCSolver",
    "DCResult",
    "nonadiabatic_couplings",
    "align_phases",
    "FSSH",
    "HopPolicy",
    "SurfaceHoppingState",
    "ForceCalculator",
    "ForceBreakdown",
    "VelocityVerlet",
    "MDState",
    "kinetic_energy",
    "temperature",
    "LinearMixer",
    "PulayMixer",
    "make_mixer",
    "imaginary_time_ground_state",
]
