"""The Kohn-Sham Hamiltonian of one DC domain.

H = T (3-point finite-difference kinetic) + v_loc (local pseudopotential
+ Hartree + local XC, a multiplicative field) + optional Kleinman-
Bylander nonlocal projectors.  This is the operator the CG eigensolver
refines against and the reference for the scissor shift (the paper's
"nl" vs "loc" Hamiltonians of Eq. 8).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.constants import M_ELECTRON
from repro.grids.grid import Grid3D
from repro.grids.stencil import apply_fd_kinetic
from repro.lfd.wavefunction import WaveFunctionSet
from repro.pseudo.kb import KBProjectorSet


class KSHamiltonian:
    """Apply-oriented Kohn-Sham Hamiltonian on a periodic grid."""

    def __init__(
        self,
        grid: Grid3D,
        vloc: np.ndarray,
        kb: Optional[KBProjectorSet] = None,
        mass: float = M_ELECTRON,
    ) -> None:
        vloc = np.asarray(vloc, dtype=float)
        if vloc.shape != grid.shape:
            raise ValueError(f"vloc shape {vloc.shape} != grid {grid.shape}")
        if kb is not None and kb.grid.shape != grid.shape:
            raise ValueError("KB projectors live on a different grid")
        self.grid = grid
        self.vloc = vloc
        self.kb = kb
        self.mass = mass

    def without_nonlocal(self) -> "KSHamiltonian":
        """The local-only Hamiltonian h_loc of Eq. (5)."""
        return KSHamiltonian(self.grid, self.vloc, kb=None, mass=self.mass)

    # ------------------------------------------------------------------ #
    def apply_kinetic(self, psi: np.ndarray) -> np.ndarray:
        """T|psi> with the 3-point stencil, for SoA or single-orbital data."""
        return apply_fd_kinetic(psi, self.grid.spacing, self.mass)

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """H|psi>.  ``psi`` is either (nx,ny,nz) or SoA (nx,ny,nz,norb)."""
        if psi.ndim == 4:
            vpsi = self.vloc[..., None] * psi
        elif psi.ndim == 3:
            vpsi = self.vloc * psi
        else:
            raise ValueError("psi must be a 3-D field or SoA orbital array")
        out = self.apply_kinetic(psi)
        out += vpsi
        if self.kb is not None:
            out += self.kb.apply(np.asarray(psi, dtype=np.complex128))
        return out

    def apply_wf(self, wf: WaveFunctionSet) -> np.ndarray:
        """H applied to every orbital of a wave-function set (SoA result)."""
        return self.apply(wf.psi.astype(np.complex128, copy=False))

    # ------------------------------------------------------------------ #
    def expectation(self, wf: WaveFunctionSet) -> np.ndarray:
        """Per-orbital <psi_s|H|psi_s> (real for Hermitian H)."""
        hpsi = self.apply_wf(wf)
        m = wf.as_matrix().astype(np.complex128, copy=False)
        hm = hpsi.reshape(m.shape)
        return np.real(np.einsum("gs,gs->s", m.conj(), hm)) * self.grid.dvol

    def subspace_matrix(self, wf: WaveFunctionSet) -> np.ndarray:
        """<psi_s|H|psi_u> in the span of the orbital set (one GEMM)."""
        hpsi = self.apply_wf(wf).reshape(self.grid.npoints, wf.norb)
        m = wf.as_matrix().astype(np.complex128, copy=False)
        return (m.conj().T @ hpsi) * self.grid.dvol

    def dense_matrix(self) -> np.ndarray:
        """Full dense matrix (tests only; O(Ngrid^2) memory)."""
        n = self.grid.npoints
        if n > 2048:
            raise MemoryError(f"dense Hamiltonian of {n} points refused")
        eye = np.eye(n, dtype=np.complex128)
        cols = []
        for i in range(n):
            col = self.apply(eye[:, i].reshape(self.grid.shape))
            cols.append(col.ravel())
        return np.stack(cols, axis=1)
