"""Band-by-band preconditioned conjugate-gradient eigensolver.

QXMD refines each Kohn-Sham wave function with a few CG iterations per
SCF cycle (the paper's benchmark uses 3 CG x 3 SCF).  Each band is
minimized over rotations psi' = cos(theta) psi + sin(theta) d, where d is
the Fourier-preconditioned, orthogonalized residual direction; a final
Rayleigh-Ritz rotation diagonalizes H in the refined subspace.
"""

from __future__ import annotations


import numpy as np

from repro.constants import HBAR, M_ELECTRON
from repro.lfd.wavefunction import WaveFunctionSet
from repro.qxmd.hamiltonian import KSHamiltonian


def _kinetic_eigs(ham: KSHamiltonian) -> np.ndarray:
    """Eigenvalue field of the FD kinetic operator (for preconditioning)."""
    grid = ham.grid
    eig = np.zeros(grid.shape)
    for axis, (n, h) in enumerate(zip(grid.shape, grid.spacing)):
        k = np.fft.fftfreq(n) * 2.0 * np.pi
        lam = (2.0 - 2.0 * np.cos(k)) * HBAR * HBAR / (2.0 * M_ELECTRON * h * h)
        shape = [1, 1, 1]
        shape[axis] = n
        eig = eig + lam.reshape(shape)
    return eig


def _precondition(r: np.ndarray, kin_eigs: np.ndarray, e_ref: float) -> np.ndarray:
    """Fourier diagonal preconditioner ~ (1 + T_k / E_ref)^-1 applied to r."""
    e_ref = max(e_ref, 1e-3)
    rk = np.fft.fftn(r)
    rk /= 1.0 + kin_eigs / e_ref
    return np.fft.ifftn(rk)


def rayleigh_quotients(ham: KSHamiltonian, wf: WaveFunctionSet) -> np.ndarray:
    """Per-orbital Rayleigh quotients <psi|H|psi>/<psi|psi>."""
    e = ham.expectation(wf)
    n2 = wf.norms() ** 2
    return e / n2


def _orthogonalize_against(
    psi: np.ndarray, basis: np.ndarray, basis_h: np.ndarray, dvol: float
) -> np.ndarray:
    """Project psi orthogonal to the columns of ``basis`` ((Ngrid, k)).

    ``basis_h`` is ``basis.conj().T``, conjugated once by the caller for
    all the projections of a band.
    """
    if basis.shape[1] == 0:
        return psi
    flat = psi.ravel()
    coeff = (basis_h @ flat) * dvol
    return (flat - basis @ coeff).reshape(psi.shape)


def cg_eigensolve(
    ham: KSHamiltonian,
    wf: WaveFunctionSet,
    ncg: int = 3,
    rayleigh_ritz: bool = True,
) -> np.ndarray:
    """Refine all bands of ``wf`` toward the lowest eigenstates of ``ham``.

    Modifies ``wf`` in place; returns the per-band eigenvalue estimates
    (ascending after the final Rayleigh-Ritz rotation).
    """
    if ncg < 0:
        raise ValueError("ncg must be non-negative")
    grid = ham.grid
    dvol = grid.dvol
    kin_eigs = _kinetic_eigs(ham)
    wf.orthonormalize()
    mat = wf.as_matrix()
    for s in range(wf.norb):
        lower = mat[:, :s]
        # The lower bands stay fixed while band s is refined.
        lower_h = lower.conj().T
        psi = wf.orbital(s).astype(np.complex128)
        for _ in range(ncg):
            psi = _orthogonalize_against(psi, lower, lower_h, dvol)
            nrm = np.sqrt(np.real(np.vdot(psi, psi)) * dvol)
            if nrm == 0.0:
                raise RuntimeError(f"band {s} collapsed to zero during CG")
            psi /= nrm
            hpsi = ham.apply(psi)
            lam = np.real(np.vdot(psi, hpsi)) * dvol
            resid = hpsi - lam * psi
            d = _precondition(resid, kin_eigs, e_ref=abs(lam) + 1.0)
            d = _orthogonalize_against(d, lower, lower_h, dvol)
            # Orthogonalize the search direction against psi itself.
            d -= (np.vdot(psi, d) * dvol) * psi
            dn = np.sqrt(np.real(np.vdot(d, d)) * dvol)
            if dn < 1e-14:
                break
            d /= dn
            hd = ham.apply(d)
            a = lam
            b = np.real(np.vdot(d, hd)) * dvol
            c = np.real(np.vdot(psi, hd)) * dvol
            theta = 0.5 * np.arctan2(2.0 * c, a - b)
            cand = np.cos(theta) * psi + np.sin(theta) * d
            e_cand = (
                np.cos(theta) ** 2 * a
                + np.sin(theta) ** 2 * b
                + 2.0 * np.sin(theta) * np.cos(theta) * c
            )
            if e_cand > lam:  # pick the minimizing branch of the rotation
                theta += 0.5 * np.pi
                cand = np.cos(theta) * psi + np.sin(theta) * d
            psi = cand
        psi = _orthogonalize_against(psi, lower, lower_h, dvol)
        psi /= np.sqrt(np.real(np.vdot(psi, psi)) * dvol)
        wf.set_orbital(s, psi.astype(wf.dtype, copy=False))
        mat = wf.as_matrix()
    if rayleigh_ritz:
        return subspace_rotate(ham, wf)
    return rayleigh_quotients(ham, wf)


def subspace_rotate(ham: KSHamiltonian, wf: WaveFunctionSet) -> np.ndarray:
    """Rayleigh-Ritz: diagonalize H in span(wf) and rotate the orbitals.

    Returns the ascending subspace eigenvalues.
    """
    hsub = ham.subspace_matrix(wf)
    ssub = wf.overlap_matrix()
    # Solve the (nearly identity-overlap) generalized problem robustly.
    import scipy.linalg as sla

    vals, vecs = sla.eigh(hsub, ssub)
    mat = wf.as_matrix().astype(np.complex128, copy=False)
    rotated = mat @ vecs
    wf.psi[...] = rotated.reshape(wf.psi.shape).astype(wf.dtype)
    wf.normalize()
    return vals
