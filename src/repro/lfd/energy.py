"""Energy evaluation kernels (the ``calc_energy()`` function of the paper).

Band energies are expectation values of the split Hamiltonian (Eq. 5):
finite-difference kinetic + local potential, plus the scissor-projected
nonlocal term.  Like the nonlocal propagation, the nonlocal part is a
pair of GEMMs when BLASified (Section III-D); a per-orbital reference
loop is kept for the Table II / Fig. 5 contrast and for testing.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.constants import HBAR, M_ELECTRON
from repro.grids.stencil import apply_fd_kinetic
from repro.lfd.nonlocal_corr import NonlocalCorrector
from repro.lfd.wavefunction import WaveFunctionSet


def apply_kinetic(wf: WaveFunctionSet, mass: float = M_ELECTRON) -> np.ndarray:
    """Apply the 3-point finite-difference kinetic operator to all orbitals.

    Returns T|psi> as an SoA array of the same shape as ``wf.psi``.
    """
    return apply_fd_kinetic(wf.psi, wf.grid.spacing, mass)


def band_energies(
    wf: WaveFunctionSet,
    vloc: np.ndarray,
    corrector: Optional[NonlocalCorrector] = None,
    mass: float = M_ELECTRON,
) -> np.ndarray:
    """Per-orbital energies e_s = <psi_s| T + v_loc (+ v_nl^sci) |psi_s> (BLASified).

    The kinetic and local terms are evaluated with one fused pass over the
    SoA data; the nonlocal scissor term adds
    Dsci * sum_u |<psi_u(0)|psi_s>|^2 via a single GEMM.
    """
    if vloc.shape != wf.grid.shape:
        raise ValueError("potential shape does not match grid")
    dvol = wf.grid.dvol
    hpsi = apply_kinetic(wf, mass=mass)
    hpsi += vloc[..., None] * wf.psi
    # copy=False: a view when the set already stores complex128 (the
    # kernel dtype contract), so no per-call O(Ngrid*Norb) copy.
    m = wf.as_matrix().astype(np.complex128, copy=False)
    hm = hpsi.reshape(m.shape)
    e = np.real(np.einsum("gs,gs->s", m.conj(), hm)) * dvol
    if corrector is not None:
        phi = corrector.ref_unocc.as_matrix()
        ovl = (phi.conj().T @ m) * dvol               # GEMM
        e = e + corrector.scissor_shift * np.sum(np.abs(ovl) ** 2, axis=0)
    return e


def band_energies_naive(
    wf: WaveFunctionSet,
    vloc: np.ndarray,
    corrector: Optional[NonlocalCorrector] = None,
    mass: float = M_ELECTRON,
) -> np.ndarray:
    """Reference per-orbital-loop implementation of :func:`band_energies`."""
    dvol = wf.grid.dvol
    e = np.zeros(wf.norb)
    tpsi = np.empty(wf.grid.shape, dtype=np.complex128)
    for s in range(wf.norb):
        # Read-only view when already complex128; tpsi is the reused
        # accumulator workspace (cleared per orbital, allocated once).
        psi = wf.orbital(s).astype(np.complex128, copy=False)
        tpsi[...] = 0.0
        for axis in range(3):
            h = wf.grid.spacing[axis]
            d = HBAR * HBAR / (mass * h * h)
            o = -0.5 * d
            tpsi += d * psi + o * (
                np.roll(psi, 1, axis=axis) + np.roll(psi, -1, axis=axis)
            )
        e[s] = np.real(np.vdot(psi, tpsi + vloc * psi)) * dvol
        if corrector is not None:
            for u in range(corrector.ref_unocc.norb):
                ovl = np.vdot(corrector.ref_unocc.orbital(u), psi) * dvol
                e[s] += corrector.scissor_shift * np.abs(ovl) ** 2
    return e


def calc_energy(
    wf: WaveFunctionSet,
    vloc: np.ndarray,
    occupations: np.ndarray,
    corrector: Optional[NonlocalCorrector] = None,
    mass: float = M_ELECTRON,
) -> float:
    """Total band-structure energy sum_s f_s e_s of one domain."""
    occupations = np.asarray(occupations, dtype=float)
    if occupations.shape != (wf.norb,):
        raise ValueError("need one occupation per orbital")
    e = band_energies(wf, vloc, corrector=corrector, mass=mass)
    return float(np.dot(occupations, e))
