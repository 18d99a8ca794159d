"""Nonlocal correction of the time propagator (Eqs. 7-9) and its BLASification.

The nonlocal operator (nonlocal pseudopotential + nonlocal XC) is too
expensive to apply on the mesh every QD step, so the paper projects it
onto the span of the t = 0 unoccupied orbitals with a scissor-shift
strength (Eq. 7):

    (1 - i dt/2 v_nl) |psi_s(t)>  ~=  |psi_s(t)>
        - i (Dsci * dt / 2) * sum_{u >= LUMO} |psi_u(0)> <psi_u(0)|psi_s(t)>,

followed by the normalization of Eq. (6).  Section III-D observes that
with the (Ngrid x Norb) wave-function matrix Psi this is exactly

    Psi(t) <- Psi(t) + c * Psi_u(0) (Psi_u(0)^dagger Psi(t)),     (Eq. 9)

i.e. two BLAS level-3 GEMMs -- the 'BLASification' that Table II and
Figs. 5-6 quantify.  Both the naive per-orbital loop and the GEMM form
are implemented here and are tested to agree to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.constants import HBAR
from repro.lfd.wavefunction import WaveFunctionSet
from repro.obs import trace_charge, trace_span


def nonlocal_correction_naive(  # dclint: disable=DCL006 -- timed by NonlocalCorrector.apply
    wf: WaveFunctionSet,
    ref_unocc: WaveFunctionSet,
    scissor_shift: float,
    dt: float,
    normalize: bool = True,
) -> None:
    """Apply Eq. (7) with explicit per-orbital loops (pre-BLAS code path).

    For every propagated orbital ``s`` and every reference unoccupied
    orbital ``u``, the overlap <psi_u(0)|psi_s(t)> is computed as an
    individual reduction -- O(Norb_u * Norb_s) level-1 operations.
    """
    if ref_unocc.grid.shape != wf.grid.shape:
        raise ValueError("reference orbitals live on a different grid")
    dvol = wf.grid.dvol
    c0 = -1j * scissor_shift * dt / (2.0 * HBAR)
    acc = np.empty(wf.grid.shape, dtype=np.complex128)  # reused accumulator
    for s in range(wf.norb):
        psi_s = wf.orbital(s)
        acc[...] = 0.0
        for u in range(ref_unocc.norb):
            psi_u = ref_unocc.orbital(u)
            ovl = np.vdot(psi_u, psi_s) * dvol
            acc += ovl * psi_u
        new = psi_s + c0 * acc
        if normalize:
            nrm = np.sqrt(np.real(np.vdot(new, new)) * dvol)
            if nrm > 0.0:
                new = new / nrm
        wf.set_orbital(s, new.astype(wf.dtype, copy=False))


def nonlocal_correction_blas(  # dclint: disable=DCL006 -- timed by NonlocalCorrector.apply
    wf: WaveFunctionSet,
    ref_unocc: WaveFunctionSet,
    scissor_shift: float,
    dt: float,
    normalize: bool = True,
) -> None:
    """Apply Eq. (7) as two GEMMs (Eq. 9), plus a vectorized normalization."""
    if ref_unocc.grid.shape != wf.grid.shape:
        raise ValueError("reference orbitals live on a different grid")
    dvol = wf.grid.dvol
    c0 = -1j * scissor_shift * dt / (2.0 * HBAR)
    psi = wf.as_matrix()                  # (Ngrid, Norb)
    phi = ref_unocc.as_matrix()           # (Ngrid, Nunocc)
    overlaps = (phi.conj().T @ psi) * dvol            # GEMM 1
    psi_new = psi + c0 * (phi @ overlaps)             # GEMM 2
    if normalize:
        nrm = np.sqrt(np.real(np.einsum("gs,gs->s", psi_new.conj(), psi_new)) * dvol)
        nrm[nrm == 0.0] = 1.0
        psi_new = psi_new / nrm
    wf.psi[...] = psi_new.reshape(wf.psi.shape).astype(wf.dtype, copy=False)


def nonlocal_correction_blas_blocked(  # dclint: disable=DCL006 -- timed by NonlocalCorrector.apply
    wf: WaveFunctionSet,
    ref_unocc: WaveFunctionSet,
    scissor_shift: float,
    dt: float,
    normalize: bool = True,
    orb_block: Optional[int] = None,
) -> None:
    """Apply Eq. (9) as panel GEMMs over the unoccupied reference block.

    The (Ngrid x Nunocc) reference matrix is split into orbital panels of
    width ``orb_block``; each panel contributes one GEMM pair whose
    partial correction is accumulated.  Same arithmetic as
    :func:`nonlocal_correction_blas` (panel sums only reassociate the
    unoccupied-orbital reduction), but the panel width controls the
    BLAS-3 block shape -- the knob the tuning subsystem searches.
    ``orb_block=None`` resolves that width from the active TuningProfile
    (the ``lfd.nonlocal`` tunable) instead of a hard-coded panel shape.
    """
    if ref_unocc.grid.shape != wf.grid.shape:
        raise ValueError("reference orbitals live on a different grid")
    if orb_block is None:
        from repro.tuning.profile import get_active_profile

        orb_block = int(
            get_active_profile().params_for("lfd.nonlocal")["orb_block"]
        )
    if orb_block < 1:
        raise ValueError("orb_block must be positive")
    dvol = wf.grid.dvol
    c0 = -1j * scissor_shift * dt / (2.0 * HBAR)
    psi = wf.as_matrix()                  # (Ngrid, Norb)
    phi = ref_unocc.as_matrix()           # (Ngrid, Nunocc)
    nun = ref_unocc.norb
    corr = np.zeros_like(psi)
    for b0 in range(0, nun, orb_block):
        panel = phi[:, b0:b0 + orb_block]
        overlaps = (panel.conj().T @ psi) * dvol      # GEMM 1 (panel)
        corr += panel @ overlaps                      # GEMM 2 (panel)
    psi_new = psi + c0 * corr
    if normalize:
        nrm = np.sqrt(np.real(np.einsum("gs,gs->s", psi_new.conj(), psi_new)) * dvol)
        nrm[nrm == 0.0] = 1.0
        psi_new = psi_new / nrm
    wf.psi[...] = psi_new.reshape(wf.psi.shape).astype(wf.dtype, copy=False)


#: Selectable nonlocal-correction variants (cf. KIN_PROP_VARIANTS).
NONLOCAL_VARIANTS = ("naive", "blas", "blas_blocked")


@dataclass
class NonlocalCorrector:
    """Holds the frozen t = 0 unoccupied reference block and scissor shift.

    The reference orbitals and the scissor shift (Eq. 8) are recomputed by
    QXMD once per MD step and amortized over the N_QD = 10^2..10^3 QD
    sub-steps (shadow dynamics); this object is the GPU-resident state.

    Attributes
    ----------
    ref_unocc:
        Unoccupied (u >= LUMO) orbitals at the start of the MD step.
    scissor_shift:
        Dsci of Eq. (8), in hartree.
    variant:
        ``"blas"`` (Eq. 9), ``"blas_blocked"`` (panel GEMMs) or
        ``"naive"`` (per-orbital loops); None resolves from the active
        :class:`~repro.tuning.profile.TuningProfile`.
    orb_block:
        Panel width of the ``blas_blocked`` variant; None resolves from
        the active tuning profile.

    The correction runs on host NumPy on every substrate: its
    normalization is an ``einsum`` reduction that no array-API spelling
    reproduces bit for bit.
    """

    ref_unocc: WaveFunctionSet
    scissor_shift: float
    variant: Optional[str] = None
    orb_block: Optional[int] = None

    def __post_init__(self) -> None:
        from repro.tuning.profile import get_active_profile

        params = get_active_profile().params_for("lfd.nonlocal")
        if self.variant is None:
            self.variant = str(params["variant"])
        if self.orb_block is None:
            self.orb_block = int(params["orb_block"])  # type: ignore[arg-type]
        if self.variant not in NONLOCAL_VARIANTS:
            raise ValueError(
                f"variant must be one of {', '.join(NONLOCAL_VARIANTS)}"
            )
        if self.orb_block < 1:
            raise ValueError("orb_block must be positive")

    def apply(self, wf: WaveFunctionSet, dt: float, normalize: bool = True) -> None:
        """One nonlocal half-factor of Eq. (6) applied in place."""
        with trace_span("nonlocal_corr", "nonlocal", variant=self.variant):
            ngrid = wf.grid.npoints
            trace_charge(
                self.flop_count(wf.norb, ngrid),
                self.byte_count(wf.norb, ngrid, wf.psi.itemsize),
            )
            if self.variant == "blas":
                nonlocal_correction_blas(
                    wf, self.ref_unocc, self.scissor_shift, dt, normalize=normalize
                )
            elif self.variant == "blas_blocked":
                nonlocal_correction_blas_blocked(
                    wf, self.ref_unocc, self.scissor_shift, dt,
                    normalize=normalize, orb_block=int(self.orb_block),
                )
            else:
                nonlocal_correction_naive(
                    wf, self.ref_unocc, self.scissor_shift, dt, normalize=normalize
                )

    def flop_count(self, norb: int, ngrid: int) -> float:
        """Complex flops of one BLASified application (two GEMMs)."""
        nun = self.ref_unocc.norb
        gemm1 = 8.0 * ngrid * nun * norb      # 8 real flops per complex MAC
        gemm2 = 8.0 * ngrid * nun * norb
        return gemm1 + gemm2

    def byte_count(self, norb: int, ngrid: int, itemsize: int) -> float:
        """Bytes moved by one BLASified application (streaming estimate)."""
        return itemsize * ngrid * (2.0 * norb + self.ref_unocc.norb)
