"""Local-potential phase propagator.

The local part of the split Hamiltonian (Eq. 5) -- local pseudopotential,
Hartree and local exchange-correlation -- is diagonal in real space, so
``exp(-i dt v_loc(r) / hbar)`` is a pointwise phase multiplication.  This
is the memory-bandwidth-bound partner of the kinetic stencil in the
electron-propagation kernel of Table II.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.backend import ArrayBackend, get_backend, to_numpy
from repro.constants import HBAR
from repro.lfd.wavefunction import WaveFunctionSet
from repro.obs import trace_charge, trace_span


def potential_phase(  # dclint: disable=DCL006 -- timed by potential_phase_step
    vloc: np.ndarray,
    dt: float,
    backend: Union[str, ArrayBackend, None] = None,
) -> np.ndarray:
    """The diagonal phase field exp(-i dt v_loc / hbar), as host NumPy."""
    b = get_backend(backend)
    v = b.asarray(np.asarray(vloc, dtype=float))
    return to_numpy(b.xp.exp((-1j * (dt / HBAR)) * v))


def potential_phase_step(
    wf: WaveFunctionSet,
    vloc: np.ndarray,
    dt: float,
    phase: np.ndarray | None = None,
    backend: Union[str, ArrayBackend, None] = None,
) -> np.ndarray:
    """Apply exp(-i dt v_loc / hbar) to every orbital in place.

    Parameters
    ----------
    wf:
        The wave-function set to propagate.
    vloc:
        Real local potential on the grid (ignored if ``phase`` is given).
    dt:
        Time step (use dt/2 for the outer Strang halves of Eq. 6).
    phase:
        Optional precomputed phase field (re-used across orbital sets and
        QD sub-steps while the potential is frozen -- the shadow-dynamics
        amortization).
    backend:
        Array-API substrate the multiply runs in.  On NumPy it updates
        ``wf.psi`` itself; another namespace gets a boundary copy in
        and out.

    Returns
    -------
    The phase field actually used (always host NumPy), so callers can
    cache it across sub-steps regardless of the substrate.
    """
    b = get_backend(backend)
    if phase is None:
        if vloc.shape != wf.grid.shape:
            raise ValueError(
                f"potential shape {vloc.shape} != grid shape {wf.grid.shape}"
            )
        phase = potential_phase(vloc, dt, backend=b)
    with trace_span("pot_prop", "potential", backend=b.name):
        # One complex multiply per point-orbital (see costs.pot_prop_half).
        pts = wf.grid.npoints * wf.norb
        trace_charge(6.0 * pts, 2.0 * wf.psi.itemsize * pts)
        if wf.dtype == np.complex64:
            phase_cast = phase.astype(np.complex64)
        else:
            phase_cast = phase
        psi = b.asarray(wf.psi)
        psi *= b.asarray(phase_cast)[..., None]
        if psi is not wf.psi:
            wf.psi[...] = to_numpy(psi)
    return phase
