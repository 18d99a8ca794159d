"""Finite-difference kinetic stencils and even-odd pair splitting.

The LFD kinetic propagator follows the space-splitting method of
Nakano, Vashishta and Kalia (Comput. Phys. Commun. 83, 181 (1994),
Ref. [28] of the paper).  The 1-D finite-difference kinetic operator

    (T psi)[i] = d * psi[i] + o * (psi[i-1] + psi[i+1]),
    d = hbar^2 / (m h^2),   o = -hbar^2 / (2 m h^2),

is split into *even* and *odd* parts, each a direct sum of 2x2 blocks
acting on point pairs (2k, 2k+1) and (2k+1, 2k+2) respectively (periodic
wrap; the grid size must be even, as is the paper's 70x70x72 mesh).
Each block

    B = [[d/2, o e^{-i theta}], [o e^{+i theta}, d/2]]

(theta is the Peierls phase h*A_d/c of the vector potential along the
stencil direction) has an *exact*, manifestly unitary exponential

    exp(-i t B) = e^{-i t d/2} [ cos(t o) I  - i sin(t o) (cos theta sx + sin theta sy) ],

so one splitting pass is precisely the tridiagonal-shaped update of
Algorithm 1 of the paper: for every mesh point a diagonal coefficient
``al`` plus exactly one of the neighbour coefficients ``bl[i]``/``bu[i]``
is non-zero.  A Strang sweep even(t/2) odd(t) even(t/2) -- the paper's
time-step argument ``p in {dt/2, dt}`` -- yields a second-order accurate,
exactly norm-conserving 1-D kinetic propagator.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.constants import HBAR, M_ELECTRON


def kinetic_diagonal(h: float, mass: float = M_ELECTRON) -> float:
    """Diagonal element d = hbar^2/(m h^2) of the 3-point kinetic stencil."""
    if h <= 0.0:
        raise ValueError("grid spacing must be positive")
    return HBAR * HBAR / (mass * h * h)


def kinetic_offdiagonal(h: float, mass: float = M_ELECTRON) -> float:
    """Off-diagonal element o = -hbar^2/(2 m h^2) of the kinetic stencil."""
    return -0.5 * kinetic_diagonal(h, mass)


def periodic_neighbor_sum(u: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """``out[i] = u[i-1] + u[i+1]`` along ``axis``, with periodic wrap.

    The slice form of ``np.roll(u, 1, axis) + np.roll(u, -1, axis)``:
    every element adds the same two operands in the same order, so the
    result is bit-identical, but no rolled copy of the field is made.
    ``out`` is caller-owned workspace of ``u``'s shape and dtype; it must
    not overlap ``u``.  Returns ``out``.
    """
    axis = range(u.ndim)[axis]
    n = u.shape[axis]
    lead = (slice(None),) * axis
    np.add(u[lead + (slice(None, -2),)], u[lead + (slice(2, None),)],
           out=out[lead + (slice(1, -1),)])
    # The two wrapped ends (i = 0 and i = n-1); modular indices keep
    # n = 1 and n = 2 right.
    up, dn = 1 % n, (n - 2) % n
    np.add(u[lead + (slice(n - 1, n),)], u[lead + (slice(up, up + 1),)],
           out=out[lead + (slice(0, 1),)])
    np.add(u[lead + (slice(dn, dn + 1),)], u[lead + (slice(0, 1),)],
           out=out[lead + (slice(n - 1, n),)])
    return out


def apply_fd_kinetic(
    psi: np.ndarray, spacing: Tuple[float, float, float], mass: float = M_ELECTRON
) -> np.ndarray:
    """T|psi> with the periodic 3-point stencil on the first three axes.

    ``psi`` is a single field (nx, ny, nz) or SoA orbitals (nx, ny, nz,
    norb).  Per axis it adds ``d psi[i] + o (psi[i-1] + psi[i+1])`` onto
    a zero-initialised complex128 accumulator; the two work buffers are
    allocated once, outside the axis loop.
    """
    out = np.zeros_like(psi, dtype=np.complex128)
    nb = np.empty_like(psi)
    term = np.empty_like(psi)
    for axis in range(3):
        d = kinetic_diagonal(spacing[axis], mass)
        o = -0.5 * d
        periodic_neighbor_sum(psi, axis, nb)
        np.multiply(o, nb, out=nb)
        np.multiply(d, psi, out=term)
        np.add(term, nb, out=term)
        out += term
    return out


def kinetic_matrix_1d(
    n: int, h: float, mass: float = M_ELECTRON, theta: float = 0.0
) -> np.ndarray:
    """Dense periodic 1-D kinetic matrix (reference implementation for tests).

    ``theta`` is the Peierls phase per bond from a uniform vector potential
    along this axis; the resulting matrix is Hermitian for any ``theta``.
    """
    if n < 2:
        raise ValueError("need at least two points")
    d = kinetic_diagonal(h, mass)
    o = kinetic_offdiagonal(h, mass)
    mat = np.zeros((n, n), dtype=np.complex128)
    phase = cmath.exp(-1j * theta)
    for i in range(n):
        mat[i, i] = d
        mat[i, (i + 1) % n] += o * phase
        mat[(i + 1) % n, i] += o * np.conj(phase)
    return mat


@dataclass(frozen=True)
class PairSplitCoefficients:
    """Per-point stencil coefficients for one even/odd splitting pass.

    These are exactly the ``al``/``bl``/``bu`` arrays passed to the
    ``kin_prop`` kernels (Algorithms 1-5): applying the pass computes,
    for every point i,

        psi'[i] = al * psi[i] + bl[i] * psi[i-1] + bu[i] * psi[i+1]

    with periodic neighbour indices.  For an even pass, ``bu`` is non-zero
    on even points and ``bl`` on odd points (and vice versa for an odd
    pass); the unused coefficient is exactly zero.

    Attributes
    ----------
    al:
        Complex diagonal coefficient (same for every point in a pass).
    bl, bu:
        Complex neighbour coefficients, length-``n`` arrays.
    parity:
        0 for the even pass (pairs (0,1), (2,3), ...), 1 for the odd pass.
    dt:
        The time sub-step this pass propagates.
    """

    al: complex
    bl: np.ndarray
    bu: np.ndarray
    parity: int
    dt: float

    @property
    def n(self) -> int:
        return self.bl.shape[0]


def pair_split_coefficients(
    n: int,
    h: float,
    dt: float,
    parity: int,
    theta: float = 0.0,
    mass: float = M_ELECTRON,
) -> PairSplitCoefficients:
    """Build the coefficients of one even/odd kinetic splitting pass.

    Parameters
    ----------
    n:
        Number of grid points along the stencil direction (must be even so
        the periodic pairing closes).
    h:
        Grid spacing along the stencil direction.
    dt:
        Time sub-step (use dt/2 for the outer Strang passes).
    parity:
        0 = even pass (pairs start at even indices), 1 = odd pass.
    theta:
        Peierls phase per bond, h * A_d / c, from the vector potential.
    """
    if n % 2 != 0:
        raise ValueError(f"pair splitting requires an even grid size, got {n}")
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    d = kinetic_diagonal(h, mass)
    o = kinetic_offdiagonal(h, mass)
    t = dt / HBAR
    # exp(-i t B), B = d/2 I + o (cos th sx + sin th sy):
    diag_phase = cmath.exp(-1j * t * d / 2.0)
    c = diag_phase * np.cos(t * o)
    s = -1j * diag_phase * np.sin(t * o)
    # Hopping left->right carries e^{-i theta}, right->left e^{+i theta}.
    hop_up = s * cmath.exp(-1j * theta)   # couples psi[i] <- psi[i+1]
    hop_dn = s * cmath.exp(+1j * theta)   # couples psi[i] <- psi[i-1]

    bl = np.zeros(n, dtype=np.complex128)
    bu = np.zeros(n, dtype=np.complex128)
    # Pair (i, i+1): the left member reads its upper neighbour, the right
    # member reads its lower neighbour.
    left = np.arange(parity, n, 2) % n
    right = (left + 1) % n
    bu[left] = hop_up
    bl[right] = hop_dn
    return PairSplitCoefficients(al=c, bl=bl, bu=bu, parity=parity, dt=dt)


def pair_split_matrix(coeff: PairSplitCoefficients) -> np.ndarray:
    """Dense matrix of one splitting pass (reference for unitarity tests)."""
    n = coeff.n
    mat = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        mat[i, i] = coeff.al
        mat[i, (i - 1) % n] += coeff.bl[i]
        mat[i, (i + 1) % n] += coeff.bu[i]
    return mat


def strang_passes(
    n: int, h: float, dt: float, theta: float = 0.0, mass: float = M_ELECTRON
) -> Tuple[PairSplitCoefficients, PairSplitCoefficients, PairSplitCoefficients]:
    """The even(dt/2), odd(dt), even(dt/2) Strang sweep for one direction.

    The product of the three returned passes approximates exp(-i dt T_d / hbar)
    to second order in dt while being exactly unitary.
    """
    half = pair_split_coefficients(n, h, dt / 2.0, parity=0, theta=theta, mass=mass)
    full = pair_split_coefficients(n, h, dt, parity=1, theta=theta, mass=mass)
    return half, full, half
