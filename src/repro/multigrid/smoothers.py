"""Relaxation smoothers for the periodic 7-point Laplacian.

The smoothers operate on the discrete Poisson problem

    L u = f,   (L u)[i,j,k] = sum_d (u[i+1_d] - 2 u + u[i-1_d]) / h_d^2

with periodic boundaries.  Because the periodic Laplacian has a constant
null space, the solvers work in the mean-zero subspace.

The smoothers are host NumPy, like the whole Hartree solve (the paper
keeps QXMD's multigrid on the CPU): they reuse caller-owned buffers and
``out=`` ufuncs, which no array-API spelling matches at the same speed.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.grids.stencil import periodic_neighbor_sum


def laplacian_periodic(u: np.ndarray, spacing: Tuple[float, float, float]) -> np.ndarray:
    """Apply the periodic 7-point Laplacian to a field."""
    u = np.asarray(u)
    out = np.zeros_like(u)
    nb = np.empty_like(u)
    twice = 2.0 * u
    for axis in range(3):
        h2 = spacing[axis] * spacing[axis]
        periodic_neighbor_sum(u, axis, nb)
        np.subtract(nb, twice, out=nb)
        np.divide(nb, h2, out=nb)
        out += nb
    return out


def _neighbor_sum(
    u: np.ndarray,
    spacing: Tuple[float, float, float],
    out: np.ndarray,
    work: np.ndarray,
) -> np.ndarray:
    """Sum of neighbour values weighted by 1/h_d^2 (Laplacian minus diagonal).

    ``out`` and ``work`` are caller-owned buffers of ``u``'s shape and
    dtype, reused across sweeps; returns ``out``.  ``out`` is cleared to
    zero first: the per-axis terms accumulate onto +0.0 exactly as into a
    fresh ``zeros_like`` array, which keeps signed zeros.
    """
    out.fill(0.0)
    for axis in range(3):
        h2 = spacing[axis] * spacing[axis]
        periodic_neighbor_sum(u, axis, work)
        np.divide(work, h2, out=work)
        out += work
    return out


def _diag_coeff(spacing: Tuple[float, float, float]) -> float:
    """Diagonal coefficient of the 7-point Laplacian, -2 sum_d 1/h_d^2."""
    return -2.0 * sum(1.0 / (h * h) for h in spacing)


@lru_cache(maxsize=16)
def _red_black_masks(shape: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only (red, black) sub-lattice masks of a grid shape.

    Red is i+j+k even.  Cached per shape (a multigrid hierarchy has a
    handful of levels), so a smoother call does not rebuild them.
    """
    ii, jj, kk = np.indices(shape)
    red = (ii + jj + kk) % 2 == 0
    black = ~red
    red.flags.writeable = False
    black.flags.writeable = False
    return red, black


def weighted_jacobi(
    u: np.ndarray,
    f: np.ndarray,
    spacing: Tuple[float, float, float],
    sweeps: int = 2,
    omega: float = 2.0 / 3.0,
) -> np.ndarray:
    """Damped-Jacobi relaxation sweeps on L u = f.

    Returns the relaxed field; the input array is not modified.
    """
    diag = _diag_coeff(spacing)
    u = np.array(u, copy=True)
    nsum = np.empty_like(u)
    work = np.empty_like(u)
    for _ in range(sweeps):
        u_new = (f - _neighbor_sum(u, spacing, nsum, work)) / diag
        u += omega * (u_new - u)
    return u


def red_black_gauss_seidel(
    u: np.ndarray,
    f: np.ndarray,
    spacing: Tuple[float, float, float],
    sweeps: int = 1,
) -> np.ndarray:
    """Red-black Gauss-Seidel sweeps on L u = f (even grid sizes, periodic).

    Each sweep updates the red sub-lattice (i+j+k even) then the black one,
    which on even-sized periodic grids decouples exactly.
    """
    u = np.array(u, copy=True)
    if any(n % 2 != 0 for n in u.shape):
        raise ValueError("red-black ordering needs even grid sizes on periodic grids")
    diag = _diag_coeff(spacing)
    nsum = np.empty_like(u)
    work = np.empty_like(u)
    rhs = np.empty(u.shape, dtype=np.result_type(f, u))
    for _ in range(sweeps):
        for mask in _red_black_masks(u.shape):
            np.subtract(f, _neighbor_sum(u, spacing, nsum, work), out=rhs)
            np.divide(rhs, diag, out=rhs)
            np.copyto(u, rhs, where=mask)
    return u


def residual(
    u: np.ndarray, f: np.ndarray, spacing: Tuple[float, float, float]
) -> np.ndarray:
    """Residual r = f - L u."""
    return f - laplacian_periodic(u, spacing)
