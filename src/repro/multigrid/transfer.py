"""Inter-grid transfer operators for the periodic multigrid hierarchy.

Restriction is full weighting (separable [1/4, 1/2, 1/4] per axis followed
by subsampling on even points); prolongation is its adjoint-scaled
trilinear interpolation.  Both assume even grid sizes and periodic wrap,
matching the vertex-centred hierarchy produced by :meth:`Grid3D.coarsen`.
Like the rest of the Hartree solve they are host NumPy.
"""

from __future__ import annotations

import numpy as np

from repro.grids.stencil import periodic_neighbor_sum


def _axis_full_weight(
    f: np.ndarray, axis: int, out: np.ndarray, work: np.ndarray
) -> np.ndarray:
    """Apply the 1-D full-weighting filter [1/4, 1/2, 1/4] along ``axis``.

    Writes into ``out``; ``work`` is scratch of the same shape.  Neither
    may overlap ``f``.  Returns ``out``.
    """
    periodic_neighbor_sum(f, axis, work)
    np.multiply(0.25, work, out=work)
    np.multiply(0.5, f, out=out)
    np.add(out, work, out=out)
    return out


def restrict_full_weighting(fine: np.ndarray) -> np.ndarray:
    """Restrict a fine-grid field to the next coarser periodic grid.

    The coarse point ``i`` coincides with fine point ``2 i``; its value is
    the 27-point full-weighted average of the fine field around that point.
    """
    fine = np.asarray(fine)
    if fine.ndim != 3:
        raise ValueError("expected a 3-D field")
    if any(n % 2 != 0 for n in fine.shape):
        raise ValueError(f"cannot restrict odd-sized field {fine.shape}")
    work = np.empty_like(fine)
    # Ping-pong between two buffers: axis 0 reads ``fine``, each later
    # axis reads the previous axis' output.
    ping, pong = np.empty_like(fine), np.empty_like(fine)
    out = fine
    for axis, dst in zip(range(3), (ping, pong, ping)):
        out = _axis_full_weight(out, axis, dst, work)
    return out[::2, ::2, ::2].copy()


def prolong_trilinear(
    coarse: np.ndarray, fine_shape: tuple[int, int, int]
) -> np.ndarray:
    """Trilinear interpolation of a coarse field onto the doubled fine grid.

    Fine even points copy the coarse value, odd points average the two
    flanking coarse points; tensor product over the three axes.
    """
    coarse = np.asarray(coarse)
    if coarse.ndim != 3:
        raise ValueError("expected a 3-D field")
    if tuple(2 * n for n in coarse.shape) != tuple(fine_shape):
        raise ValueError(
            f"fine shape {fine_shape} is not double the coarse shape {coarse.shape}"
        )
    # Neighbour-sum scratch for every axis: a prefix of one fine-sized
    # buffer, reshaped per axis (the field doubles along one axis a pass).
    work = np.empty(2 * 2 * 2 * coarse.size, dtype=coarse.dtype)
    out = coarse
    for axis in range(3):
        n = out.shape[axis]
        new_shape = list(out.shape)
        new_shape[axis] = 2 * n
        up = np.empty(new_shape, dtype=out.dtype)
        even = [slice(None)] * 3
        odd = [slice(None)] * 3
        even[axis] = slice(0, 2 * n, 2)
        odd[axis] = slice(1, 2 * n, 2)
        up[tuple(even)] = out
        # Odd point 2j+1 lies between the copies of coarse j and j+1, so
        # its neighbour sum on ``up`` is out[j] + out[j+1] (the odd
        # entries are zeroed first: they are read at the even points).
        up[tuple(odd)] = 0.0
        nb = periodic_neighbor_sum(up, axis, work[:up.size].reshape(up.shape))
        np.multiply(0.5, nb[tuple(odd)], out=up[tuple(odd)])
        out = up
    return out
