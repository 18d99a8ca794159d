"""Complex absorbing potentials (CAP) for strong-field ionization.

Attosecond-physics runs (the paper's motivating application) drive
electrons hard enough to ionize; on a periodic mesh the outgoing flux
would wrap around and re-collide unphysically.  A CAP -- a negative
imaginary potential ramped up near selected cell faces -- absorbs the
outgoing amplitude instead, and the norm loss *is* the ionization yield.

The propagator applies the CAP as a pointwise damping factor
exp(-dt W(r)) once per QD step (exact for the CAP term of the split).
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.backend import ArrayBackend, get_backend, to_numpy
from repro.grids.grid import Grid3D


def cos2_absorber(
    grid: Grid3D,
    width_points: int,
    strength: float,
    axes: Sequence[int] = (0, 1, 2),
    backend: Union[str, ArrayBackend, None] = None,
) -> np.ndarray:
    """A cos^2-ramped absorbing profile W(r) >= 0 near both faces.

    Parameters
    ----------
    grid:
        The domain grid.
    width_points:
        Ramp thickness in mesh points on each face (must leave an
        untouched interior).
    strength:
        Peak absorption rate W_max (1/a.u. time).
    axes:
        Which Cartesian axes carry absorbers.
    backend:
        Array-API substrate the profile is built in; the result is
        always host NumPy.
    """
    if width_points < 1:
        raise ValueError("width_points must be at least 1")
    if strength < 0:
        raise ValueError("strength must be non-negative")
    xp = get_backend(backend).xp
    w = xp.zeros(grid.shape)
    for axis in axes:
        if axis not in (0, 1, 2):
            raise ValueError("axes must be within 0..2")
        n = grid.shape[axis]
        if 2 * width_points >= n:
            raise ValueError(
                f"absorber width {width_points} leaves no interior on axis "
                f"{axis} (n = {n})"
            )
        profile = xp.zeros((n,))
        ramp = xp.sin(
            0.5 * xp.pi * (xp.arange(width_points) + 1) / width_points
        ) ** 2
        profile[:width_points] = xp.flip(ramp)
        profile[n - width_points:] = ramp
        shape = [1, 1, 1]
        shape[axis] = n
        w = xp.maximum(w, strength * xp.reshape(profile, tuple(shape)))
    return to_numpy(w)


def ionization_yield(initial_norms: np.ndarray, wf, occupations) -> float:
    """Total absorbed (ionized) electron number.

    yield = sum_s f_s (n_s(0)^2 - n_s(t)^2) with n_s the orbital norms.
    """
    occupations = np.asarray(occupations, dtype=float)
    initial_norms = np.asarray(initial_norms, dtype=float)
    now = wf.norms()
    if initial_norms.shape != now.shape or occupations.shape != now.shape:
        raise ValueError("norms/occupations must align with the orbital set")
    return float(np.dot(occupations, initial_norms ** 2 - now ** 2))
