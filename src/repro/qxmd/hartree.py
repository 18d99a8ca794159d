"""Hartree potential of a charge density (multigrid or FFT Poisson solve)."""

from __future__ import annotations

from typing import Literal, Optional

import numpy as np

from repro.grids.grid import Grid3D
from repro.multigrid.poisson import PoissonMultigrid, solve_poisson_fft
from repro.obs import trace_span


def hartree_potential(
    rho: np.ndarray,
    grid: Grid3D,
    method: Literal["multigrid", "fft"] = "multigrid",
    solver: Optional[PoissonMultigrid] = None,
    tol: float = 1e-8,
) -> np.ndarray:
    """Solve nabla^2 V_H = -4 pi rho for the (mean-free) Hartree potential.

    ``rho`` may be a *net* charge density (electrons minus ions); on a
    periodic cell only its mean-free part is physical and the solver
    projects accordingly.  Pass a prebuilt ``solver`` to amortize the
    multigrid hierarchy across SCF iterations.  Both methods run on host
    NumPy, as QXMD's Hartree solve does in the paper.
    """
    if method == "fft":
        with trace_span("hartree.fft", "hartree"):
            return solve_poisson_fft(rho, grid)
    if method != "multigrid":
        raise ValueError("method must be 'multigrid' or 'fft'")
    if solver is None:
        solver = PoissonMultigrid(grid)
    with trace_span("hartree.multigrid", "hartree"):
        v, stats = solver.solve(rho, tol=tol)
    if not stats.converged:
        raise RuntimeError(
            f"multigrid failed to converge: residual {stats.final_residual:.3e} "
            f"after {stats.cycles} cycles"
        )
    return v


def hartree_energy(rho: np.ndarray, v_h: np.ndarray, grid: Grid3D) -> float:
    """E_H = 1/2 integral rho V_H dV."""
    if rho.shape != grid.shape or v_h.shape != grid.shape:
        raise ValueError("field shapes do not match the grid")
    return 0.5 * float(np.sum(rho * v_h)) * grid.dvol
