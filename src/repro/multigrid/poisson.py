"""V-cycle multigrid Poisson solver on periodic grids.

Solves the Hartree problem

    nabla^2 V_H = -4 pi rho

in O(N) work per solve.  The hierarchy is built by repeated factor-two
coarsening; the coarsest level is solved exactly in Fourier space (it is
a handful of points).  Periodic boundary conditions leave the constant
mode undetermined, so the right-hand side is projected to zero mean and
the returned potential is mean-free.

The solver is host NumPy.  The paper runs it inside QXMD on the CPU,
and its residual history (``np.linalg.norm``) and buffer-reusing
smoothers have no array-API spelling that is bitwise and as fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.grids.grid import Grid3D
from repro.obs import trace_span
from repro.multigrid.smoothers import (
    red_black_gauss_seidel,
    residual,
    weighted_jacobi,
)
from repro.multigrid.transfer import prolong_trilinear, restrict_full_weighting


def solve_poisson_fft(rho: np.ndarray, grid: Grid3D) -> np.ndarray:
    """Exact periodic Poisson solve via FFT (reference / coarse-level solver).

    Solves nabla^2 V = -4 pi rho with the *discrete* 7-point Laplacian so
    that the result is consistent with the multigrid operator.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.shape != grid.shape:
        raise ValueError(f"density shape {rho.shape} != grid shape {grid.shape}")
    rho = rho - rho.mean()
    rho_k = np.fft.fftn(rho)
    eig = np.zeros(grid.shape, dtype=float)
    for axis, (n, h) in enumerate(zip(grid.shape, grid.spacing)):
        k = np.fft.fftfreq(n) * 2.0 * np.pi
        lam = (2.0 * np.cos(k) - 2.0) / (h * h)  # eigenvalues of 1-D FD Laplacian
        shape = [1, 1, 1]
        shape[axis] = n
        eig = eig + lam.reshape(shape)
    eig[0, 0, 0] = 1.0  # avoid division by zero on the null mode
    v_k = -4.0 * np.pi * rho_k / eig
    v_k[0, 0, 0] = 0.0
    v = np.real(np.fft.ifftn(v_k))
    return v - v.mean()


@dataclass
class MultigridStats:
    """Convergence record of one multigrid solve."""

    cycles: int = 0
    residual_norms: List[float] = field(default_factory=list)
    converged: bool = False

    @property
    def final_residual(self) -> float:
        return self.residual_norms[-1] if self.residual_norms else float("inf")

    @property
    def mean_contraction(self) -> float:
        """Geometric-mean residual contraction factor per V-cycle."""
        r = self.residual_norms
        if len(r) < 2 or r[0] == 0.0:
            return 0.0
        return (r[-1] / r[0]) ** (1.0 / (len(r) - 1))


class PoissonMultigrid:
    """Geometric multigrid solver for the periodic Poisson equation.

    Parameters
    ----------
    grid:
        The finest grid.
    pre_sweeps, post_sweeps:
        Relaxation sweeps before/after coarse-grid correction; None
        resolves from the active
        :class:`~repro.tuning.profile.TuningProfile` (the
        ``multigrid.poisson`` tunable).  Explicit 0 is honoured -- only
        None triggers profile resolution.
    smoother:
        ``"jacobi"`` (damped, omega=2/3) or ``"rbgs"`` (red-black
        Gauss-Seidel; needs even grid sizes, which the hierarchy has by
        construction); None resolves from the active tuning profile.
    min_points:
        Stop coarsening when any axis would drop below this; the coarsest
        level is solved exactly by FFT.
    """

    def __init__(
        self,
        grid: Grid3D,
        pre_sweeps: int | None = None,
        post_sweeps: int | None = None,
        smoother: str | None = None,
        min_points: int = 4,
    ) -> None:
        from repro.tuning.profile import get_active_profile

        params = get_active_profile().params_for("multigrid.poisson")
        if pre_sweeps is None:
            pre_sweeps = int(params["pre_sweeps"])  # type: ignore[arg-type]
        if post_sweeps is None:
            post_sweeps = int(params["post_sweeps"])  # type: ignore[arg-type]
        if smoother is None:
            smoother = str(params["smoother"])
        if smoother not in ("jacobi", "rbgs"):
            raise ValueError("smoother must be 'jacobi' or 'rbgs'")
        self.pre_sweeps = int(pre_sweeps)
        self.post_sweeps = int(post_sweeps)
        self.smoother = smoother
        self.levels: List[Grid3D] = [grid]
        g = grid
        while all(n % 2 == 0 and n // 2 >= min_points for n in g.shape):
            g = g.coarsen()
            self.levels.append(g)

    @property
    def nlevels(self) -> int:
        return len(self.levels)

    def _smooth(self, u: np.ndarray, f: np.ndarray, grid: Grid3D, sweeps: int) -> np.ndarray:
        if self.smoother == "jacobi":
            return weighted_jacobi(u, f, grid.spacing, sweeps=sweeps)
        return red_black_gauss_seidel(u, f, grid.spacing, sweeps=sweeps)

    def _vcycle(self, u: np.ndarray, f: np.ndarray, level: int) -> np.ndarray:
        grid = self.levels[level]
        if level == self.nlevels - 1:
            # Coarsest level: exact solve of L u = f.  solve_poisson_fft
            # solves L v = -4 pi rho, so pass rho = -f / (4 pi).
            return solve_poisson_fft(-f / (4.0 * np.pi), grid)
        u = self._smooth(u, f, grid, self.pre_sweeps)
        r = residual(u, f, grid.spacing)
        r_coarse = restrict_full_weighting(r)
        e_coarse = self._vcycle(np.zeros_like(r_coarse), r_coarse, level + 1)
        u = u + prolong_trilinear(e_coarse, grid.shape)
        u = self._smooth(u, f, grid, self.post_sweeps)
        return u

    def solve(
        self,
        rho: np.ndarray,
        tol: float = 1e-8,
        max_cycles: int = 50,
        initial_guess: np.ndarray | None = None,
    ) -> Tuple[np.ndarray, MultigridStats]:
        """Solve nabla^2 V = -4 pi rho to relative residual ``tol``.

        Returns the mean-free potential and a :class:`MultigridStats`
        convergence record.
        """
        grid = self.levels[0]
        rho = np.asarray(rho, dtype=float)
        if rho.shape != grid.shape:
            raise ValueError(f"density shape {rho.shape} != grid shape {grid.shape}")
        f = -4.0 * np.pi * (rho - rho.mean())
        u = (
            np.zeros(grid.shape)
            if initial_guess is None
            else np.array(initial_guess, dtype=float, copy=True)
        )
        u -= u.mean()
        stats = MultigridStats()
        f_norm = float(np.linalg.norm(f))
        if f_norm == 0.0:
            stats.converged = True
            stats.residual_norms.append(0.0)
            return u, stats
        r0 = float(np.linalg.norm(residual(u, f, grid.spacing)))
        stats.residual_norms.append(r0)
        with trace_span("poisson.solve", "hartree", npoints=grid.npoints,
                        nlevels=self.nlevels):
            for cycle in range(max_cycles):
                with trace_span("poisson.vcycle", "hartree", cycle=cycle + 1):
                    u = self._vcycle(u, f, 0)
                u -= u.mean()
                r = float(np.linalg.norm(residual(u, f, grid.spacing)))
                stats.cycles = cycle + 1
                stats.residual_norms.append(r)
                if r <= tol * f_norm:
                    stats.converged = True
                    break
        return u, stats

    def work_units(self) -> float:
        """Total grid points touched per V-cycle, in units of fine points.

        For a factor-8 coarsening this is bounded by 8/7 ~ 1.14, the
        signature of O(N) complexity.
        """
        fine = self.levels[0].npoints
        return sum(g.npoints for g in self.levels) / fine
