"""Algorithms 1-5 kernel tests: cross-variant equality, unitarity, physics."""

import numpy as np
import pytest
import scipy.linalg as sla

from repro.grids import Grid3D
from repro.grids.stencil import pair_split_coefficients
from repro.lfd import WaveFunctionSet, kinetic_step
from repro.lfd.kin_prop import (
    KIN_PROP_VARIANTS,
    kin_prop_baseline,
    kin_prop_blocked,
    kin_prop_collapsed,
    kin_prop_interchange,
)

VARIANTS = ["baseline", "interchange", "blocked", "collapsed"]


class TestCrossVariantEquality:
    @pytest.mark.parametrize("variant", VARIANTS[1:])
    def test_matches_baseline(self, grid8, rng, variant):
        wf_ref = WaveFunctionSet.random(grid8, 5, rng)
        wf_v = wf_ref.copy()
        kinetic_step(wf_ref, 0.03, theta=(0.2, -0.1, 0.4), variant="baseline")
        kinetic_step(wf_v, 0.03, theta=(0.2, -0.1, 0.4), variant=variant, block_size=2)
        assert wf_ref.max_abs_diff(wf_v) < 1e-13

    def test_anisotropic_grid(self, aniso_grid, rng):
        wf_a = WaveFunctionSet.random(aniso_grid, 3, rng)
        wf_b = wf_a.copy()
        kinetic_step(wf_a, 0.05, variant="baseline")
        kinetic_step(wf_b, 0.05, variant="collapsed")
        assert wf_a.max_abs_diff(wf_b) < 1e-13

    @pytest.mark.parametrize("block_size", [1, 3, 4, 100])
    def test_block_size_invariance(self, grid8, rng, block_size):
        wf_ref = WaveFunctionSet.random(grid8, 5, rng)
        wf_b = wf_ref.copy()
        kinetic_step(wf_ref, 0.03, variant="collapsed")
        kinetic_step(wf_b, 0.03, variant="blocked", block_size=block_size)
        assert wf_ref.max_abs_diff(wf_b) < 1e-14


class TestTailBlocks:
    """Blocked kernel with ``norb % block_size != 0``: the ragged final
    orbital block must reproduce the unblocked arithmetic exactly."""

    NORB = 13  # prime: every block size below leaves a ragged tail

    @pytest.mark.parametrize("block_size", [2, 3, 5, 7, 11])
    def test_tail_block_bitwise_vs_baseline(self, grid8, rng, block_size):
        assert self.NORB % block_size != 0
        wf_ref = WaveFunctionSet.random(grid8, self.NORB, rng)
        wf_b = wf_ref.copy()
        kinetic_step(wf_ref, 0.03, theta=(0.1, -0.2, 0.3),
                     variant="baseline")
        kinetic_step(wf_b, 0.03, theta=(0.1, -0.2, 0.3),
                     variant="blocked", block_size=block_size)
        # Exact equality, not a tolerance: the blocked update performs
        # the identical scalar operations on every orbital, tail block
        # included, and the baseline's extra zero-coefficient term
        # (0 * psi) cannot change any value.
        assert np.array_equal(wf_ref.psi, wf_b.psi)

    @pytest.mark.parametrize("block_size", [4, 6, 9])
    def test_tail_block_bitwise_vs_collapsed(self, grid8, rng, block_size):
        wf_ref = WaveFunctionSet.random(grid8, self.NORB, rng)
        wf_b = wf_ref.copy()
        kinetic_step(wf_ref, 0.04, variant="collapsed")
        kinetic_step(wf_b, 0.04, variant="blocked", block_size=block_size)
        assert np.array_equal(wf_ref.psi, wf_b.psi)

    def test_block_larger_than_norb(self, grid8, rng):
        wf_ref = WaveFunctionSet.random(grid8, 3, rng)
        wf_b = wf_ref.copy()
        kinetic_step(wf_ref, 0.03, variant="collapsed")
        kinetic_step(wf_b, 0.03, variant="blocked", block_size=64)
        assert np.array_equal(wf_ref.psi, wf_b.psi)


class TestUnitarity:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_norm_conserved(self, grid8, rng, variant):
        wf = WaveFunctionSet.random(grid8, 4, rng)
        for _ in range(20):
            kinetic_step(wf, 0.05, theta=(0.3, 0.0, -0.2), variant=variant)
        assert np.abs(wf.norms() - 1.0).max() < 1e-12

    def test_orthogonality_conserved(self, grid8, rng):
        wf = WaveFunctionSet.random(grid8, 4, rng)
        for _ in range(10):
            kinetic_step(wf, 0.05, variant="collapsed")
        s = wf.overlap_matrix()
        assert np.abs(s - np.eye(4)).max() < 1e-12


class TestPhysics:
    def test_matches_dense_exponential_1d(self):
        """Whole-step propagation agrees with expm of the 3-D kinetic op."""
        g = Grid3D((4, 4, 4), (0.7, 0.7, 0.7))
        rng = np.random.default_rng(5)
        wf = WaveFunctionSet.random(g, 2, rng)
        ref = wf.copy()
        dt = 0.02
        kinetic_step(wf, dt, variant="collapsed")
        # Build the dense 3-D kinetic matrix from 1-D pieces.
        from repro.grids.stencil import kinetic_matrix_1d

        n = 4
        t1 = kinetic_matrix_1d(n, 0.7)
        eye = np.eye(n)
        t3 = (
            np.kron(np.kron(t1, eye), eye)
            + np.kron(np.kron(eye, t1), eye)
            + np.kron(np.kron(eye, eye), t1)
        )
        u = sla.expm(-1j * dt * t3)
        for s in range(2):
            exact = (u @ ref.orbital(s).ravel()).reshape(g.shape)
            assert np.abs(exact - wf.orbital(s)).max() < 5e-5

    def test_free_wave_packet_moves(self):
        """A momentum-boosted Gaussian packet translates along +x."""
        g = Grid3D.cubic(16, 0.5)
        xs, ys, zs = g.meshgrid()
        x0 = 3.0
        packet = np.exp(-((xs - x0) ** 2 + (ys - 4) ** 2 + (zs - 4) ** 2) / 1.0)
        k = 1.2
        psi = packet * np.exp(1j * k * xs)
        wf = WaveFunctionSet(g, 1, data=psi[..., None])
        wf.normalize()

        def com_x(w):
            rho = np.abs(w.orbital(0)) ** 2
            return float((rho * xs).sum() / rho.sum())

        start = com_x(wf)
        nsteps, dt = 30, 0.05
        for _ in range(nsteps):
            kinetic_step(wf, dt, variant="collapsed")
        moved = com_x(wf) - start
        # Lattice group velocity sin(k h)/h, not k (FD dispersion).
        v_group = np.sin(k * 0.5) / 0.5
        assert moved == pytest.approx(v_group * nsteps * dt, rel=0.2)

    def test_constant_peierls_phase_conserves_current(self, grid8, rng):
        """With uniform static A, kinetic propagation commutes with p:
        the paramagnetic current is a constant of motion -- but the
        evolution must still differ from the zero-field one."""
        from repro.lfd.observables import current_expectation
        from repro.lfd.vector_gauge import peierls_phases

        wf = WaveFunctionSet.random(grid8, 2, rng)
        twin = wf.copy()
        theta = peierls_phases(grid8, (8.0, 0.0, 0.0))
        j0 = current_expectation(wf, np.ones(2))[0]
        for _ in range(15):
            kinetic_step(wf, 0.05, theta=theta, variant="collapsed")
            kinetic_step(twin, 0.05, variant="collapsed")
        j1 = current_expectation(wf, np.ones(2))[0]
        # Conserved up to the O(dt^2) splitting error (the pair splitting
        # commutes with p only approximately).
        assert j1 == pytest.approx(j0, abs=1e-3)
        assert wf.max_abs_diff(twin) > 1e-6


class TestKernelContracts:
    def test_baseline_needs_rank4(self, grid8, rng):
        wf = WaveFunctionSet.random(grid8, 2, rng)
        coeff = pair_split_coefficients(8, 0.5, 0.02, 0)
        with pytest.raises(ValueError):
            kin_prop_baseline(wf.psi[..., 0], coeff, 0)  # 3-D array rejected

    def test_soa_kernels_reject_aos_rank(self, grid8, rng):
        wf = WaveFunctionSet.random(grid8, 2, rng)
        coeff = pair_split_coefficients(8, 0.5, 0.02, 0)
        with pytest.raises(ValueError):
            kin_prop_collapsed(np, wf.psi[..., 0], coeff, 0)

    def test_coefficient_length_mismatch(self, grid8, rng):
        wf = WaveFunctionSet.random(grid8, 2, rng)
        coeff = pair_split_coefficients(10, 0.5, 0.02, 0)
        with pytest.raises(ValueError):
            kin_prop_collapsed(np, wf.psi, coeff, 0)

    def test_unknown_variant(self, wf_small):
        with pytest.raises(ValueError):
            kinetic_step(wf_small, 0.02, variant="cuda")

    def test_registry_contents(self):
        assert set(KIN_PROP_VARIANTS) == {
            "baseline", "interchange", "blocked", "collapsed",
        }

    def test_blocked_bad_block_size(self, grid8, rng):
        wf = WaveFunctionSet.random(grid8, 2, rng)
        coeff = pair_split_coefficients(8, 0.5, 0.02, 0)
        with pytest.raises(ValueError):
            kin_prop_blocked(wf.psi, coeff, 0, block_size=0)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_single_pass_each_axis(self, aniso_grid, rng, axis):
        """One pass along each axis agrees between interchange/collapsed."""
        wf_a = WaveFunctionSet.random(aniso_grid, 3, rng)
        wf_b = wf_a.copy()
        n = aniso_grid.shape[axis]
        h = aniso_grid.spacing[axis]
        coeff = pair_split_coefficients(n, h, 0.04, parity=1, theta=0.2)
        kin_prop_interchange(wf_a.psi, coeff, axis)
        kin_prop_collapsed(np, wf_b.psi, coeff, axis)
        assert wf_a.max_abs_diff(wf_b) < 1e-14
