"""Roll-free stencils are bit-identical to the ``np.roll`` programs they replaced.

Every kernel routed through :func:`repro.grids.stencil.periodic_neighbor_sum`
is checked against an inline ``np.roll`` spelling of its previous body.
Results are compared as raw bytes (``.view(np.uint8)``), so a flipped
signed zero fails exactly like a changed mantissa; the all-zero inputs
with random signs exist to exercise that.
"""

import numpy as np
import pytest

from repro.constants import HBAR
from repro.grids.grid import Grid3D
from repro.grids.stencil import apply_fd_kinetic, periodic_neighbor_sum
from repro.lfd.energy import apply_kinetic as energy_apply_kinetic
from repro.lfd.wavefunction import WaveFunctionSet
from repro.multigrid.smoothers import (
    _neighbor_sum,
    _red_black_masks,
    laplacian_periodic,
    red_black_gauss_seidel,
    weighted_jacobi,
)
from repro.multigrid.transfer import (
    _axis_full_weight,
    prolong_trilinear,
    restrict_full_weighting,
)
from repro.pseudo.elements import get_species
from repro.pseudo.kb import KBProjectorSet
from repro.qxmd.cg import _orthogonalize_against
from repro.qxmd.hamiltonian import KSHamiltonian

SPACING = (0.5, 0.45, 0.4)

#: Every axis takes size 2, an odd size and a larger size across the set.
SHAPES = [(2, 5, 12), (5, 12, 2), (12, 2, 5)]

#: Even-only shapes for the red-black smoother and full weighting.
EVEN_SHAPES = [(2, 6, 12), (6, 12, 2), (12, 2, 6)]

DTYPES = [np.float64, np.complex128]
KINDS = ["normal", "signed_zeros"]


def _field(shape, dtype, kind, seed=0):
    """Random normals, or all zeros whose signs are random per component."""
    rng = np.random.default_rng(seed)

    def part():
        if kind == "normal":
            return rng.standard_normal(shape)
        return np.where(rng.random(shape) < 0.5, -0.0, 0.0)

    if dtype == np.complex128:
        out = np.empty(shape, dtype=np.complex128)
        out.real = part()
        out.imag = part()
        return out
    return part()


def assert_bits_equal(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(
        np.ascontiguousarray(got).view(np.uint8),
        np.ascontiguousarray(want).view(np.uint8),
    )


# ----------------------------------------------------------------- #
# inline np.roll references (the bodies the kernels used to have)
# ----------------------------------------------------------------- #
def roll_kinetic(psi, spacing, mass=1.0):
    out = np.zeros_like(psi, dtype=np.complex128)
    for axis in range(3):
        h = spacing[axis]
        d = HBAR * HBAR / (mass * h * h)
        o = -0.5 * d
        out += d * psi + o * (np.roll(psi, 1, axis=axis) + np.roll(psi, -1, axis=axis))
    return out


def roll_neighbor_sum(u, spacing):
    out = np.zeros_like(u)
    for axis in range(3):
        h2 = spacing[axis] * spacing[axis]
        out += (np.roll(u, 1, axis=axis) + np.roll(u, -1, axis=axis)) / h2
    return out


def roll_laplacian(u, spacing):
    out = np.zeros_like(u)
    for axis in range(3):
        h2 = spacing[axis] * spacing[axis]
        out += (np.roll(u, 1, axis=axis) + np.roll(u, -1, axis=axis) - 2.0 * u) / h2
    return out


def roll_rbgs(u, f, spacing, sweeps):
    u = np.array(u, copy=True)
    diag = -2.0 * sum(1.0 / (h * h) for h in spacing)
    ii, jj, kk = np.indices(u.shape)
    red = (ii + jj + kk) % 2 == 0
    for _ in range(sweeps):
        for mask in (red, ~red):
            rhs = f - roll_neighbor_sum(u, spacing)
            u[mask] = rhs[mask] / diag
    return u


def roll_jacobi(u, f, spacing, sweeps, omega=2.0 / 3.0):
    diag = -2.0 * sum(1.0 / (h * h) for h in spacing)
    u = np.array(u, copy=True)
    for _ in range(sweeps):
        u_new = (f - roll_neighbor_sum(u, spacing)) / diag
        u += omega * (u_new - u)
    return u


def roll_full_weight(f, axis):
    return 0.5 * f + 0.25 * (np.roll(f, 1, axis=axis) + np.roll(f, -1, axis=axis))


def roll_restrict(fine):
    out = fine
    for axis in range(3):
        out = roll_full_weight(out, axis)
    return out[::2, ::2, ::2].copy()


def roll_prolong(coarse):
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
        up[tuple(odd)] = 0.5 * (out + np.roll(out, -1, axis=axis))
        out = up
    return out


# ----------------------------------------------------------------- #
# the primitive
# ----------------------------------------------------------------- #
class TestPeriodicNeighborSum:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("norb", [None, 3])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_roll(self, shape, axis, norb, dtype, kind):
        full = shape if norb is None else shape + (norb,)
        u = _field(full, dtype, kind)
        want = np.roll(u, 1, axis=axis) + np.roll(u, -1, axis=axis)
        out = np.empty_like(u)
        got = periodic_neighbor_sum(u, axis, out)
        assert got is out
        assert_bits_equal(got, want)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_short_axes(self, n):
        u = _field((n, 3), np.float64, "normal", seed=n)
        want = np.roll(u, 1, axis=0) + np.roll(u, -1, axis=0)
        assert_bits_equal(periodic_neighbor_sum(u, 0, np.empty_like(u)), want)

    def test_strided_input(self):
        soa = _field((5, 12, 2, 4), np.complex128, "normal")
        u = soa[..., 1]  # one orbital of an SoA array: a strided view
        for axis in range(3):
            want = np.roll(u, 1, axis=axis) + np.roll(u, -1, axis=axis)
            assert_bits_equal(periodic_neighbor_sum(u, axis, np.empty_like(u)), want)


# ----------------------------------------------------------------- #
# kinetic stencil and the Kohn-Sham Hamiltonian
# ----------------------------------------------------------------- #
class TestKinetic:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("norb", [None, 3])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_shared_stencil(self, shape, norb, dtype, kind):
        full = shape if norb is None else shape + (norb,)
        psi = _field(full, dtype, kind)
        assert_bits_equal(apply_fd_kinetic(psi, SPACING, mass=1.7),
                          roll_kinetic(psi, SPACING, mass=1.7))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_hamiltonian_and_energy_use_it(self, shape, kind):
        grid = Grid3D(shape, SPACING)
        psi = _field(shape + (3,), np.complex128, kind)
        ham = KSHamiltonian(grid, np.zeros(shape), mass=1.0)
        want = roll_kinetic(psi, SPACING)
        assert_bits_equal(ham.apply_kinetic(psi), want)
        wf = WaveFunctionSet(grid, 3, data=psi)
        assert_bits_equal(energy_apply_kinetic(wf, mass=1.0), want)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("norb", [None, 3])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_hamiltonian_apply_with_kb(self, shape, norb, dtype, kind):
        grid = Grid3D(shape, SPACING)
        vloc = _field(shape, np.float64, "normal", seed=1)
        pos = np.array([[0.3, 1.0, 0.8], [0.6, 0.2, 1.5]])
        kb = KBProjectorSet(grid, pos, [get_species("Ti"), get_species("O")])
        ham = KSHamiltonian(grid, vloc, kb=kb)
        full = shape if norb is None else shape + (norb,)
        psi = _field(full, dtype, kind, seed=2)
        vpsi = vloc * psi if norb is None else vloc[..., None] * psi
        want = roll_kinetic(psi, SPACING, mass=ham.mass) + vpsi
        want = want + kb.apply(np.asarray(psi, dtype=np.complex128))
        assert_bits_equal(ham.apply(psi), want)


# ----------------------------------------------------------------- #
# multigrid smoothers and transfer operators
# ----------------------------------------------------------------- #
class TestSmoothers:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_neighbor_sum_and_laplacian(self, shape, dtype, kind):
        u = _field(shape, dtype, kind)
        got = _neighbor_sum(u, SPACING, np.empty_like(u), np.empty_like(u))
        assert_bits_equal(got, roll_neighbor_sum(u, SPACING))
        assert_bits_equal(laplacian_periodic(u, SPACING), roll_laplacian(u, SPACING))

    def test_neighbor_sum_clears_reused_buffers(self):
        u = _field((5, 12, 2), np.float64, "normal")
        out = np.full_like(u, np.nan)
        work = np.full_like(u, np.inf)
        got = _neighbor_sum(u, SPACING, out, work)
        assert got is out
        assert_bits_equal(got, roll_neighbor_sum(u, SPACING))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_jacobi(self, shape, dtype, kind):
        u = _field(shape, dtype, kind)
        f = _field(shape, np.float64, kind, seed=3)
        assert_bits_equal(weighted_jacobi(u, f, SPACING, sweeps=3),
                          roll_jacobi(u, f, SPACING, 3))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", EVEN_SHAPES)
    def test_red_black_gauss_seidel(self, shape, dtype, kind):
        u = _field(shape, dtype, kind)
        f = _field(shape, np.float64, kind, seed=3)
        assert_bits_equal(red_black_gauss_seidel(u, f, SPACING, sweeps=2),
                          roll_rbgs(u, f, SPACING, 2))

    def test_parity_masks_cached_and_read_only(self):
        red, black = _red_black_masks((4, 6, 2))
        assert _red_black_masks((4, 6, 2))[0] is red
        ii, jj, kk = np.indices((4, 6, 2))
        assert np.array_equal(red, (ii + jj + kk) % 2 == 0)
        assert np.array_equal(black, ~red)
        with pytest.raises(ValueError):
            red[0, 0, 0] = False

    def test_parity_mask_cache_is_bounded(self):
        for n in range(2, 60, 2):
            _red_black_masks((n, 2, 2))
        info = _red_black_masks.cache_info()
        assert info.currsize <= info.maxsize


class TestTransfer:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_axis_full_weight(self, shape, axis, dtype, kind):
        f = _field(shape, dtype, kind)
        got = _axis_full_weight(f, axis, np.empty_like(f), np.empty_like(f))
        assert_bits_equal(got, roll_full_weight(f, axis))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", EVEN_SHAPES)
    def test_restrict(self, shape, dtype, kind):
        fine = _field(shape, dtype, kind)
        assert_bits_equal(restrict_full_weighting(fine), roll_restrict(fine))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_prolong(self, shape, dtype, kind):
        coarse = _field(shape, dtype, kind)
        fine_shape = tuple(2 * n for n in shape)
        assert_bits_equal(prolong_trilinear(coarse, fine_shape), roll_prolong(coarse))


# ----------------------------------------------------------------- #
# CG projection with the hoisted conjugate
# ----------------------------------------------------------------- #
@pytest.mark.parametrize("k", [0, 1, 4])
def test_orthogonalize_against_hoisted_conjugate(k):
    rng = np.random.default_rng(k)
    shape = (5, 12, 2)
    npts = int(np.prod(shape))
    basis = rng.standard_normal((npts, 6)) + 1j * rng.standard_normal((npts, 6))
    lower = basis[:, :k]
    psi = _field(shape, np.complex128, "normal", seed=9)
    dvol = 0.09
    flat = psi.ravel()
    want = psi if k == 0 else (
        flat - lower @ ((lower.conj().T @ flat) * dvol)
    ).reshape(shape)
    assert_bits_equal(_orthogonalize_against(psi, lower, lower.conj().T, dvol), want)
