"""Kernel-by-kernel backend-differential matrix.

Two gates, one per axis of the array-API refactor:

1. **NumPy-path regression**: every hot kernel (kin/pot/nonlocal/CAP/
   multigrid/Hartree, and the SCF path's Kohn-Sham H|psi>, periodic
   Laplacian and CG solve), run on the default NumPy backend, must reproduce
   the *pre-refactor* outputs committed in ``tests/data/golden_kernels.npz``
   -- bit-for-bit on the platform that generated the file
   (``REPRO_GOLDEN_EXACT=1``), and to 1e-12 across BLAS builds.  The
   namespace refactor is required to be a pure re-spelling of the same
   floating-point program.

2. **Cross-namespace agreement**: every kernel that dispatches on the
   substrate (kinetic, potential phase, CAP), run under the
   ``array_api_strict`` namespace (the real package when installed, the
   :mod:`repro.backend` strict shim otherwise), must agree with the
   NumPy path to <= 1e-12.  The nonlocal correction and the Hartree
   solve are NumPy-only and sit in gate 1 alone.

Regenerate the golden file (after a *deliberate* numerics change) with::

    PYTHONPATH=src:. python -m tests.backend.test_kernel_matrix
"""

import os
import pathlib

import numpy as np
import pytest

from repro.grids.grid import Grid3D
from repro.lfd.wavefunction import WaveFunctionSet

GOLDEN_PATH = (
    pathlib.Path(__file__).resolve().parents[1] / "data" / "golden_kernels.npz"
)

#: Cross-platform gate; REPRO_GOLDEN_EXACT=1 demands bit-identity.
GOLDEN_ATOL = 1e-12

#: Cross-namespace gate of the acceptance criteria.
XNS_ATOL = 1e-12

SEED = 777
THETA = (0.1, 0.0, -0.05)
DT = 0.05


def _inputs():
    """Deterministic shared inputs of every kernel in the matrix."""
    grid = Grid3D.cubic(8, 0.5)
    rng = np.random.default_rng(SEED)
    wf = WaveFunctionSet.random(grid, 5, rng)
    ref = WaveFunctionSet.random(grid, 7, rng)
    vloc = 0.4 * rng.standard_normal(grid.shape)
    u = rng.standard_normal(grid.shape)
    f = rng.standard_normal(grid.shape)
    f -= f.mean()
    rho = rng.standard_normal(grid.shape)
    rho -= rho.mean()
    coarse = rng.standard_normal(tuple(n // 2 for n in grid.shape))
    return {
        "grid": grid, "wf": wf, "ref": ref, "vloc": vloc,
        "u": u, "f": f, "rho": rho, "coarse": coarse,
    }


def _kin(inp, variant, block_size=None, dtype=None, **kw):
    from repro.lfd.kin_prop import kinetic_step

    wf = inp["wf"].copy()
    if dtype is not None:
        wf = WaveFunctionSet(wf.grid, wf.norb, dtype=dtype,
                             data=wf.psi.astype(dtype))
    for _ in range(2):
        kinetic_step(wf, DT, theta=THETA, variant=variant,
                     block_size=block_size, **kw)
    return wf.psi.copy()


def _pot(inp, **kw):
    from repro.lfd.pot_prop import potential_phase, potential_phase_step

    wf = inp["wf"].copy()
    phase = potential_phase(inp["vloc"], DT, **kw)
    potential_phase_step(wf, inp["vloc"], DT, **kw)
    return np.asarray(phase), wf.psi.copy()


def _cap(inp, **kw):
    from repro.lfd.cap import cos2_absorber

    w = cos2_absorber(inp["grid"], width_points=2, strength=1.5, **kw)
    wf = inp["wf"].copy()
    wf.psi *= np.exp(-DT * np.asarray(w))[..., None]
    return np.asarray(w), wf.psi.copy()


def _nonlocal(inp, variant):
    from repro.lfd.nonlocal_corr import NonlocalCorrector

    wf = inp["wf"].copy()
    corr = NonlocalCorrector(
        ref_unocc=inp["ref"], scissor_shift=0.037, variant=variant,
        orb_block=3 if variant == "blas_blocked" else 16,
    )
    corr.apply(wf, DT)
    return wf.psi.copy()


def _multigrid(inp):
    from repro.multigrid.poisson import PoissonMultigrid, solve_poisson_fft
    from repro.multigrid.smoothers import (red_black_gauss_seidel,
                                           weighted_jacobi)
    from repro.multigrid.transfer import (prolong_trilinear,
                                          restrict_full_weighting)

    grid = inp["grid"]
    spacing = grid.spacing
    out = {
        "mg_jacobi": weighted_jacobi(inp["u"], inp["f"], spacing, sweeps=3),
        "mg_rbgs": red_black_gauss_seidel(inp["u"], inp["f"], spacing,
                                          sweeps=2),
        "mg_restrict": restrict_full_weighting(inp["f"]),
        "mg_prolong": prolong_trilinear(inp["coarse"], grid.shape),
        "mg_fft": solve_poisson_fft(inp["rho"], grid),
    }
    solver = PoissonMultigrid(grid, pre_sweeps=2, post_sweeps=2,
                              smoother="rbgs")
    v, stats = solver.solve(inp["rho"], tol=1e-10)
    out["mg_solve"] = v
    out["mg_residuals"] = np.asarray(stats.residual_norms)
    return {k: np.asarray(v) for k, v in out.items()}


def _hartree(inp):
    from repro.qxmd.hartree import hartree_potential

    return (
        np.asarray(hartree_potential(inp["rho"], inp["grid"],
                                     method="multigrid")),
        np.asarray(hartree_potential(inp["rho"], inp["grid"], method="fft")),
    )


def _ks_hamiltonian(inp):
    """Local field plus s- and p-channel KB projectors on the shared grid."""
    from repro.pseudo.elements import get_species
    from repro.pseudo.kb import KBProjectorSet
    from repro.qxmd.hamiltonian import KSHamiltonian

    grid = inp["grid"]
    pos = np.array([[1.0, 1.5, 2.0], [2.5, 2.0, 1.0]])
    kb = KBProjectorSet(grid, pos, [get_species("Ti"), get_species("O")])
    return KSHamiltonian(grid, inp["vloc"], kb=kb)


def _qxmd(inp):
    """The SCF-path kernels: H|psi>, the periodic Laplacian and CG."""
    from repro.multigrid.smoothers import laplacian_periodic
    from repro.qxmd.cg import cg_eigensolve

    ham = _ks_hamiltonian(inp)
    psi = inp["wf"].psi
    wf = inp["wf"].copy()
    eigs = cg_eigensolve(ham, wf, ncg=3)
    return {
        "ks_apply_soa": ham.apply(psi),
        "ks_apply_3d": ham.apply(psi[..., 0]),
        "mg_laplacian": laplacian_periodic(inp["u"], inp["grid"].spacing),
        "cg_eigs": np.asarray(eigs),
        "cg_orbitals": wf.psi.copy(),
    }


def golden_kernel_outputs():
    """Every kernel of the matrix on the default (NumPy) backend."""
    inp = _inputs()
    out = {}
    for variant in ("baseline", "interchange", "collapsed"):
        out[f"kin_{variant}"] = _kin(inp, variant)
    out["kin_blocked_b3"] = _kin(inp, "blocked", block_size=3)
    out["kin_blocked_default"] = _kin(inp, "blocked")
    out["pot_phase"], out["pot_applied"] = _pot(inp)
    out["cap_w"], out["cap_applied"] = _cap(inp)
    for variant in ("naive", "blas", "blas_blocked"):
        out[f"nl_{variant}"] = _nonlocal(inp, variant)
    out.update(_multigrid(inp))
    out["hartree_mg"], out["hartree_fft"] = _hartree(inp)
    out.update(_qxmd(inp))
    return out


def regenerate(path=GOLDEN_PATH):
    """Write a fresh golden file (deliberate-change workflow)."""
    data = golden_kernel_outputs()
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **data)
    return path, data


# --------------------------------------------------------------------- #
# gate 1: NumPy path == pre-refactor kernels
# --------------------------------------------------------------------- #
class TestNumpyPathMatchesPreRefactorGolden:
    @pytest.fixture(scope="class")
    def golden(self):
        assert GOLDEN_PATH.exists(), (
            f"golden file missing: {GOLDEN_PATH}; regenerate with "
            f"python -m tests.backend.test_kernel_matrix"
        )
        return np.load(GOLDEN_PATH)

    @pytest.fixture(scope="class")
    def current(self):
        return golden_kernel_outputs()

    def test_same_kernel_set(self, golden, current):
        assert set(golden.files) == set(current)

    @pytest.mark.parametrize("key", sorted(np.load(GOLDEN_PATH).files)
                             if GOLDEN_PATH.exists() else [])
    def test_kernel_matches(self, golden, current, key):
        want, got = golden[key], current[key]
        assert want.shape == got.shape
        if os.environ.get("REPRO_GOLDEN_EXACT") == "1":
            assert np.array_equal(want, got), f"{key} not bit-exact"
        else:
            diff = float(np.max(np.abs(want - got))) if want.size else 0.0
            assert diff <= GOLDEN_ATOL, (
                f"{key}: max|diff| = {diff:.3e} > {GOLDEN_ATOL}"
            )


# --------------------------------------------------------------------- #
# gate 2: strict namespace agrees with the NumPy path on every kernel
# --------------------------------------------------------------------- #
class TestCrossNamespaceAgreement:
    """Same dispatching kernel, numpy vs array_api_strict, <= 1e-12."""

    @pytest.fixture(scope="class")
    def inp(self):
        return _inputs()

    @pytest.fixture(scope="class")
    def strict(self):
        from repro.backend import get_backend

        return get_backend("array_api_strict")

    def _check(self, a, b, key):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape, key
        diff = float(np.max(np.abs(a - b))) if a.size else 0.0
        assert diff <= XNS_ATOL, f"{key}: max|diff| = {diff:.3e} > {XNS_ATOL}"

    @pytest.mark.parametrize("variant", ["baseline", "interchange",
                                         "blocked", "collapsed"])
    def test_kin(self, inp, strict, variant):
        self._check(_kin(inp, variant),
                    _kin(inp, variant, backend=strict), f"kin_{variant}")

    def test_kin_complex64(self, inp, strict):
        """Single precision rounds identically on both substrates.

        Each pass computes in complex128 (the coefficients are double)
        and the slice assignment into the complex64 array rounds; the
        strict run must store exactly the values NumPy stores.
        """
        a = _kin(inp, "collapsed", dtype=np.complex64)
        b = _kin(inp, "collapsed", dtype=np.complex64, backend=strict)
        assert a.dtype == b.dtype == np.complex64
        assert np.array_equal(a, b)

    def test_pot(self, inp, strict):
        phase_np, psi_np = _pot(inp)
        phase_xp, psi_xp = _pot(inp, backend=strict)
        self._check(phase_np, phase_xp, "pot_phase")
        self._check(psi_np, psi_xp, "pot_applied")

    def test_cap(self, inp, strict):
        w_np, psi_np = _cap(inp)
        w_xp, psi_xp = _cap(inp, backend=strict)
        self._check(w_np, w_xp, "cap_w")
        self._check(psi_np, psi_xp, "cap_applied")


if __name__ == "__main__":
    p, data = regenerate()
    print(f"golden kernel outputs written to {p}")
    for key, val in sorted(data.items()):
        print(f"  {key}: shape {val.shape}")
