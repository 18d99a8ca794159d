"""The built-in tunables: four real hot paths of the reproduction.

Each tunable wraps one paper-mapped kernel family with a fixed, seeded
probe problem sized so a full exhaustive search stays in CI-smoke
territory while the candidates still do meaningfully different work:

===================  ==================================================
``lfd.kin_prop``     Kinetic-propagator variant (Algorithms 1/3/4/5)
                     plus the Algorithm-4 orbital ``block_size``.
``lfd.nonlocal``     Nonlocal-correction BLAS-3 shape: naive loops vs
                     one GEMM pair (Eq. 9) vs orbital-panel GEMMs with
                     a tunable panel width.
``parallel.executor``DC-domain executor backend, worker count and chunk
                     size (the Fig. 2-3 scaling substrate).
``multigrid.poisson``Hartree V-cycle smoother and pre/post sweep counts.
===================  ==================================================

Kernel modules are imported lazily inside the probe/trial closures so
importing :mod:`repro.tuning` never drags the physics stack in (and the
physics stack can import :mod:`repro.tuning.profile` without a cycle).
Every ``run_trial`` works on a fresh copy of the probe state and returns
a plain output array for the correctness gate; probes are never mutated.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.tuning.defaults import default_params
from repro.tuning.registry import Tunable, TunableRegistry
from repro.tuning.spaces import Choice, IntRange, Params, ParamSpace

PROBE_SEED = 2026


# --------------------------------------------------------------------- #
# lfd.kin_prop
# --------------------------------------------------------------------- #
def _kin_prop_probe() -> dict:
    from repro.grids.grid import Grid3D
    from repro.lfd.wavefunction import WaveFunctionSet

    grid = Grid3D.cubic(12, 0.5)
    rng = np.random.default_rng(PROBE_SEED)
    wf = WaveFunctionSet.random(grid, 12, rng)
    return {"wf": wf, "dt": 0.05, "steps": 2}


def _kin_prop_trial(probe: dict, params: Params) -> np.ndarray:
    from repro.lfd.kin_prop import kinetic_step

    wf = probe["wf"].copy()
    for _ in range(probe["steps"]):
        kinetic_step(wf, probe["dt"], variant=str(params["variant"]),
                     block_size=int(params["block_size"]),
                     backend=str(params.get("backend", "numpy")))
    return wf.psi.copy()


def _kin_prop_prefilter(params: Params) -> Optional[str]:
    defaults = default_params("lfd.kin_prop")
    if params["variant"] != "blocked" and params["block_size"] != defaults["block_size"]:
        return "block_size only affects the blocked variant"
    if params.get("backend", "numpy") != "numpy" and (
        params["variant"] != defaults["variant"]
        or params["block_size"] != defaults["block_size"]
    ):
        return ("other substrates run the collapsed kernel for every "
                "variant; variant/block only matter on numpy")
    return None


def _kin_prop_tunable() -> Tunable:
    return Tunable(
        tunable_id="lfd.kin_prop",
        space=ParamSpace((
            Choice("variant", ("baseline", "interchange", "blocked",
                               "collapsed")),
            Choice("block_size", (4, 8, 16, 32, 64)),
            Choice("backend", ("numpy", "array_api_strict")),
        )),
        defaults=default_params("lfd.kin_prop"),
        description="kinetic stencil propagation variant and orbital block",
        paper_ref="Algorithms 1-5; Table I rows 1-4",
        source_modules=("repro.lfd.kin_prop", "repro.grids.stencil"),
        make_probe=_kin_prop_probe,
        run_trial=_kin_prop_trial,
        prefilter=_kin_prop_prefilter,
    )


# --------------------------------------------------------------------- #
# lfd.nonlocal
# --------------------------------------------------------------------- #
def _nonlocal_probe() -> dict:
    from repro.grids.grid import Grid3D
    from repro.lfd.wavefunction import WaveFunctionSet

    grid = Grid3D.cubic(10, 0.5)
    rng = np.random.default_rng(PROBE_SEED + 1)
    wf = WaveFunctionSet.random(grid, 10, rng)
    ref = WaveFunctionSet.random(grid, 24, rng)
    return {"wf": wf, "ref": ref, "dt": 0.05, "scissor": 0.037}


def _nonlocal_trial(probe: dict, params: Params) -> np.ndarray:
    from repro.lfd.nonlocal_corr import NonlocalCorrector

    wf = probe["wf"].copy()
    corr = NonlocalCorrector(
        ref_unocc=probe["ref"], scissor_shift=probe["scissor"],
        variant=str(params["variant"]), orb_block=int(params["orb_block"]),
    )
    corr.apply(wf, probe["dt"])
    return wf.psi.copy()


def _nonlocal_prefilter(params: Params) -> Optional[str]:
    defaults = default_params("lfd.nonlocal")
    if params["variant"] != "blas_blocked" and params["orb_block"] != defaults["orb_block"]:
        return "orb_block only affects the blas_blocked variant"
    return None


def _nonlocal_tunable() -> Tunable:
    return Tunable(
        tunable_id="lfd.nonlocal",
        space=ParamSpace((
            Choice("variant", ("naive", "blas", "blas_blocked")),
            Choice("orb_block", (4, 8, 16, 32)),
        )),
        defaults=default_params("lfd.nonlocal"),
        description="nonlocal correction BLAS-3 variant and panel width",
        paper_ref="Eqs. 7-9, Section III-D, Table II, Figs. 5-6",
        source_modules=("repro.lfd.nonlocal_corr",),
        make_probe=_nonlocal_probe,
        run_trial=_nonlocal_trial,
        prefilter=_nonlocal_prefilter,
    )


# --------------------------------------------------------------------- #
# parallel.executor
# --------------------------------------------------------------------- #
def _executor_task(item: tuple) -> np.ndarray:
    """Module-level (picklable) NumPy-heavy task: seeded dense solve."""
    seed, size = item
    rng = np.random.default_rng(np.random.SeedSequence((PROBE_SEED, seed)))
    a = rng.standard_normal((size, size)) + size * np.eye(size)
    b = rng.standard_normal(size)
    return np.linalg.solve(a, b)


def _executor_probe() -> dict:
    return {"items": [(i, 48) for i in range(12)]}


def _executor_trial(probe: dict, params: Params) -> np.ndarray:
    from repro.parallel.executor import make_executor

    backend = str(params["backend"])
    extras = {}
    if backend == "process":
        extras["chunk_size"] = int(params["chunk_size"])
    with make_executor(backend, workers=int(params["workers"]),
                       seed=0, **extras) as ex:
        results = ex.map(_executor_task, probe["items"], label="tuning-probe")
    return np.stack(results)


def _executor_prefilter(params: Params) -> Optional[str]:
    if params["backend"] == "process":
        return "process spawn overhead swamps any probe-scale signal"
    if params["backend"] == "serial" and params["workers"] != 1:
        return "serial backend ignores workers"
    if params["chunk_size"] != 1:
        return "chunk_size only affects the process backend"
    return None


def _executor_tunable() -> Tunable:
    return Tunable(
        tunable_id="parallel.executor",
        space=ParamSpace((
            Choice("backend", ("serial", "thread", "process")),
            Choice("workers", (1, 2, 4)),
            Choice("chunk_size", (1, 2, 4)),
        )),
        defaults=default_params("parallel.executor"),
        description="DC-domain executor backend, workers and chunk size",
        paper_ref="Figs. 2-3 (DC weak scaling), Section III-E",
        source_modules=(
            "repro.parallel.executor",
            "repro.parallel.backends.serial",
            "repro.parallel.backends.thread",
            "repro.parallel.backends.process",
        ),
        make_probe=_executor_probe,
        run_trial=_executor_trial,
        prefilter=_executor_prefilter,
    )


# --------------------------------------------------------------------- #
# multigrid.poisson
# --------------------------------------------------------------------- #
def _poisson_probe() -> dict:
    from repro.grids.grid import Grid3D

    grid = Grid3D.cubic(16, 0.4)
    rng = np.random.default_rng(PROBE_SEED + 2)
    # Smooth, mean-free density: a few random low-frequency Fourier modes.
    x, y, z = np.meshgrid(*(np.arange(n) / n for n in grid.shape),
                          indexing="ij")
    rho = np.zeros(grid.shape)
    for _ in range(4):
        kx, ky, kz = rng.integers(1, 4, size=3)
        amp, ph = rng.standard_normal(), rng.uniform(0, 2 * np.pi)
        rho += amp * np.cos(2 * np.pi * (kx * x + ky * y + kz * z) + ph)
    return {"grid": grid, "rho": rho - rho.mean()}


def _poisson_trial(probe: dict, params: Params) -> np.ndarray:
    from repro.multigrid.poisson import PoissonMultigrid

    solver = PoissonMultigrid(
        probe["grid"],
        pre_sweeps=int(params["pre_sweeps"]),
        post_sweeps=int(params["post_sweeps"]),
        smoother=str(params["smoother"]),
    )
    # Converged far past the gate tolerance: every smoother config must
    # land on the same discrete solution, so only speed can differ.
    u, stats = solver.solve(probe["rho"], tol=1e-14, max_cycles=200)
    if not stats.converged:
        return np.full_like(u, np.nan)  # unconverged config can never win
    return u


def _poisson_tunable() -> Tunable:
    return Tunable(
        tunable_id="multigrid.poisson",
        space=ParamSpace((
            Choice("smoother", ("rbgs", "jacobi")),
            IntRange("pre_sweeps", 1, 3),
            IntRange("post_sweeps", 1, 3),
        )),
        defaults=default_params("multigrid.poisson"),
        description="Hartree V-cycle smoother and sweep counts",
        paper_ref="Hartree solve of the LFD step (Eq. 4 context)",
        source_modules=(
            "repro.multigrid.poisson",
            "repro.multigrid.smoothers",
            "repro.multigrid.transfer",
        ),
        make_probe=_poisson_probe,
        run_trial=_poisson_trial,
    )


# --------------------------------------------------------------------- #
# ensemble.swarm
# --------------------------------------------------------------------- #
def _ensemble_probe() -> dict:
    from repro.ensemble.engine import EnsembleConfig
    from repro.ensemble.path import model_path

    return {
        "path": model_path(nsteps=24, nstates=4, dt=1.0,
                           seed=PROBE_SEED + 3),
        "config": EnsembleConfig(ntraj=64, seed=PROBE_SEED + 4),
    }


def _ensemble_trial(probe: dict, params: Params) -> np.ndarray:
    from dataclasses import replace

    from repro.ensemble.engine import run_ensemble

    config = replace(probe["config"], batch_size=int(params["batch_size"]))
    result = run_ensemble(probe["path"], config, backend="serial")
    # Per-trajectory RNG streams + in-order reassembly make the stacked
    # traces bitwise invariant to batch_size, so the gate is exact: only
    # speed can distinguish candidates.
    return np.concatenate([
        result.stats.pop_mean.ravel(),
        result.hops.astype(np.float64),
        result.ke_factor,
    ])


def _ensemble_tunable() -> Tunable:
    return Tunable(
        tunable_id="ensemble.swarm",
        space=ParamSpace((
            Choice("batch_size", (8, 16, 32, 64, 128, 256)),
        )),
        defaults=default_params("ensemble.swarm"),
        description="FSSH trajectory-swarm batch size",
        paper_ref="QXMD surface-hopping ensembles (Sec. II-B context)",
        source_modules=(
            "repro.ensemble.swarm",
            "repro.ensemble.engine",
            "repro.qxmd.sh_kernels",
        ),
        make_probe=_ensemble_probe,
        run_trial=_ensemble_trial,
    )


def build_registry() -> TunableRegistry:
    """A fresh registry holding the five built-in tunables."""
    registry = TunableRegistry()
    registry.register(_kin_prop_tunable())
    registry.register(_nonlocal_tunable())
    registry.register(_executor_tunable())
    registry.register(_poisson_tunable())
    registry.register(_ensemble_tunable())
    return registry
