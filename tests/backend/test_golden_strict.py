"""Full-trajectory regressions under the strict array-API substrate.

The kernel-level differential matrix (``test_kernel_matrix``) pins each
hot kernel at 1e-12; these tests close the loop end to end: the *whole*
DC-MESH trajectory and the *whole* FSSH ensemble, run with every
dispatching kernel on the strict namespace, must land within ``1e-10``
of the committed NumPy-generated goldens.  That is the acceptance gate
for "the substrate changes the execution path, never the physics".

The strict substrate is selected the same way the CLI does it: the
``array_backend`` config field (which rides the executor task tuples)
plus the ``lfd.kin_prop`` tuning-profile override.  The nonlocal
correction and the Hartree solve are NumPy-only, so they run on NumPy
here too.
"""

import numpy as np

from repro.core import DCMESHConfig, DCMESHSimulation, TimescaleSplit
from repro.ensemble import EnsembleConfig, model_path, run_ensemble
from repro.grids import Grid3D
from repro.maxwell import GaussianPulse
from repro.pseudo import get_species
from repro.qxmd import HopPolicy
from repro.tuning import TuningProfile
from repro.tuning.profile import active_profile

from tests.ensemble.test_golden_ensemble import (
    GOLDEN_PATH as ENSEMBLE_GOLDEN_PATH,
)
from tests.ensemble.test_golden_ensemble import NTRAJ
from tests.integration.test_golden_trajectory import (
    GOLDEN_ATOL,
    GOLDEN_PATH,
    NSTEPS,
)

STRICT = "array_api_strict"

def strict_profile() -> TuningProfile:
    """A profile routing the LFD kernels through strict."""
    return TuningProfile(
        {"lfd.kin_prop": {"backend": STRICT}}, source="strict-golden-test"
    )


def golden_run_strict():
    """The pinned trajectory scenario, every kernel on the strict path."""
    with active_profile(strict_profile()):
        grid = Grid3D((12, 12, 12), (0.6, 0.6, 0.6))
        pos = np.array([[1.8, 3.6, 3.6], [5.4, 3.6, 3.6]])
        species = [get_species("O"), get_species("O")]
        laser = GaussianPulse(e0=0.02, omega=0.3, t0=10.0, sigma=6.0)
        config = DCMESHConfig(
            timescale=TimescaleSplit(dt_md=2.0, n_qd=5),
            nscf=2,
            ncg=2,
            norb_extra=2,
            seed=13,
            array_backend=STRICT,
        )
        sim = DCMESHSimulation(
            grid, (2, 1, 1), pos, species, laser=laser, config=config,
            buffer_width=3,
        )
        sim.excite_carrier(0)
        records = sim.run(NSTEPS)
    return {
        "time": np.array([r.time for r in records]),
        "temperature": np.array([r.temperature for r in records]),
        "band_energy": np.array([r.band_energy for r in records]),
        "excited_population": np.array(
            [r.excited_population for r in records]
        ),
        "hops": np.array([r.hops for r in records], dtype=float),
        "scissor_shifts": np.array([r.scissor_shifts for r in records]),
        "positions": sim.md_state.positions.copy(),
        "velocities": sim.md_state.velocities.copy(),
    }


def golden_ensemble_strict(backend="serial", workers=1):
    """The pinned ensemble scenario on the strict FSSH kernels."""
    path = model_path(nsteps=30, nstates=4, dt=1.0, seed=11, coupling=0.12)
    config = EnsembleConfig(
        ntraj=NTRAJ,
        seed=515,
        batch_size=8,
        policy=HopPolicy(dec_correction="edc", edc_parameter=0.3),
        array_backend=STRICT,
    )
    result = run_ensemble(path, config, backend=backend, workers=workers)
    stats = result.stats
    return {
        "pop_mean": stats.pop_mean,
        "pop_stderr": stats.pop_stderr,
        "active_counts": stats.active_counts.astype(float),
        "coherence_mean": stats.coherence_mean,
        "coherence_stderr": stats.coherence_stderr,
        "hops": result.hops.astype(float),
        "ke_factor": result.ke_factor,
        "final_active": result.final_active.astype(float),
    }


def _assert_matches(golden_path, current, atol):
    assert golden_path.exists(), f"golden file missing: {golden_path}"
    golden = np.load(golden_path)
    assert set(golden.files) == set(current)
    for key in golden.files:
        want, got = golden[key], current[key]
        assert want.shape == got.shape, key
        diff = np.max(np.abs(want - got)) if want.size else 0.0
        assert diff <= atol, f"{key}: max|diff| = {diff:.3e} > {atol}"


class TestGoldenStrictTrajectory:
    def test_strict_trajectory_matches_numpy_golden(self):
        """The full coupled loop on strict stays within the golden gate."""
        _assert_matches(GOLDEN_PATH, golden_run_strict(), GOLDEN_ATOL)

    def test_strict_run_is_deterministic(self):
        a, b = golden_run_strict(), golden_run_strict()
        for key in a:
            assert np.array_equal(a[key], b[key]), key


class TestGoldenStrictEnsemble:
    def test_strict_ensemble_matches_numpy_golden(self):
        _assert_matches(
            ENSEMBLE_GOLDEN_PATH, golden_ensemble_strict(), GOLDEN_ATOL
        )

    def test_strict_survives_process_spawn(self):
        """The substrate name rides the pickled batch items: a process-
        pool strict ensemble is bit-identical to the serial strict one."""
        serial = golden_ensemble_strict()
        spawned = golden_ensemble_strict(backend="process", workers=2)
        for key in serial:
            assert np.array_equal(serial[key], spawned[key]), key
