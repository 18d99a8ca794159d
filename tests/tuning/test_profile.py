"""TuningProfile resolution and its pickup by the wired kernels."""

import json

import pytest

from repro.tuning.defaults import DEFAULT_PARAMS, default_params
from repro.tuning.profile import (
    TuningProfile,
    TuningProfileError,
    active_profile,
    get_active_profile,
    resolve,
    set_active_profile,
)


class TestResolution:
    def test_default_profile_matches_defaults(self):
        p = TuningProfile.default()
        for tid in DEFAULT_PARAMS:
            assert p.params_for(tid) == default_params(tid)
        assert p.tuned_ids == ()

    def test_overrides_merge_over_defaults(self):
        p = TuningProfile({"lfd.kin_prop": {"variant": "blocked"}})
        params = p.params_for("lfd.kin_prop")
        assert params["variant"] == "blocked"
        assert params["block_size"] == default_params("lfd.kin_prop")["block_size"]
        assert p.tuned_ids == ("lfd.kin_prop",)

    def test_unknown_tunable_rejected(self):
        with pytest.raises(KeyError):
            TuningProfile({"no.such": {"x": 1}})
        with pytest.raises(KeyError):
            TuningProfile.default().params_for("no.such")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            TuningProfile({"lfd.kin_prop": {"warp": 9}})

    def test_resolve_single_value(self):
        with active_profile(TuningProfile(
                {"multigrid.poisson": {"pre_sweeps": 3}})):
            assert resolve("multigrid.poisson", "pre_sweeps") == 3
        with pytest.raises(KeyError, match="no parameter"):
            resolve("multigrid.poisson", "nope")

    def test_to_from_dict_round_trip(self):
        p = TuningProfile({"lfd.nonlocal": {"variant": "naive"}},
                          source="test")
        q = TuningProfile.from_dict(p.to_dict())
        assert q == p
        assert q.params_for("lfd.nonlocal")["variant"] == "naive"

    def test_save_load_round_trip(self, tmp_path):
        p = TuningProfile({"parallel.executor": {"backend": "thread",
                                                 "workers": 2}})
        path = tmp_path / "profile.json"
        p.save(path)
        q = TuningProfile.load(path)
        assert q == p
        assert str(path) in q.source

    @pytest.mark.parametrize("damage", ["flip", "truncate", "edit"])
    def test_damaged_file_is_refused(self, tmp_path, damage):
        path = tmp_path / "profile.json"
        TuningProfile({"lfd.kin_prop": {"variant": "blocked"}}).save(path)
        raw = path.read_bytes()
        if damage == "flip":
            raw = raw.replace(b"blocked", b"blockee")
        elif damage == "truncate":
            raw = raw[: len(raw) // 2]
        else:  # another legal variant, still parseable
            doc = json.loads(raw)
            doc["overrides"]["lfd.kin_prop"]["variant"] = "baseline"
            raw = json.dumps(doc).encode()
        path.write_bytes(raw)
        with pytest.raises(TuningProfileError, match="unusable"):
            TuningProfile.load(path)


class TestActiveProfile:
    def test_context_manager_restores(self):
        before = get_active_profile()
        override = TuningProfile({"lfd.kin_prop": {"variant": "baseline"}})
        with active_profile(override):
            assert get_active_profile() is override
        assert get_active_profile() is before

    def test_set_returns_previous(self):
        before = get_active_profile()
        new = TuningProfile.default()
        try:
            assert set_active_profile(new) is before
        finally:
            set_active_profile(before)


class TestKernelPickup:
    """The wired constructors resolve None parameters from the profile."""

    def test_propagator_config_defaults_match_seed_state(self):
        from repro.lfd.propagator import PropagatorConfig

        cfg = PropagatorConfig()
        assert cfg.kin_variant == "collapsed"
        assert cfg.block_size == 32

    def test_propagator_config_reads_profile(self):
        from repro.lfd.propagator import PropagatorConfig

        with active_profile(TuningProfile(
                {"lfd.kin_prop": {"variant": "blocked", "block_size": 8}})):
            cfg = PropagatorConfig()
        assert cfg.kin_variant == "blocked"
        assert cfg.block_size == 8

    def test_propagator_config_explicit_beats_profile(self):
        from repro.lfd.propagator import PropagatorConfig

        with active_profile(TuningProfile(
                {"lfd.kin_prop": {"variant": "blocked"}})):
            cfg = PropagatorConfig(kin_variant="interchange")
        assert cfg.kin_variant == "interchange"

    def test_poisson_reads_profile_but_zero_is_honoured(self):
        from repro.grids.grid import Grid3D
        from repro.multigrid.poisson import PoissonMultigrid

        grid = Grid3D.cubic(8, 0.5)
        with active_profile(TuningProfile(
                {"multigrid.poisson": {"smoother": "jacobi",
                                       "pre_sweeps": 3}})):
            mg = PoissonMultigrid(grid)
            assert mg.smoother == "jacobi"
            assert mg.pre_sweeps == 3
            assert mg.post_sweeps == 2  # default, not overridden
            # Explicit 0 must never be mistaken for "resolve from profile".
            explicit = PoissonMultigrid(grid, pre_sweeps=0)
            assert explicit.pre_sweeps == 0

    def test_make_executor_reads_profile(self):
        from repro.parallel.executor import make_executor

        with active_profile(TuningProfile(
                {"parallel.executor": {"backend": "thread", "workers": 2}})):
            ex = make_executor()
            try:
                assert ex.name == "thread"
                assert ex.workers == 2
            finally:
                ex.shutdown()

    def test_make_executor_explicit_backend_wins(self):
        with active_profile(TuningProfile(
                {"parallel.executor": {"backend": "thread", "workers": 2}})):
            from repro.parallel.executor import make_executor

            ex = make_executor("serial")
            assert ex.name == "serial"

    def test_nonlocal_corrector_reads_profile(self):
        import numpy as np

        from repro.grids.grid import Grid3D
        from repro.lfd.nonlocal_corr import NonlocalCorrector
        from repro.lfd.wavefunction import WaveFunctionSet

        grid = Grid3D.cubic(6, 0.5)
        ref = WaveFunctionSet.random(grid, 4, np.random.default_rng(0))
        with active_profile(TuningProfile(
                {"lfd.nonlocal": {"variant": "blas_blocked",
                                  "orb_block": 4}})):
            corr = NonlocalCorrector(ref, 0.05)
        assert corr.variant == "blas_blocked"
        assert corr.orb_block == 4
        default_corr = NonlocalCorrector(ref, 0.05)
        assert default_corr.variant == "blas"
