"""The backend registry, handle pickling, and shim strictness teeth.

Three contracts of :mod:`repro.backend`:

* the registry resolves names to cached, picklable :class:`ArrayBackend`
  handles with the documented precedence (explicit > profile > default);
* handles survive the process-spawn executor boundary (they reduce to
  their name and re-resolve on the far side);
* the strict namespace actually *is* strict -- any silent NumPy
  round-trip of one of its arrays raises, which is what gives the
  cross-namespace differential tests their power.
"""

import pickle

import numpy as np
import pytest

from repro.backend import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    ArrayBackend,
    available_backends,
    get_backend,
    get_namespace,
    resolve_backend,
    to_numpy,
)


class TestRegistry:
    def test_numpy_backend_is_numpy_itself(self):
        """The numpy handle's namespace IS the numpy module: a kernel
        written against ``xp`` runs the plain NumPy program on it."""
        b = get_backend("numpy")
        assert b.xp is np

    def test_strict_backend_is_not_native(self):
        b = get_backend("array_api_strict")
        assert b.xp is not np

    def test_auto_resolves_to_numpy(self):
        assert get_backend("auto").name == "numpy"

    def test_none_resolves_to_default(self):
        assert get_backend(None).name == DEFAULT_BACKEND

    def test_handles_are_cached(self):
        assert get_backend("numpy") is get_backend("numpy")
        assert get_backend("array_api_strict") is get_backend(
            "array_api_strict"
        )

    def test_handle_passthrough(self):
        b = get_backend("numpy")
        assert get_backend(b) is b

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown array backend"):
            get_backend("cupy")

    def test_available_backends_subset_of_names(self):
        avail = available_backends()
        assert set(avail) <= set(BACKEND_NAMES)
        assert "numpy" in avail and "array_api_strict" in avail

    def test_get_namespace(self, xp_backend):
        assert get_namespace(xp_backend.name) is xp_backend.xp

    def test_resolve_backend_precedence(self):
        # Explicit beats everything.
        assert resolve_backend("array_api_strict", "lfd.kin_prop").name \
            == "array_api_strict"
        # No explicit choice: the tunable's profile parameter (default
        # profile carries "numpy").
        assert resolve_backend(None, "lfd.kin_prop").name == "numpy"


class TestPickling:
    def test_handle_pickles_by_name(self, xp_backend):
        clone = pickle.loads(pickle.dumps(xp_backend))
        # __reduce__ routes through get_backend, so the cached handle
        # comes back -- identity, not just equality.
        assert clone is xp_backend

    def test_handle_pickles_inside_task_tuples(self):
        """The mesh/ensemble executor items embed handles or names."""
        item = ("task", 3, get_backend("array_api_strict"))
        name_item = ("task", 3, "array_api_strict")
        assert pickle.loads(pickle.dumps(item))[2].name == "array_api_strict"
        assert pickle.loads(pickle.dumps(name_item))[2] == "array_api_strict"


class TestBoundary:
    def test_numpy_asarray_is_identity(self):
        """On NumPy the boundary is free: in-place kernels update the
        caller's array, so nothing is copied back."""
        host = np.zeros((2, 3), dtype=np.complex128)
        assert get_backend("numpy").asarray(host) is host

    def test_asarray_to_numpy_round_trip(self, xp_backend):
        host = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        arr = xp_backend.asarray(host)
        back = to_numpy(arr)
        assert isinstance(back, np.ndarray)
        np.testing.assert_array_equal(back, host)

    def test_to_numpy_passes_ndarray_through(self):
        host = np.arange(5.0)
        assert to_numpy(host) is host


class TestStrictness:
    """The teeth that make the strict namespace a real second backend."""

    @pytest.fixture()
    def strict(self):
        return get_backend("array_api_strict")

    def test_no_silent_numpy_conversion(self, strict):
        arr = strict.asarray(np.arange(4.0))
        with pytest.raises(TypeError):
            np.asarray(arr)

    def test_numpy_ufuncs_rejected(self, strict):
        arr = strict.asarray(np.arange(4.0))
        with pytest.raises(TypeError):
            np.exp(arr)

    def test_raw_ndarray_operands_rejected(self, strict):
        arr = strict.asarray(np.arange(4.0))
        with pytest.raises(TypeError):
            arr + np.arange(4.0)

    def test_integer_array_indexing_rejected(self, strict):
        xp = strict.xp
        arr = strict.asarray(np.arange(12.0).reshape(3, 4))
        rows = xp.asarray(np.array([0, 2]))
        cols = xp.asarray(np.array([1, 3]))
        with pytest.raises((TypeError, IndexError)):
            arr[rows, cols]

    def test_sanctioned_boundary_still_works(self, strict):
        """asarray in, to_numpy out -- the only two legal crossings."""
        xp = strict.xp
        host = np.random.default_rng(0).standard_normal((4, 4))
        out = to_numpy(xp.exp(strict.asarray(host)))
        np.testing.assert_allclose(out, np.exp(host), atol=1e-15)


class TestConfigThreading:
    """Constructors accept names and handles and normalize to handles."""

    def test_propagator_config_resolves_backend(self, xp_backend):
        from repro.lfd import PropagatorConfig

        cfg = PropagatorConfig(dt=0.05, backend=xp_backend.name)
        assert isinstance(cfg.backend, ArrayBackend)
        assert cfg.backend is xp_backend

    def test_propagator_config_profile_fallback(self):
        from repro.lfd import PropagatorConfig
        from repro.tuning import TuningProfile
        from repro.tuning.profile import active_profile

        override = {"lfd.kin_prop": {"backend": "array_api_strict"}}
        with active_profile(TuningProfile(override, source="test")):
            cfg = PropagatorConfig(dt=0.05)
        assert cfg.backend.name == "array_api_strict"

    def test_mesh_config_normalizes_name(self):
        from repro.core import DCMESHConfig

        assert DCMESHConfig(array_backend="auto").array_backend == "numpy"
        assert DCMESHConfig().array_backend is None
        with pytest.raises(ValueError):
            DCMESHConfig(array_backend="torch")
