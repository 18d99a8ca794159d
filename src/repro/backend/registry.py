"""Array-API backend registry: named, picklable namespace handles.

The kernel layer never imports ``numpy`` conditionally or consults a
process-global "current backend"; instead every dispatching kernel entry
point takes an explicit ``backend=`` argument (a name or an
:class:`ArrayBackend`) and resolves it here.  The handle carries

* ``name`` -- the registry key (``"numpy"``, ``"array_api_strict"``);
* ``xp``   -- the array-API namespace module to compute with.

Each operator has one kernel body.  A dispatching kernel (kinetic,
potential phase, CAP, the FSSH amplitude kernels) is written against
``xp`` and runs unchanged on every substrate; on NumPy, ``xp`` *is* the
``numpy`` module, so that body is the NumPy program itself.  Operators
with no bitwise, equally fast array-API spelling (the nonlocal
correction, the Hartree solve) are host NumPy and take no backend.

Handles pickle **by name** (``__reduce__`` returns ``get_backend(name)``)
so they survive the process-spawn executor boundary: a worker unpickles
the name and re-resolves the namespace module in its own interpreter
rather than trying to pickle a module object.

For ``"array_api_strict"`` the real `array-api-strict` package is used
when importable; otherwise :mod:`repro.backend.strict_shim` -- a
pure-stdlib(+NumPy) strict namespace with the same interop policing --
stands in.  ``"auto"`` resolves to ``"numpy"`` today; when CuPy/JAX/
PyTorch backends are registered it will prefer an accelerator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple, Union

import numpy as np

#: Names accepted by :func:`get_backend` / the ``--array-backend`` CLI flag.
BACKEND_NAMES: Tuple[str, ...] = ("numpy", "array_api_strict", "auto")

#: The default substrate (and what ``"auto"`` resolves to on CPU-only hosts).
DEFAULT_BACKEND = "numpy"


@dataclass(frozen=True)
class ArrayBackend:
    """A named array-API namespace handle (picklable by name)."""

    name: str
    xp: Any = field(repr=False, compare=False)

    def __reduce__(self):
        # Pickle by name: namespace modules cannot cross a spawn boundary,
        # the registry key can.  Workers re-resolve in their interpreter.
        return (get_backend, (self.name,))

    # ---- boundary converters ------------------------------------- #
    def asarray(self, obj: Any, dtype: Any = None) -> Any:
        """Import host data into this backend's namespace (the boundary).

        On NumPy an ndarray of the right dtype comes back as itself, so
        an in-place kernel updates the caller's array directly.
        """
        if dtype is None:
            return self.xp.asarray(obj)
        return self.xp.asarray(obj, dtype=dtype)

    def to_numpy(self, arr: Any) -> np.ndarray:
        """Export an array of this namespace back to host NumPy."""
        return to_numpy(arr)


def _strict_namespace() -> Any:
    try:  # the real package, when the environment provides it
        import array_api_strict  # type: ignore[import-not-found]

        return array_api_strict
    except ImportError:
        from repro.backend import strict_shim

        return strict_shim


_HANDLES: dict = {}


def get_backend(backend: Union[str, ArrayBackend, None] = None) -> ArrayBackend:
    """Resolve a backend name (or pass a handle through) to a handle."""
    if isinstance(backend, ArrayBackend):
        return backend
    name = DEFAULT_BACKEND if backend is None else str(backend)
    if name == "auto":
        name = DEFAULT_BACKEND
    handle = _HANDLES.get(name)
    if handle is not None:
        return handle
    if name == "numpy":
        handle = ArrayBackend(name="numpy", xp=np)
    elif name == "array_api_strict":
        handle = ArrayBackend(name="array_api_strict", xp=_strict_namespace())
    else:
        raise ValueError(
            f"unknown array backend {name!r}; expected one of "
            f"{', '.join(BACKEND_NAMES)}"
        )
    _HANDLES[name] = handle
    return handle


def get_namespace(backend: Union[str, ArrayBackend, None] = None) -> Any:
    """The array-API namespace module of a backend (``xp``)."""
    return get_backend(backend).xp


def resolve_backend(
    explicit: Union[str, ArrayBackend, None], tunable: Optional[str] = None
) -> ArrayBackend:
    """Precedence: explicit argument > tuning-profile param > default."""
    if explicit is not None:
        return get_backend(explicit)
    if tunable is not None:
        from repro.tuning.profile import get_active_profile

        # .get(): profiles persisted before the backend dimension existed
        # (old checkpoints) carry no "backend" key.
        name = get_active_profile().params_for(tunable).get(
            "backend", DEFAULT_BACKEND
        )
        return get_backend(str(name))
    return get_backend(DEFAULT_BACKEND)


def available_backends() -> Tuple[str, ...]:
    """Concrete backends usable in this interpreter (excludes ``auto``)."""
    return ("numpy", "array_api_strict")


def to_numpy(arr: Any) -> np.ndarray:
    """Export any backend's array to host NumPy (the exit boundary)."""
    if isinstance(arr, np.ndarray):
        return arr
    from repro.backend.strict_shim import Array as _ShimArray
    from repro.backend.strict_shim import _strict_export

    if isinstance(arr, _ShimArray):
        return _strict_export(arr)
    # real array_api_strict (or any other namespace): standard DLPack /
    # buffer interop via np.asarray on the unwrapped array
    unwrap = getattr(arr, "_array", None)
    if unwrap is not None:
        return np.asarray(unwrap)
    return np.asarray(arr)
