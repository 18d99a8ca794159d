"""Array-API namespace layer: one kernel source, many substrates.

Dispatching kernels obtain a namespace with ``xp = get_namespace(backend)``
and are written against the array-API standard subset; ``backend`` is
threaded explicitly through ``PropagatorConfig`` and the ensemble
config (no process globals).  See
:mod:`repro.backend.registry` for the dispatch rules and
:mod:`repro.backend.strict_shim` for the strict fallback namespace.
"""

from repro.backend.registry import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    ArrayBackend,
    available_backends,
    get_backend,
    get_namespace,
    resolve_backend,
    to_numpy,
)

__all__ = [
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "ArrayBackend",
    "available_backends",
    "get_backend",
    "get_namespace",
    "resolve_backend",
    "to_numpy",
]
