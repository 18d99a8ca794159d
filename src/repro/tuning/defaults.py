"""Canonical default parameters of every tuning-managed hot path.

This module is deliberately import-light (no numpy, no kernel imports):
it is the one table both the :class:`~repro.tuning.profile.TuningProfile`
fallback chain and the :mod:`~repro.tuning.builtin` tunable definitions
read, so the untuned behaviour of the code base is defined in exactly
one place.  The values reproduce the hard-coded choices the autotuner
replaces (``kin_variant="collapsed"``, ``block_size=32``, serial
executor, 2+2 red-black multigrid sweeps).
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple, Union

ParamValue = Union[str, int]
Params = Dict[str, ParamValue]

#: Tunable ids, in registry/report order.
TUNABLE_IDS: Tuple[str, ...] = (
    "lfd.kin_prop",
    "lfd.nonlocal",
    "parallel.executor",
    "multigrid.poisson",
    "ensemble.swarm",
)

#: The untuned (seed-state) parameter choice of every tunable.
#: ``backend`` on ``lfd.kin_prop`` is the array-API substrate of the LFD
#: kernels (:mod:`repro.backend`).  (The ``parallel.executor``
#: ``backend`` is the unrelated executor kind -- serial/thread/process.)
DEFAULT_PARAMS: Mapping[str, Params] = {
    "lfd.kin_prop": {"variant": "collapsed", "block_size": 32,
                     "backend": "numpy"},
    "lfd.nonlocal": {"variant": "blas", "orb_block": 16},
    "parallel.executor": {"backend": "serial", "workers": 1, "chunk_size": 1},
    "multigrid.poisson": {"smoother": "rbgs", "pre_sweeps": 2,
                          "post_sweeps": 2},
    "ensemble.swarm": {"batch_size": 256},
}


def default_params(tunable_id: str) -> Params:
    """A fresh copy of one tunable's default parameters."""
    try:
        return dict(DEFAULT_PARAMS[tunable_id])
    except KeyError:
        raise KeyError(
            f"unknown tunable {tunable_id!r}; known: {', '.join(TUNABLE_IDS)}"
        ) from None
