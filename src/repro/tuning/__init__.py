"""repro.tuning -- correctness-gated autotuning with a persisted cache.

The subsystem in one sentence: a :class:`~repro.tuning.registry.Tunable`
declares a parameter space over a real hot path, a seeded search times
every gated candidate on a fixed probe, the winner is persisted in a
machine/code-fingerprinted cache, and kernels consume the result through
the single :class:`~repro.tuning.profile.TuningProfile` choke point --
with a 1e-12 correctness gate guaranteeing tuned physics equals untuned
physics.

Import discipline: kernels import only :mod:`repro.tuning.profile`
(which reaches no further than :mod:`repro.tuning.defaults`); the heavy
machinery here imports the kernels lazily.  This module re-exports the
public surface.
"""

from repro.tuning.cache import (
    CacheEntry,
    TuningCache,
    code_fingerprint,
    machine_fingerprint,
)
from repro.tuning.defaults import DEFAULT_PARAMS, TUNABLE_IDS, default_params
from repro.tuning.gate import GATE_TOL, GateVerdict, check, correctness_error
from repro.tuning.measure import TrialMeasurement, aggregate, measure_callable
from repro.tuning.profile import (
    TuningProfile,
    TuningProfileError,
    active_profile,
    get_active_profile,
    resolve,
    set_active_profile,
)
from repro.tuning.registry import Tunable, TunableRegistry, default_registry
from repro.tuning.report import format_report, write_report_json
from repro.tuning.search import TrialRecord, TuningOutcome, tune
from repro.tuning.session import SessionRecord, SessionResult, TuningSession
from repro.tuning.spaces import Choice, IntRange, ParamSpace

__all__ = [
    "CacheEntry",
    "Choice",
    "DEFAULT_PARAMS",
    "GATE_TOL",
    "GateVerdict",
    "IntRange",
    "ParamSpace",
    "SessionRecord",
    "SessionResult",
    "TrialMeasurement",
    "TrialRecord",
    "Tunable",
    "TunableRegistry",
    "TuningCache",
    "TuningOutcome",
    "TuningProfile",
    "TuningProfileError",
    "TuningSession",
    "TUNABLE_IDS",
    "active_profile",
    "aggregate",
    "check",
    "code_fingerprint",
    "correctness_error",
    "default_params",
    "default_registry",
    "format_report",
    "get_active_profile",
    "machine_fingerprint",
    "measure_callable",
    "resolve",
    "set_active_profile",
    "tune",
    "write_report_json",
]
