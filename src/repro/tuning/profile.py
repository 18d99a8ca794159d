"""TuningProfile: the single consumption point for tuned parameters.

Kernels never read the cache, the registry or the search engine -- they
ask the *active profile* for their parameters.  A profile is a plain
``tunable_id -> params`` mapping that always falls back to the built-in
defaults of :mod:`repro.tuning.defaults`, so an untuned process behaves
bit-for-bit like the seed state.

The active profile is process-global (default: the defaults profile)
and swappable either permanently (:func:`set_active_profile`, what the
CLI does after ``--tuning-profile``) or scoped
(:func:`active_profile` context manager, what tests use).  Because this
module only imports :mod:`repro.tuning.defaults`, kernels can import it
without dragging in the search machinery -- and without import cycles.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, Mapping, Optional
from contextlib import contextmanager

from repro.tuning.defaults import DEFAULT_PARAMS, default_params

Params = Dict[str, object]


class TuningProfileError(ValueError):
    """A profile file that cannot be loaded.

    Raised by :meth:`TuningProfile.load` for a missing or unreadable
    file, a document that is not a JSON profile, and a profile naming a
    tunable or parameter this code does not have.
    """


class TuningProfile:
    """Resolved parameters for every tunable, defaults-backed."""

    def __init__(self, overrides: Optional[Mapping[str, Mapping[str, object]]] = None,
                 source: str = "defaults") -> None:
        self.source = source
        self._overrides: Dict[str, Params] = {}
        for tid, params in (overrides or {}).items():
            if tid not in DEFAULT_PARAMS:
                raise KeyError(
                    f"unknown tunable {tid!r} in profile; known: "
                    f"{', '.join(DEFAULT_PARAMS)}"
                )
            merged = dict(default_params(tid))
            unknown = set(params) - set(merged)
            if unknown:
                raise ValueError(
                    f"profile for {tid!r} has unknown parameter(s) "
                    f"{sorted(unknown)}; expected a subset of "
                    f"{sorted(merged)}"
                )
            merged.update(params)
            self._overrides[tid] = merged

    @classmethod
    def default(cls) -> "TuningProfile":
        """The untuned profile (pure defaults, matches the seed state)."""
        return cls(source="defaults")

    @classmethod
    def from_cache(cls, cache: "object", registry: "object",
                   source: Optional[str] = None) -> "TuningProfile":
        """Build a profile from every valid cache entry.

        Tunables without a (still-valid) cache entry resolve to their
        defaults; nothing is re-tuned here.  ``cache`` is a
        :class:`~repro.tuning.cache.TuningCache`, ``registry`` a
        :class:`~repro.tuning.registry.TunableRegistry` (typed loosely
        to keep this module import-light).
        """
        overrides: Dict[str, Params] = {}
        for tunable in registry:  # type: ignore[attr-defined]
            entry = cache.get(tunable)  # type: ignore[attr-defined]
            if entry is not None:
                overrides[tunable.tunable_id] = dict(entry.params)
        src = source or f"cache:{getattr(cache, 'path', '?')}"
        return cls(overrides, source=src)

    def params_for(self, tunable_id: str) -> Params:
        """Full parameter dict for one tunable (defaults merged in)."""
        if tunable_id in self._overrides:
            return dict(self._overrides[tunable_id])
        return default_params(tunable_id)

    def resolve(self, tunable_id: str, name: str) -> object:
        """One parameter value for one tunable."""
        params = self.params_for(tunable_id)
        if name not in params:
            raise KeyError(
                f"tunable {tunable_id!r} has no parameter {name!r}; "
                f"has: {', '.join(sorted(params))}"
            )
        return params[name]

    @property
    def tuned_ids(self) -> tuple:
        """Ids carrying non-default overrides (sorted)."""
        tuned = []
        for tid, params in self._overrides.items():
            if params != default_params(tid):
                tuned.append(tid)
        return tuple(sorted(tuned))

    def to_dict(self) -> dict:
        """JSON-serializable form (checkpoints embed this)."""
        return {
            "source": self.source,
            "overrides": {tid: dict(p) for tid, p in
                          sorted(self._overrides.items())},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TuningProfile":
        """Inverse of :meth:`to_dict`."""
        return cls(
            overrides=data.get("overrides") or {},  # type: ignore[arg-type]
            source=str(data.get("source", "restored")),
        )

    def save(self, path: Path) -> None:
        """Write the profile as JSON (for --tuning-profile files)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: Path) -> "TuningProfile":
        """Read a profile written by :meth:`save`.

        Every way the file can fail to be a usable profile raises
        :class:`TuningProfileError`, with the cause chained.
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError("not a JSON object")
            profile = cls.from_dict(data)
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise TuningProfileError(
                f"tuning profile {path} is unusable: {exc}"
            ) from exc
        if profile.source in ("defaults", "restored"):
            profile.source = f"file:{path}"
        return profile

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TuningProfile):
            return NotImplemented
        return self.to_dict()["overrides"] == other.to_dict()["overrides"]

    def __repr__(self) -> str:
        tuned = self.tuned_ids
        return (f"TuningProfile(source={self.source!r}, "
                f"tuned={list(tuned) or 'none'})")


_ACTIVE: TuningProfile = TuningProfile.default()


def get_active_profile() -> TuningProfile:
    """The process-global profile kernels resolve parameters from."""
    return _ACTIVE


def set_active_profile(profile: TuningProfile) -> TuningProfile:
    """Install a new global profile; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = profile
    return previous


@contextmanager
def active_profile(profile: TuningProfile) -> Iterator[TuningProfile]:
    """Scoped profile swap (tests, nested tuned sections)."""
    previous = set_active_profile(profile)
    try:
        yield profile
    finally:
        set_active_profile(previous)


def resolve(tunable_id: str, name: str) -> object:
    """Shorthand: one parameter from the active profile."""
    return get_active_profile().resolve(tunable_id, name)
