"""Persisted tuning cache, keyed by machine + code fingerprint.

A tuned winner is only valid on the machine and code that produced it,
so every cache entry stores (and every lookup re-checks) three keys:

* the **space hash** -- adding/removing an option re-tunes;
* the **machine fingerprint** -- platform, CPU count, NumPy version and
  BLAS vendor; moving the cache file to another host re-tunes;
* the **code fingerprint** -- a sha256 over the *source text* of every
  module the tunable declares in ``source_modules``; editing a kernel
  re-tunes.

The cache file is one verified document (schema ``repro-tuning/1``) of
:func:`repro.resilience.atomicio.write_document`: published with the
fsync'd same-directory atomic writer (honouring the ``cache.enospc``
and ``cache.torn_write`` fault sites), so a killed tuning run -- or a
full disk -- can never leave a half-written cache behind, and carrying
a sha256 of its own contents.  A cache file that fails verification on
load -- truncated or corrupt (torn by an unclean writer, bit rot),
edited (a winner changed to another legal value), foreign (another
schema), or written before documents carried a digest -- is treated as
*missing*: every lookup misses, the affected tunables re-tune, and the
next ``save`` atomically replaces the bad file with a good one.  The
failure is surfaced on ``load_error`` so callers can log it rather than
silently re-tuning.

The fingerprint helpers historically defined here now live in
:mod:`repro.artifacts.fingerprint` (they key every artifact family, not
just tuning); ``machine_fingerprint`` and ``code_fingerprint`` are
re-exported unchanged for backward compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from repro.artifacts.fingerprint import (  # noqa: F401  (re-exports)
    _blas_signature,
    code_fingerprint,
    machine_fingerprint,
)
from repro.resilience.atomicio import (
    CheckpointCorruptError,
    read_document,
    write_document,
)
from repro.tuning.registry import Tunable
from repro.tuning.spaces import Params

SCHEMA = "repro-tuning/1"

#: Default cache location (repo-local, gitignored).
DEFAULT_CACHE_PATH = Path(".repro-tuning") / "cache.json"


@dataclass(frozen=True)
class CacheEntry:
    """One persisted winner plus everything needed to trust it."""

    tunable_id: str
    params: Params
    space_hash: str
    machine: str
    code: str
    speedup: float
    strategy: str
    gate_error: float

    def to_dict(self) -> dict:
        """JSON-serializable cache-entry record."""
        return {
            "params": dict(self.params),
            "space_hash": self.space_hash,
            "machine": self.machine,
            "code": self.code,
            "speedup": self.speedup,
            "strategy": self.strategy,
            "gate_error": self.gate_error,
        }

    @classmethod
    def from_dict(cls, tunable_id: str, data: dict) -> "CacheEntry":
        return cls(
            tunable_id=tunable_id,
            params=dict(data["params"]),
            space_hash=str(data["space_hash"]),
            machine=str(data["machine"]),
            code=str(data["code"]),
            speedup=float(data.get("speedup", 1.0)),
            strategy=str(data.get("strategy", "unknown")),
            gate_error=float(data.get("gate_error", 0.0)),
        )


class TuningCache:
    """Atomic-write JSON store of tuned winners, self-invalidating.

    ``get`` returns None unless the stored entry's space hash, machine
    fingerprint and code fingerprint all match the current process --
    a stale entry is treated exactly like a missing one.
    """

    def __init__(self, path: Path = DEFAULT_CACHE_PATH) -> None:
        self.path = Path(path)
        self._entries: Dict[str, CacheEntry] = {}
        #: Why the on-disk cache was unusable (None = loaded cleanly or
        #: absent).  A file that fails verification degrades to an empty
        #: cache -- affected tunables re-tune and the next save heals it.
        self.load_error: Optional[str] = None
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        try:
            data = read_document(self.path, SCHEMA)
        except CheckpointCorruptError as exc:
            self.load_error = str(exc)
            return
        for tid, raw in data.get("entries", {}).items():
            try:
                self._entries[tid] = CacheEntry.from_dict(tid, raw)
            except (KeyError, TypeError, ValueError):
                continue

    def save(self) -> None:
        """Write the cache atomically (fsync'd same-dir temp + rename).

        Honours the ``cache.enospc`` / ``cache.torn_write`` fault sites;
        a failed write (disk full) raises ``OSError`` and leaves any
        previous cache file byte-for-byte intact.
        """
        write_document(self.path, {
            "entries": {tid: e.to_dict() for tid, e in
                        sorted(self._entries.items())},
        }, SCHEMA, fault_prefix="cache")

    def get(self, tunable: Tunable,
            machine: Optional[str] = None) -> Optional[CacheEntry]:
        """The stored winner for ``tunable``, or None if any key is stale."""
        entry = self._entries.get(tunable.tunable_id)
        if entry is None:
            return None
        if entry.space_hash != tunable.space.space_hash():
            return None
        if entry.machine != (machine or machine_fingerprint()):
            return None
        if entry.code != code_fingerprint(tunable):
            return None
        try:
            tunable.space.validate(entry.params)
        except ValueError:
            return None
        return entry

    def put(self, tunable: Tunable, params: Params, speedup: float,
            strategy: str, gate_error: float,
            machine: Optional[str] = None) -> CacheEntry:
        """Store a winner (validated against the space) and return it."""
        entry = CacheEntry(
            tunable_id=tunable.tunable_id,
            params=tunable.space.validate(params),
            space_hash=tunable.space.space_hash(),
            machine=machine or machine_fingerprint(),
            code=code_fingerprint(tunable),
            speedup=float(speedup),
            strategy=strategy,
            gate_error=float(gate_error),
        )
        self._entries[tunable.tunable_id] = entry
        return entry

    def drop(self, tunable_id: str) -> bool:
        """Remove one entry (force re-tune); True if it existed."""
        return self._entries.pop(tunable_id, None) is not None

    def entries(self) -> Dict[str, CacheEntry]:
        """All stored entries (copies irrelevant; treat as read-only)."""
        return dict(self._entries)

    def __len__(self) -> int:
        return len(self._entries)
