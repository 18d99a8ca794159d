"""Warm-state pool: LRU reuse of converged ground-state stages, one pool
per serving lane.

The pool memoizes converged stages in memory under their *full*
ground-state parameter key (:func:`repro.serve.jobs.warm_key`), so a
warm hit replays the exact arrays a cold solve would have produced --
reuse is verbatim, which is what keeps daemon results bit-identical to
one-shot runs.

The solve is not the only expensive part of a job.  On a 2-vCPU
container with one BLAS thread, the default spectrum eigensolve takes
~0.05 s and 150 QD steps of its kicked propagation ~0.09 s; a default
scf solve takes ~0.07 s.  A pooled spectrum ground state therefore also
carries its propagation as far as it has run
(:class:`repro.serve.workloads.SpectrumGroundState`), and reading a
recorded prefix takes ~0.1 ms.

Bounded two ways: an entry-count cap and an optional byte budget
(entries report their own footprint via a caller-supplied ``nbytes``).
Eviction is least-recently-used.  ``invalidate()`` supports the
protocol's explicit cache-drop operation.

Each lane of the daemon (:mod:`repro.serve.daemon`) owns one pool, so
``pool_entries`` and the byte budget are per lane.  The daemon sends
every group that reads or builds a key to the lane that first built it,
so a key lives in one pool and only its lane touches it; the daemon
reads pool counts from what each lane reports after a group.  The
methods are thread-safe all the same, for a pool shared by threads
outside the daemon.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple


class WarmStatePool:
    """A thread-safe LRU map of warm ground states."""

    def __init__(self, max_entries: int = 8,
                 max_bytes: Optional[int] = None) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be positive (or None)")
        self.max_entries = int(max_entries)
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Tuple[Any, int]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Optional[Any]:
        """The pooled state under ``key``, freshened, or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key: str, value: Any,
            nbytes: Optional[Callable[[Any], int]] = None) -> None:
        """Insert (or freshen) ``key``; evict LRU entries past the caps."""
        size = int(nbytes(value)) if nbytes is not None else 0
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = (value, size)
            self._evict_locked(keep=key)

    def get_or_create(self, key: str, factory: Callable[[], Any],
                      nbytes: Optional[Callable[[Any], int]] = None) -> Any:
        """Warm hit or cold build-and-pool.

        The factory runs *outside* the lock (it may take seconds); two
        racing builders both compute, last writer wins -- both values
        are identical by construction (the key is the full stage
        config), so the race is benign.
        """
        value = self.get(key)
        if value is not None:
            return value
        value = factory()
        self.put(key, value, nbytes=nbytes)
        return value

    def invalidate(self, key: Optional[str] = None) -> int:
        """Drop one entry (or all with ``key=None``); returns the count."""
        with self._lock:
            if key is not None:
                return 1 if self._entries.pop(key, None) is not None else 0
            n = len(self._entries)
            self._entries.clear()
            return n

    # ------------------------------------------------------------------ #
    def _evict_locked(self, keep: str) -> None:
        while len(self._entries) > self.max_entries:
            self._pop_lru_locked(keep)
        if self.max_bytes is not None:
            while (len(self._entries) > 1
                   and self._size_locked() > self.max_bytes):
                self._pop_lru_locked(keep)

    def _pop_lru_locked(self, keep: str) -> None:
        for key in self._entries:
            if key != keep:
                del self._entries[key]
                self.evictions += 1
                return
        raise RuntimeError("nothing evictable")  # pragma: no cover

    def _size_locked(self) -> int:
        return sum(size for _, size in self._entries.values())

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def size_bytes(self) -> int:
        """Total reported footprint of the pooled entries."""
        with self._lock:
            return self._size_locked()

    def keys(self) -> List[str]:
        """Pool keys, LRU first (for diagnostics)."""
        with self._lock:
            return list(self._entries)

    def stats(self) -> Dict[str, int]:
        """Counters snapshot (for the daemon's ``stats`` op)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._size_locked(),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
