"""Content-addressed artifact store: memoized results that self-invalidate.

An :class:`ArtifactStore` maps an :class:`ArtifactKey` -- the
``(kind, config hash, code fingerprint, machine fingerprint)`` quadruple
from :mod:`repro.artifacts.fingerprint` -- to an on-disk ``.npz``
artifact holding named NumPy arrays plus a JSON metadata record.  The
address *is* the key digest, so a lookup under changed code, a different
machine, or a different configuration simply misses: invalidation is
free, there is nothing to expire.

Durability follows the repo's persistence rules:

* every artifact is one verified archive of
  :mod:`repro.resilience.atomicio`, published atomically and honouring
  the ``artifact.enospc`` / ``artifact.torn_write`` fault sites -- a
  crash or full disk can never publish a half-written artifact;
* an artifact that nevertheless fails verification (torn by an unclean
  writer, bit rot) is treated as a *miss*, counted on
  ``stats()["corrupt"]``, and healed by the next ``put``;
* the store is bounded: with ``max_bytes`` set, least-recently-*used*
  artifacts (reads touch mtime) are evicted after each write until the
  store fits the budget -- the newest artifact is never evicted.

Concurrent writers of the same key are safe by construction: each writes
its own temp file and the last ``os.replace`` wins whole, so readers see
one of the complete artifacts, never an interleaving.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.resilience.atomicio import (
    CheckpointCorruptError,
    read_archive,
    write_archive,
)

#: Archive schema of a stored artifact.
ARTIFACT_SCHEMA = "artifact.v1"


@dataclass(frozen=True)
class ArtifactKey:
    """Full content address of one artifact.

    ``kind`` namespaces unrelated artifact families (``serve.ensemble``,
    ``serve.spectrum``, ...) into separate subdirectories; the other
    three fields are the fingerprint triple.  Artifacts with equal keys
    are interchangeable by definition.
    """

    kind: str
    config: str
    code: str
    machine: str

    def __post_init__(self) -> None:
        if not self.kind or "/" in self.kind or "\\" in self.kind:
            raise ValueError(f"invalid artifact kind: {self.kind!r}")

    @property
    def digest(self) -> str:
        """The content address (filename stem) of this key."""
        payload = "\x00".join(
            (self.kind, self.config, self.code, self.machine)
        ).encode()
        return sha256(payload).hexdigest()[:32]


class ArtifactStore:
    """Bounded on-disk store of fingerprint-keyed npz artifacts."""

    def __init__(
        self,
        root: Union[str, Path],
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative (or None)")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.evictions = 0

    # ------------------------------------------------------------------ #
    def path_for(self, key: ArtifactKey) -> Path:
        """Where ``key``'s artifact lives (whether or not it exists)."""
        return self.root / key.kind / f"{key.digest}.npz"

    def put(
        self,
        key: ArtifactKey,
        arrays: Mapping[str, np.ndarray],
        meta: Optional[Mapping[str, Any]] = None,
    ) -> Path:
        """Atomically publish an artifact; returns its path.

        Raises ``OSError`` (and leaves any previous artifact intact) when
        the disk is full or the ``artifact.enospc`` fault site is armed.
        """
        path = write_archive(self.path_for(key), arrays,
                             meta if meta is not None else {},
                             ARTIFACT_SCHEMA, fault_prefix="artifact")
        if self.max_bytes is not None:
            self._evict_to_budget(keep=path)
        return path

    def get(
        self, key: ArtifactKey
    ) -> Optional[Tuple[Dict[str, np.ndarray], Dict[str, Any]]]:
        """The stored ``(arrays, meta)`` for ``key``, or None on a miss.

        An artifact that fails verification is a miss (counted on
        ``corrupt``), never a crash; a successful read touches the
        file's mtime so the LRU eviction order tracks use, not just
        creation.
        """
        path = self.path_for(key)
        if not path.exists():
            self.misses += 1
            return None
        try:
            arrays, meta = read_archive(path, ARTIFACT_SCHEMA)
        except (CheckpointCorruptError, OSError):
            self.corrupt += 1
            self.misses += 1
            return None
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - mtime touch is best-effort
            pass
        self.hits += 1
        return arrays, meta

    def contains(self, key: ArtifactKey) -> bool:
        """Whether an artifact file exists for ``key`` (no validity read)."""
        return self.path_for(key).exists()

    # ------------------------------------------------------------------ #
    def _artifact_files(self) -> List[Path]:
        return [p for p in self.root.glob("*/*.npz") if p.is_file()]

    def size_bytes(self) -> int:
        """Total bytes currently held by the store."""
        return sum(p.stat().st_size for p in self._artifact_files())

    def __len__(self) -> int:
        return len(self._artifact_files())

    def _evict_to_budget(self, keep: Optional[Path] = None) -> List[Path]:
        """Drop least-recently-used artifacts until the budget fits."""
        assert self.max_bytes is not None
        files = self._artifact_files()
        sized = [(p, p.stat()) for p in files]
        total = sum(st.st_size for _, st in sized)
        # Oldest mtime first; the just-written artifact is never a victim.
        sized.sort(key=lambda item: (item[1].st_mtime, item[0].name))
        removed: List[Path] = []
        for path, st in sized:
            if total <= self.max_bytes:
                break
            if keep is not None and path == keep:
                continue
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing writer re-created it
                continue
            total -= st.st_size
            removed.append(path)
            self.evictions += 1
        return removed

    def clear(self) -> int:
        """Remove every artifact; returns how many were dropped."""
        files = self._artifact_files()
        for path in files:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - already gone
                continue
        return len(files)

    def stats(self) -> Dict[str, int]:
        """Hit/miss/corruption/eviction counters plus current footprint."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "evictions": self.evictions,
            "entries": len(self),
            "bytes": self.size_bytes(),
        }
