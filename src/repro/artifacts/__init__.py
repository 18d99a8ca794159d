"""Content-addressed artifacts: shared fingerprints and the store.

The generalization of the tuning cache's keying discipline into a
subsystem every layer can use: :mod:`repro.artifacts.fingerprint` is the
single home of the config/code/machine digests, and
:mod:`repro.artifacts.store` maps fingerprint keys to bounded on-disk
verified archives (the serve layer's result memoizer).  How any file is
published and verified -- archives and JSON documents alike -- is
decided in :mod:`repro.resilience.atomicio`.
"""

from repro.artifacts.fingerprint import (
    canonical_json,
    code_fingerprint,
    config_hash,
    machine_fingerprint,
)
from repro.artifacts.store import ArtifactKey, ArtifactStore

__all__ = [
    "ArtifactKey",
    "ArtifactStore",
    "canonical_json",
    "code_fingerprint",
    "config_hash",
    "machine_fingerprint",
]
