"""Content-fingerprint incremental cache for the lint engine.

The cache keys every stored result on three fingerprints:

* a **tool fingerprint** -- a hash over the statlint package's own
  source files, so editing any rule or the engine invalidates
  everything;
* a **config fingerprint** -- a hash of every behavior-affecting
  :class:`~repro.statlint.config.LintConfig` field (selection, severity
  overrides, path scopes), so changing what the lint *means* also
  invalidates;
* per-file **content fingerprints** (sha256 of the source text), plus a
  **project fingerprint** derived from all of them, because the
  interprocedural rules (DCL012-DCL015) can change their verdict about
  file A when only file B changed.

On a full hit -- every file fingerprint unchanged -- findings are
reconstructed from the stored dicts without parsing a single module,
which is what makes a warm full-repo lint land well under half the cold
wall time.  On a partial hit, unchanged files reuse their per-module
findings and only the project pass re-runs.  The file is a verified
document of :mod:`repro.resilience.atomicio`, so an interrupted lint
never tears it and a torn, edited or stale file is a cold start.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from repro.resilience.atomicio import (
    CheckpointCorruptError,
    read_document,
    write_document,
)
from repro.statlint.config import LintConfig

#: Schema of the cache document (bump when the stored layout changes).
CACHE_SCHEMA = "repro-statlint-cache/1"

_tool_fp_memo: Optional[str] = None


def tool_fingerprint() -> str:
    """Hash of the statlint package's own sources (memoized per process)."""
    global _tool_fp_memo
    if _tool_fp_memo is None:
        digest = hashlib.sha256()
        pkg_dir = Path(__file__).resolve().parent
        for src in sorted(pkg_dir.glob("*.py")):
            digest.update(src.name.encode())
            try:
                digest.update(src.read_bytes())
            except OSError:  # pragma: no cover
                digest.update(b"?")
        _tool_fp_memo = digest.hexdigest()[:16]
    return _tool_fp_memo


def config_fingerprint(config: LintConfig) -> str:
    """Hash of every behavior-affecting config field."""
    payload = json.dumps(config.fingerprint_payload(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def source_fingerprint(source: str) -> str:
    """Content hash of one module's source text."""
    return hashlib.sha256(source.encode("utf-8", "replace")).hexdigest()[:16]


def project_fingerprint(file_fps: Mapping[str, str]) -> str:
    """Combined hash over every (relpath, content-fingerprint) pair."""
    digest = hashlib.sha256()
    for relpath in sorted(file_fps):
        digest.update(f"{relpath}:{file_fps[relpath]}\n".encode())
    return digest.hexdigest()[:16]


class LintCache:
    """One on-disk cache document, loaded leniently and saved atomically."""

    def __init__(self, path: Path, config: LintConfig) -> None:
        self.path = path
        self.tool_fp = tool_fingerprint()
        self.config_fp = config_fingerprint(config)
        #: relpath -> {"fp": str, "findings": [dict]} | {"fp": str, "error": str}
        self.files: Dict[str, Dict[str, object]] = {}
        #: {"fp": str, "findings": [dict]}
        self.project: Dict[str, object] = {}
        self._load()

    def _load(self) -> None:
        try:
            raw = read_document(self.path, CACHE_SCHEMA)
        except CheckpointCorruptError:
            return
        if raw.get("tool") != self.tool_fp or raw.get("config") != self.config_fp:
            return
        files = raw.get("files")
        project = raw.get("project")
        if isinstance(files, dict):
            self.files = {
                str(k): v for k, v in files.items() if isinstance(v, dict)
            }
        if isinstance(project, dict):
            self.project = project

    # ------------------------------------------------------------- #
    def file_entry(self, relpath: str, fp: str) -> Optional[Dict[str, object]]:
        """The stored entry for ``relpath`` iff its content still matches."""
        entry = self.files.get(relpath)
        if entry is not None and entry.get("fp") == fp:
            return entry
        return None

    def full_hit(self, file_fps: Mapping[str, str]) -> bool:
        """Whether *every* file (and the file set itself) is unchanged."""
        if set(self.files) != set(file_fps):
            return False
        if any(
            self.files[rel].get("fp") != fp for rel, fp in file_fps.items()
        ):
            return False
        return self.project.get("fp") == project_fingerprint(file_fps)

    def store(
        self,
        file_fps: Mapping[str, str],
        module_findings: Mapping[str, List[Dict[str, object]]],
        errors: Mapping[str, str],
        project_findings: List[Dict[str, object]],
    ) -> None:
        """Replace the cache contents with this run's results."""
        self.files = {}
        for relpath, fp in file_fps.items():
            entry: Dict[str, object] = {"fp": fp}
            if relpath in errors:
                entry["error"] = errors[relpath]
            else:
                entry["findings"] = module_findings.get(relpath, [])
            self.files[relpath] = entry
        self.project = {
            "fp": project_fingerprint(file_fps),
            "findings": project_findings,
        }

    def save(self) -> None:
        """Atomically persist the cache (best effort; failures ignored)."""
        payload = {
            "tool": self.tool_fp,
            "config": self.config_fp,
            "files": self.files,
            "project": self.project,
        }
        try:
            write_document(self.path, payload, CACHE_SCHEMA)
        except OSError:  # pragma: no cover - cache is best effort
            pass
