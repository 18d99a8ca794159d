"""Hardened checkpointing: atomic writes, integrity digests, rotation.

The plain :mod:`repro.core.checkpoint` format is a single ``.npz`` that
is written in place -- a crash mid-write leaves a truncated archive, and
a bit flip on disk is only discovered at restart, as a zip CRC-32 error
from the member it lands in, once the load is already under way.
Production resilience needs three properties:

* **atomicity** -- the archive is written to a hidden temporary file in
  the same directory and published with ``os.replace``, so a checkpoint
  either exists completely or not at all;
* **integrity** -- a SHA-256 digest of the archive is stored in an
  atomically written JSON sidecar (``<name>.json``) and verified before
  any state is loaded, so corruption is detected *before* it can poison
  a restart;
* **rotation** -- the last ``keep`` generations are retained
  (``ckpt-<step>.npz``), so a corrupt newest checkpoint degrades to the
  previous generation instead of ending the run.

The ``checkpoint.corrupt`` fault site fires *after* the archive is
published but records the digest of the good bytes, reproducing exactly
the failure mode the verification is designed to catch.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import pathlib
import re
from typing import TYPE_CHECKING, Dict, List, Protocol, Union, cast

if TYPE_CHECKING:  # layering: resilience never imports core at runtime
    from repro.core.mesh import DCMESHSimulation

from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.resilience.atomicio import atomic_write_text, fsync_directory
from repro.resilience.faults import fault_point

_CKPT_RE = re.compile(r"^ckpt-(\d{8})\.npz$")


class CheckpointableRun(Protocol):
    """Structural contract of anything this module can checkpoint.

    :class:`~repro.core.mesh.DCMESHSimulation` satisfies it implicitly
    (its state is archived by :mod:`repro.core.checkpoint`); other run
    objects -- e.g. the trajectory-ensemble engine's partial-ensemble
    state -- opt in by providing ``save_state(path)`` / ``load_state(path)``
    methods, which :func:`write_checkpoint` / :func:`load_verified`
    prefer over the mesh-specific archiver.
    """

    step_count: int
    time: float


def _save_state(sim: CheckpointableRun, path: pathlib.Path) -> None:
    """Archive ``sim``; duck-dispatches to ``sim.save_state`` when present."""
    saver = getattr(sim, "save_state", None)
    if callable(saver):
        saver(path)
    else:
        save_checkpoint(cast("DCMESHSimulation", sim), path)


def _load_state(sim: CheckpointableRun, path: Union[str, pathlib.Path]) -> None:
    """Restore ``sim``; duck-dispatches to ``sim.load_state`` when present."""
    loader = getattr(sim, "load_state", None)
    if callable(loader):
        loader(path)
    else:
        load_checkpoint(cast("DCMESHSimulation", sim), path)


class CheckpointCorruptError(RuntimeError):
    """A checkpoint failed integrity verification (or lost its sidecar)."""


def _sha256(path: pathlib.Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _atomic_write_text(path: pathlib.Path, text: str) -> None:
    """Sidecar writes ride the fsync'd atomic writer of ``atomicio``."""
    atomic_write_text(path, text)


def checkpoint_path(directory: Union[str, pathlib.Path], step: int) -> pathlib.Path:
    """Canonical archive path of the generation written at MD step ``step``."""
    return pathlib.Path(directory) / f"ckpt-{step:08d}.npz"


def sidecar_path(path: Union[str, pathlib.Path]) -> pathlib.Path:
    """The integrity-metadata sidecar of an archive path."""
    path = pathlib.Path(path)
    return path.with_name(path.name + ".json")


def list_checkpoints(directory: Union[str, pathlib.Path]) -> List[pathlib.Path]:
    """All checkpoint generations in ``directory``, oldest first."""
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return []
    found = [p for p in directory.iterdir() if _CKPT_RE.match(p.name)]
    return sorted(found, key=lambda p: int(_CKPT_RE.match(p.name).group(1)))


def _corrupt_file(path: pathlib.Path, offset: int, nbytes: int) -> None:
    """Deterministically flip ``nbytes`` bytes of ``path`` at ``offset``."""
    size = path.stat().st_size
    offset = min(max(offset, 0), max(size - 1, 0))
    nbytes = max(1, min(nbytes, size - offset))
    with open(path, "r+b") as fh:
        fh.seek(offset)
        chunk = fh.read(nbytes)
        fh.seek(offset)
        fh.write(bytes(b ^ 0xFF for b in chunk))


def write_checkpoint(
    sim: CheckpointableRun, directory: Union[str, pathlib.Path], keep: int = 3
) -> pathlib.Path:
    """Atomically write one checkpoint generation; rotate to ``keep``.

    Returns the published archive path.  The digest sidecar always
    describes the *intended* bytes, so a post-publish corruption (crash,
    bit rot, or the ``checkpoint.corrupt`` fault site) is caught by
    :func:`verify_checkpoint` at load time.
    """
    if keep < 1:
        raise ValueError("keep must be at least 1")
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    final = checkpoint_path(directory, sim.step_count)
    tmp = directory / f".tmp-{final.name}"
    spec = fault_point("checkpoint.enospc")
    if spec is not None:
        # Disk full before a single archive byte lands: the previous
        # generations (and any existing file at ``final``) stay intact.
        raise OSError(errno.ENOSPC,
                      "No space left on device (injected fault)", str(final))
    try:
        _save_state(sim, tmp)
        meta: Dict = {
            "step": int(sim.step_count),
            "time": float(sim.time),
            "sha256": _sha256(tmp),
            "nbytes": tmp.stat().st_size,
        }
        os.replace(tmp, final)
    except BaseException:
        # A failed write (real ENOSPC included) never leaves temp litter
        # and never touches the published generations.
        tmp.unlink(missing_ok=True)
        raise
    fsync_directory(directory)
    _atomic_write_text(sidecar_path(final), json.dumps(meta, indent=1))

    spec = fault_point("checkpoint.torn_write")
    if spec is not None:
        # A torn archive: published bytes truncated after the sidecar
        # recorded the intended digest (verification catches this and
        # falls back a generation).
        frac = float(spec.payload.get("keep_fraction", 0.5))
        frac = min(max(frac, 0.0), 1.0)
        os.truncate(final, int(final.stat().st_size * frac))
    spec = fault_point("checkpoint.corrupt")
    if spec is not None:
        _corrupt_file(
            final,
            offset=int(spec.payload.get("offset", 64)),
            nbytes=int(spec.payload.get("nbytes", 32)),
        )

    for old in list_checkpoints(directory)[:-keep]:
        old.unlink(missing_ok=True)
        sidecar_path(old).unlink(missing_ok=True)
    return final


def verify_checkpoint(path: Union[str, pathlib.Path]) -> Dict:
    """Check a checkpoint's digest; returns its sidecar metadata.

    Raises :class:`CheckpointCorruptError` when the sidecar is missing,
    unreadable, or the archive bytes do not hash to the recorded digest.
    """
    path = pathlib.Path(path)
    side = sidecar_path(path)
    if not path.is_file():
        raise CheckpointCorruptError(f"checkpoint {path} does not exist")
    if not side.is_file():
        raise CheckpointCorruptError(f"checkpoint {path} has no digest sidecar")
    try:
        meta = json.loads(side.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointCorruptError(f"unreadable sidecar {side}: {exc}") from exc
    digest = _sha256(path)
    if digest != meta.get("sha256"):
        raise CheckpointCorruptError(
            f"checkpoint {path.name} failed integrity check: "
            f"sha256 {digest[:12]}... != recorded {str(meta.get('sha256'))[:12]}..."
        )
    return meta


def load_verified(sim: CheckpointableRun, path: Union[str, pathlib.Path]) -> Dict:
    """Verify integrity, then restore the checkpoint into ``sim``."""
    meta = verify_checkpoint(path)
    _load_state(sim, path)
    return meta


def restore_newest_verified(
    sim: CheckpointableRun, directory: Union[str, pathlib.Path]
) -> "tuple[pathlib.Path, Dict, List[pathlib.Path]]":
    """Restore the newest generation that passes verification.

    Walks the rotation newest-first, skipping generations that fail
    their digest check (torn archive, bit rot), and restores the first
    one that verifies.  Returns ``(path, sidecar metadata, skipped)``
    where ``skipped`` lists the corrupt newer generations (newest
    first) so callers can log the degradation.  Raises
    :class:`CheckpointCorruptError` when no generation is usable.
    """
    generations = list_checkpoints(directory)
    skipped: List[pathlib.Path] = []
    for path in reversed(generations):
        try:
            meta = load_verified(sim, path)
        except CheckpointCorruptError:
            skipped.append(path)
            continue
        return path, meta, skipped
    raise CheckpointCorruptError(
        f"no usable checkpoint among {len(generations)} generation(s) "
        f"in {directory}"
    )
