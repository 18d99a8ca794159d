"""Hardened checkpointing: verified generations, rotation, fallback.

Every generation is one verified archive of
:mod:`repro.resilience.atomicio` (``ckpt-<step>.npz``), so three
properties hold without any side file:

* **atomicity** -- the archive is written to a hidden temporary file in
  the same directory, fsync'd and published with ``os.replace``, so a
  checkpoint either exists completely or not at all;
* **integrity** -- the archive embeds a SHA-256 of its arrays, which
  every load recomputes before any state is applied, so corruption is
  detected *before* it can poison a restart;
* **rotation** -- the last ``keep`` generations are retained, so a
  corrupt newest checkpoint degrades to the previous generation instead
  of ending the run.

The ``checkpoint.enospc`` and ``checkpoint.torn_write`` fault sites fire
inside the atomic writer, once per write; ``checkpoint.corrupt`` flips
bytes *after* the archive is published, reproducing exactly the failure
mode the verification is designed to catch.
"""

from __future__ import annotations

import pathlib
import re
from typing import TYPE_CHECKING, Dict, List, Protocol, Tuple, Union, cast

if TYPE_CHECKING:  # layering: resilience never imports core at runtime
    from repro.core.mesh import DCMESHSimulation

from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.resilience.atomicio import CheckpointCorruptError, read_archive
from repro.resilience.faults import fault_point

_CKPT_RE = re.compile(r"^ckpt-(\d{8})\.npz$")


class CheckpointableRun(Protocol):
    """Structural contract of anything this module can checkpoint.

    :class:`~repro.core.mesh.DCMESHSimulation` satisfies it implicitly
    (its state is archived by :mod:`repro.core.checkpoint`); other run
    objects -- e.g. the trajectory-ensemble engine's partial-ensemble
    state -- opt in by providing ``save_state(path)`` / ``load_state(path)``
    methods, which :func:`write_checkpoint` / :func:`load_verified`
    prefer over the mesh-specific archiver.  Either way the archive's
    metadata carries ``step_count`` and ``time``.
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


def checkpoint_path(directory: Union[str, pathlib.Path], step: int) -> pathlib.Path:
    """Canonical archive path of the generation written at MD step ``step``."""
    return pathlib.Path(directory) / f"ckpt-{step:08d}.npz"


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
    """Atomically publish one checkpoint generation; rotate to ``keep``.

    Returns the published archive path.  The archive embeds the digest
    of the *intended* arrays, so a post-publish corruption (crash, bit
    rot, or the ``checkpoint.corrupt`` fault site) is caught by
    :func:`verify_checkpoint` at load time.
    """
    if keep < 1:
        raise ValueError("keep must be at least 1")
    final = checkpoint_path(directory, sim.step_count)
    _save_state(sim, final)
    spec = fault_point("checkpoint.corrupt")
    if spec is not None:
        _corrupt_file(
            final,
            offset=int(spec.payload.get("offset", 64)),
            nbytes=int(spec.payload.get("nbytes", 32)),
        )
    for old in list_checkpoints(directory)[:-keep]:
        old.unlink(missing_ok=True)
    return final


def verify_checkpoint(path: Union[str, pathlib.Path]) -> Dict:
    """Recompute a generation's embedded digest; returns its step and time.

    Raises :class:`CheckpointCorruptError` when the archive is missing,
    torn, or its arrays do not hash to the recorded digest.
    """
    _, meta = read_archive(path)
    return {"step": int(meta["step_count"]), "time": float(meta["time"])}


def load_verified(sim: CheckpointableRun, path: Union[str, pathlib.Path]) -> Dict:
    """Restore the checkpoint into ``sim`` through the verifying reader;
    returns the restored step and time."""
    _load_state(sim, path)
    return {"step": int(sim.step_count), "time": float(sim.time)}


def restore_newest_verified(
    sim: CheckpointableRun, directory: Union[str, pathlib.Path]
) -> Tuple[pathlib.Path, Dict,
           List[Tuple[pathlib.Path, CheckpointCorruptError]]]:
    """Restore the newest generation that passes verification.

    Walks the rotation newest-first, skipping generations that fail
    verification (torn archive, bit rot, foreign run), and restores the
    first one that verifies.  Returns ``(path, {"step", "time"},
    skipped)`` where ``skipped`` pairs each corrupt newer generation
    (newest first) with the error that rejected it, so callers can log
    the degradation.  Raises :class:`CheckpointCorruptError`, naming the
    newest generation's error, when no generation is usable.
    """
    generations = list_checkpoints(directory)
    skipped: List[Tuple[pathlib.Path, CheckpointCorruptError]] = []
    for path in reversed(generations):
        try:
            meta = load_verified(sim, path)
        except CheckpointCorruptError as exc:
            skipped.append((path, exc))
            continue
        return path, meta, skipped
    newest = f" (newest: {skipped[0][1]})" if skipped else ""
    raise CheckpointCorruptError(
        f"no usable checkpoint among {len(generations)} generation(s) "
        f"in {directory}{newest}"
    )
