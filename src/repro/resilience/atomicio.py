"""Torn-write-proof persistence: atomic writes and the verified archive.

Every persistence path in the repo (checkpoints, partial ensembles,
artifacts, tuning cache, resilience event log) must survive two failure
modes that plain ``open().write()`` does not:

* **torn writes** -- a crash (or SIGKILL) mid-write leaves a truncated
  file; ``os.rename`` from another filesystem (``tempfile`` defaults to
  ``/tmp``) degrades to a copy and can tear the same way;
* **ENOSPC** -- a full disk fails the write halfway; the *previous*
  version of the file must survive untouched.

Every write here follows one discipline: the temp file is created *in
the destination directory* (same filesystem, so ``os.replace`` is a
true atomic rename), its contents are flushed and ``fsync``'d before
the rename (so the rename can never publish a name pointing at
unwritten blocks), and the directory entry itself is ``fsync``'d after
the rename (so the publish survives a power cut).  On any failure the
temp file is removed and the previous destination bytes are left
untouched.  :func:`atomic_write_bytes` publishes a byte string this
way.

:func:`write_archive` / :func:`read_archive` are the package's one
on-disk format for named NumPy arrays.  An archive is a stored
(uncompressed) ``.npz`` -- ``np.load`` still opens it -- written
straight into the temp file, with a ``__meta__.json`` member that
records the schema name, the container version, the caller's metadata
and a SHA-256 over every array member's name, dtype, shape and bytes in
name order.  :func:`read_archive` reads each member once, recomputes
that digest and checks the schema before it returns anything, so no
caller can apply state from a missing, torn, corrupt or foreign file:
each of those raises :class:`CheckpointCorruptError`.

Fault injection: callers pass a ``fault_prefix`` naming their subsystem
(``"cache"``, ``"checkpoint"``, ``"artifact"``, ...); the writer then
honours the ``<prefix>.enospc`` site (raise ``OSError(ENOSPC)`` with the
old file intact) and the ``<prefix>.torn_write`` site (publish a
deliberately truncated file, simulating the torn outcome the atomic
discipline exists to prevent -- so reader-side recovery can be tested).
Each site arrives once per write.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import itertools
import json
import os
import pathlib
import threading
import zipfile
import zlib
from typing import Any, BinaryIO, Dict, Iterator, Mapping, Optional, Tuple, Union

import numpy as np

from repro.resilience.faults import fault_point

#: Version of the archive container: member layout and digest scheme.
ARCHIVE_VERSION = 1

#: Reserved name of the JSON record; its member is ``__meta__.json``.
META = "__meta__"

#: Disambiguates temp names when several threads of one process write
#: the same destination concurrently (e.g. racing artifact-store puts):
#: a pid-only suffix would make them scribble on each other's temp file.
_TMP_COUNTER = itertools.count()

PathLike = Union[str, pathlib.Path]


class CheckpointCorruptError(RuntimeError):
    """An archive failed verification: it is missing, torn or corrupt,
    or it carries the wrong schema or version."""


def fsync_directory(directory: PathLike) -> None:
    """Flush a directory entry to disk (best effort on exotic filesystems)."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:  # platform without directory fds (or no permission)
        return
    try:
        os.fsync(fd)
    except OSError:  # some filesystems reject directory fsync; not fatal
        pass
    finally:
        os.close(fd)


@contextlib.contextmanager
def _atomic_file(
    path: pathlib.Path, fault_prefix: Optional[str]
) -> Iterator[BinaryIO]:
    """A same-directory temp file, published over ``path`` on success."""
    path.parent.mkdir(parents=True, exist_ok=True)
    torn = None
    if fault_prefix is not None:
        if fault_point(f"{fault_prefix}.enospc") is not None:
            raise OSError(
                errno.ENOSPC, "No space left on device (injected fault)",
                str(path),
            )
        torn = fault_point(f"{fault_prefix}.torn_write")
    tmp = path.parent / (
        f".tmp-{path.name}.{os.getpid()}"
        f".{threading.get_ident()}.{next(_TMP_COUNTER)}"
    )
    try:
        with open(tmp, "wb") as fh:
            yield fh
            if torn is not None:
                frac = float(torn.payload.get("keep_fraction", 0.5))
                size = fh.seek(0, os.SEEK_END)
                fh.truncate(int(size * min(max(frac, 0.0), 1.0)))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fsync_directory(path.parent)


def atomic_write_bytes(
    path: PathLike,
    data: bytes,
    fault_prefix: Optional[str] = None,
) -> pathlib.Path:
    """Atomically publish ``data`` at ``path`` with full fsync discipline.

    Either the destination holds the complete new bytes or it is left
    exactly as it was -- a crash, kill or ENOSPC mid-write can never
    tear it.  Returns the destination path.
    """
    path = pathlib.Path(path)
    with _atomic_file(path, fault_prefix) as fh:
        fh.write(data)
    return path


def atomic_write_text(
    path: PathLike,
    text: str,
    fault_prefix: Optional[str] = None,
) -> pathlib.Path:
    """UTF-8 text variant of :func:`atomic_write_bytes`."""
    return atomic_write_bytes(path, text.encode("utf-8"), fault_prefix)


def _digest(arrays: Mapping[str, np.ndarray]) -> str:
    """SHA-256 over every array's name, dtype, shape and bytes, by name."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], order="C")
        h.update(json.dumps([name, arr.dtype.str, arr.shape]).encode())
        h.update(arr)
    return h.hexdigest()


def write_archive(
    path: PathLike,
    arrays: Mapping[str, Any],
    meta: Mapping[str, Any],
    schema: str,
    fault_prefix: Optional[str] = None,
) -> pathlib.Path:
    """Atomically publish ``arrays`` and ``meta`` as a verified archive.

    ``meta`` must be JSON-serializable; ``schema`` names the format
    that :func:`read_archive` will demand back.  The members are
    streamed into the temp file of :func:`atomic_write_bytes`'s
    discipline -- no second in-memory copy of the payload is built.
    Returns the destination path.
    """
    path = pathlib.Path(path)
    if META in arrays:
        raise ValueError(f"array name {META!r} is reserved")
    arrays = {name: np.asarray(value) for name, value in arrays.items()}
    record = json.dumps({
        "schema": schema,
        "version": ARCHIVE_VERSION,
        "meta": dict(meta),
        "sha256": _digest(arrays),
    })
    with _atomic_file(path, fault_prefix) as fh:
        with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as zf:
            # The record goes first: the head of the file is then
            # CRC-checked JSON, not the zip64 extra field of an array
            # member's local header, which readers skip unchecked.  Its
            # ZipInfo carries the array members' fixed 1980 date, so the
            # bytes do not depend on the wall clock.
            zf.writestr(zipfile.ZipInfo(f"{META}.json"), record)
            for name in sorted(arrays):
                with zf.open(f"{name}.npy", "w", force_zip64=True) as member:
                    np.lib.format.write_array(member, arrays[name],
                                              allow_pickle=False)
    return path


def read_archive(
    path: PathLike, schema: Optional[str] = None
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Read and verify an archive; returns ``(arrays, meta)``.

    Every member is read once; the digest is recomputed from the arrays
    read, and the container version and (unless ``schema`` is None) the
    schema are checked before anything is returned.  A missing file, a
    torn zip, a bad CRC, a digest mismatch or a wrong schema or version
    raises :class:`CheckpointCorruptError`.
    """
    path = pathlib.Path(path)
    arrays: Dict[str, np.ndarray] = {}
    record: Any = None
    try:
        with zipfile.ZipFile(path) as zf:
            for info in zf.infolist():
                name = info.filename
                if name == f"{META}.json":
                    record = json.loads(zf.read(info))
                elif name.endswith(".npy") and name[:-4] != META:
                    with zf.open(info) as member:
                        arrays[name[:-4]] = np.lib.format.read_array(
                            member, allow_pickle=False
                        )
                else:
                    raise CheckpointCorruptError(
                        f"archive {path} has a foreign member {name!r}"
                    )
    except FileNotFoundError as exc:
        raise CheckpointCorruptError(f"archive {path} does not exist") from exc
    except (zipfile.BadZipFile, EOFError, ValueError, NotImplementedError,
            zlib.error) as exc:
        raise CheckpointCorruptError(
            f"archive {path} is unreadable: {exc}"
        ) from exc
    if not isinstance(record, dict) or not isinstance(record.get("meta"), dict):
        raise CheckpointCorruptError(
            f"archive {path} has no valid {META}.json record"
        )
    if record.get("version") != ARCHIVE_VERSION:
        raise CheckpointCorruptError(
            f"archive {path} is container version {record.get('version')}, "
            f"expected {ARCHIVE_VERSION}"
        )
    digest = _digest(arrays)
    if digest != record.get("sha256"):
        raise CheckpointCorruptError(
            f"archive {path} failed its integrity check: sha256 "
            f"{digest[:12]}... != recorded {str(record.get('sha256'))[:12]}..."
        )
    if schema is not None and record.get("schema") != schema:
        raise CheckpointCorruptError(
            f"archive {path} has schema {record.get('schema')!r}, "
            f"expected {schema!r}"
        )
    return arrays, record["meta"]
