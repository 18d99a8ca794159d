"""The serve wire protocol: newline-delimited JSON over a unix socket.

Each request is one JSON object on one line; each response is one JSON
object on one line.  Requests carry an ``op`` (``submit``, ``stats``,
``ping``, ``invalidate``, ``shutdown``); ``submit`` carries a list of
job specs and receives a list of per-job responses, each with a typed
``status``:

* ``ok`` -- the job ran (or memoized); ``result`` holds the payload and
  ``meta`` the serving diagnostics (cache/warm/batch/queue timings);
* ``busy`` -- the bounded admission queue was full; the daemon shed the
  job instead of hanging (the ``ServerBusy`` contract);
* ``shutdown`` -- the daemon was draining; the job was refused (if it
  arrived during the drain) or dequeued unexecuted (if it was still
  queued when the drain began);
* ``error`` -- the job raised; ``error.type``/``error.message`` carry
  the exception.

NumPy arrays cross the wire bit-exactly: every array in a result is
encoded as a base64'd ``.npy`` blob (dtype + shape + raw bytes), so a
memoized resubmission returns byte-identical payloads and the client
reconstructs arrays without float/text round-tripping.  Scalars ride as
plain JSON (exact for float64 by shortest-repr round-tripping).
"""

from __future__ import annotations

import base64
import io
import json
from typing import Any, Dict, List, Optional

import numpy as np

#: Protocol schema marker, stamped on every response.
PROTOCOL = "repro-serve/1"

#: JSON key marking an encoded ndarray blob.
_ARRAY_KEY = "__npy_b64__"

#: Operations the daemon understands.
OPS = ("submit", "stats", "ping", "invalidate", "shutdown")

#: Job kinds the daemon accepts.
JOB_KINDS = ("run", "spectrum", "scf", "ensemble")


class ProtocolError(ValueError):
    """A malformed request or response line."""


def encode_array(array: np.ndarray) -> Dict[str, str]:
    """One ndarray as a JSON-safe base64'd ``.npy`` blob (bit-exact)."""
    buf = io.BytesIO()
    np.save(buf, np.asarray(array), allow_pickle=False)
    return {_ARRAY_KEY: base64.b64encode(buf.getvalue()).decode("ascii")}


def decode_array(blob: Dict[str, str]) -> np.ndarray:
    """Inverse of :func:`encode_array`."""
    raw = base64.b64decode(blob[_ARRAY_KEY].encode("ascii"))
    return np.asarray(np.load(io.BytesIO(raw), allow_pickle=False))


def encode_payload(value: Any) -> Any:
    """Recursively encode a result payload for the wire.

    ndarrays become base64 blobs; dicts/lists/tuples recurse; NumPy
    scalars narrow to their Python equivalents; everything else must
    already be JSON-serializable.
    """
    if isinstance(value, np.ndarray):
        return encode_array(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, dict):
        return {str(k): encode_payload(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_payload(v) for v in value]
    return value


def decode_payload(value: Any) -> Any:
    """Recursively decode a wire payload back into arrays and scalars."""
    if isinstance(value, dict):
        if set(value.keys()) == {_ARRAY_KEY}:
            return decode_array(value)
        return {k: decode_payload(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_payload(v) for v in value]
    return value


def dumps_line(obj: Dict[str, Any]) -> bytes:
    """One protocol object as a newline-terminated JSON line."""
    return (json.dumps(obj, separators=(",", ":"), sort_keys=True)
            + "\n").encode("utf-8")


def loads_line(line: bytes) -> Dict[str, Any]:
    """Parse one protocol line; raises :class:`ProtocolError` if bad."""
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed protocol line: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("protocol line must be a JSON object")
    return obj


# ---------------------------------------------------------------------- #
# response builders (daemon side)
# ---------------------------------------------------------------------- #
def ok_response(job_id: str, result: Dict[str, Any],
                meta: Dict[str, Any]) -> Dict[str, Any]:
    """A completed job: encoded result payload plus serving metadata."""
    return {
        "id": job_id,
        "status": "ok",
        "result": encode_payload(result),
        "meta": meta,
    }


def protocol_error_response(exc: ProtocolError) -> Dict[str, Any]:
    """A request the daemon could not parse or route, typed."""
    return {
        "protocol": PROTOCOL,
        "status": "error",
        "error": {"type": "ProtocolError", "message": str(exc)},
    }


def error_response(job_id: str, exc: BaseException) -> Dict[str, Any]:
    """A failed job, typed by exception class."""
    return {
        "id": job_id,
        "status": "error",
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


def busy_response(job_id: str, queue_depth: int,
                  max_queue: int) -> Dict[str, Any]:
    """Typed load-shed: the bounded queue refused admission."""
    return {
        "id": job_id,
        "status": "busy",
        "error": {
            "type": "ServerBusy",
            "message": (f"admission queue full "
                        f"({queue_depth} queued >= max {max_queue})"),
            "queue_depth": queue_depth,
            "max_queue": max_queue,
        },
    }


def shutdown_response(job_id: str) -> Dict[str, Any]:
    """Typed drain refusal: the daemon is shutting down."""
    return {
        "id": job_id,
        "status": "shutdown",
        "error": {
            "type": "ServerShutdown",
            "message": "daemon draining: job refused (resubmit elsewhere)",
        },
    }
