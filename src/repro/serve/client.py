"""Thin synchronous client for the serving daemon.

One NDJSON request per connection: connect, write a line, read a line,
close.  Deliberately simple -- the daemon does all the multiplexing, and
a fresh connection per request means a crashed client never wedges the
server.  Arrays come back decoded (bit-exact ``.npy`` round-trip).
"""

from __future__ import annotations

import pathlib
import socket
from typing import Any, Dict, List, Optional, Union

from repro.serve.protocol import (
    PROTOCOL,
    ProtocolError,
    decode_payload,
    dumps_line,
    loads_line,
)


class ServeError(RuntimeError):
    """A job or operation the daemon refused or failed, typed.

    ``kind`` carries the daemon-side type name (``ServerBusy``,
    ``ServerShutdown``, or the exception class of a failed job).
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind


class ServeClient:
    """Talk to one daemon socket."""

    def __init__(self, socket_path: Union[str, pathlib.Path],
                 timeout_s: float = 300.0) -> None:
        self.socket_path = pathlib.Path(socket_path)
        self.timeout_s = timeout_s

    # ------------------------------------------------------------------ #
    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One raw request/response round trip."""
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(self.timeout_s)
            sock.connect(str(self.socket_path))
            try:
                sock.sendall(dumps_line(payload))
            except (BrokenPipeError, ConnectionResetError):
                # The daemon answers a line too long to frame and closes
                # before taking all of it; its typed answer is still
                # waiting in the receive buffer.
                pass
            chunks: List[bytes] = []
            while True:
                chunk = sock.recv(1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
                if chunk.endswith(b"\n"):
                    break
        line = b"".join(chunks)
        if not line:
            raise ProtocolError("daemon closed the connection mid-request")
        return loads_line(line)

    # ------------------------------------------------------------------ #
    def ping(self) -> bool:
        """True iff the daemon answers."""
        response = self.request({"op": "ping"})
        return bool(response.get("status") == "ok"
                    and response.get("protocol") == PROTOCOL)

    def stats(self) -> Dict[str, Any]:
        """The daemon's queue/pool/store/counter snapshot."""
        return dict(self.request({"op": "stats"})["stats"])

    def invalidate(self, scope: str = "pool",
                   key: Optional[str] = None) -> Dict[str, int]:
        """Drop warm state and/or memoized artifacts."""
        payload: Dict[str, Any] = {"op": "invalidate", "scope": scope}
        if key is not None:
            payload["key"] = key
        return dict(self.request(payload)["dropped"])

    def shutdown(self) -> None:
        """Ask the daemon to drain and exit (returns once drained)."""
        self.request({"op": "shutdown"})

    # ------------------------------------------------------------------ #
    def submit(self, jobs: List[Dict[str, Any]],
               decode: bool = True) -> List[Dict[str, Any]]:
        """Submit a list of raw job dicts; returns per-job responses.

        Responses keep their typed ``status`` (``ok``/``busy``/
        ``shutdown``/``error``); ``ok`` results are decoded back into
        ndarrays unless ``decode=False`` (the memoization tests compare
        raw wire payloads byte for byte).
        """
        response = self.request({"op": "submit", "jobs": jobs})
        out = []
        for job in response["jobs"]:
            if decode and job.get("status") == "ok":
                job = dict(job)
                job["result"] = decode_payload(job["result"])
            out.append(job)
        return out

    def run_job(self, kind: str, params: Optional[Dict[str, Any]] = None,
                **options: Any) -> Dict[str, Any]:
        """Submit one job and return its decoded result payload.

        Raises :class:`ServeError` on any non-``ok`` status, carrying
        the daemon's typed refusal (``ServerBusy``, ``ServerShutdown``)
        or the failed job's exception type.
        """
        job: Dict[str, Any] = {"kind": kind, "params": params or {}}
        job.update(options)
        (response,) = self.submit([job])
        if response.get("status") != "ok":
            error = response.get("error", {})
            raise ServeError(error.get("type", "Unknown"),
                             error.get("message", "job failed"))
        result = response["result"]
        assert isinstance(result, dict)
        return result
