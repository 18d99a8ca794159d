"""OwnedWorker: one long-lived worker process that owns its state.

The paper's rank model keeps each rank's state resident for the whole
run (Algorithm 6's persistent containers).  An :class:`OwnedWorker` is
that rank on one host: a fresh interpreter, started by exec (spawn
semantics -- it is never forked from a threaded parent, and inherits
nothing but what the start message ships), whose module-level state
survives from one :meth:`~OwnedWorker.call` to the next.  A caller puts
state into the worker by calling module-level functions that keep it in
their module's globals, and later calls read it back.

* **Start.**  The worker runs under the parent's active tuning profile
  and ``sys.path``; :meth:`~OwnedWorker.start` returns once it answered
  its start message.
* **Calls.**  ``call(fn, *args)`` pickles a module-level ``fn`` by
  reference with its arguments, runs it in the worker and returns its
  result, or raises what it raised.  One call runs at a time.
* **Death.**  If the process dies while a call is in flight (a crash,
  an OOM kill, or :meth:`~OwnedWorker.kill` from another thread), that
  call raises :class:`~repro.parallel.executor.WorkerCrashError`.  The
  state died with it: the next call starts a replacement, which begins
  empty (as does a call after a death between calls, with no error).
* **Liveness.**  Each worker shares a :class:`Lease` with its owner:
  an instant the worker's calls extend (:func:`worker_lease`) and the
  owner reads without a round trip, so a watchdog in the owner can
  tell a slow call that keeps renewing from a hung one.
* **Lifetime.**  The worker holds the read end of a pipe only its
  parent can write to; when the parent exits, however it exits, the
  pipe closes and the worker ends within milliseconds, even mid-call.
  It ignores SIGINT and SIGTERM, so a terminal's Ctrl-C or a signal to
  the owner's whole process group (a service manager stopping it)
  reaches only its owner, which decides when the worker goes
  (:meth:`~OwnedWorker.close`).

No resource tracker or fork server runs beside it: the worker is the
only process a start creates, and :meth:`~OwnedWorker.close` (or the
caller's death) is the only way it ends.
"""

from __future__ import annotations

import mmap
import os
import pickle
import signal
import struct
import subprocess
import sys
import tempfile
import threading
import weakref
from multiprocessing.connection import Connection
from typing import Any, Callable, List, Optional

from repro.parallel.executor import WorkerCrashError

#: The worker's entry point, run by ``python -c``.
_BOOT = "from repro.parallel.owned import _worker_main; _worker_main()"

#: Seconds a starting worker may take to answer its start message.
_START_TIMEOUT_S = 60.0

#: Seconds :meth:`OwnedWorker.close` waits for the worker to exit
#: before it kills it.
_CLOSE_TIMEOUT_S = 10.0


class Lease:
    """An instant on ``time.monotonic()``'s clock, in one shared page.

    The clock is the host's, so a lease one process extends another can
    compare with its own ``time.monotonic()``.  One aligned 8-byte
    store writes it.  Made without ``fd`` it is backed by an unlinked
    temporary file, open (for a worker to map) until the lease is
    collected.
    """

    def __init__(self, fd: Optional[int] = None) -> None:
        if fd is None:
            with tempfile.TemporaryFile() as backing:
                fd = os.dup(backing.fileno())
            weakref.finalize(self, os.close, fd)
            os.ftruncate(fd, 8)
        self.fd = fd
        self._page = mmap.mmap(fd, 8)

    @property
    def until(self) -> float:
        """The instant the lease runs to."""
        value: float = struct.unpack_from("d", self._page)[0]
        return value

    def set(self, until: float) -> None:
        """Make the lease run to ``until``."""
        struct.pack_into("d", self._page, 0, until)

    def extend(self, until: float) -> None:
        """Make the lease run to ``until`` if that is later."""
        if until > self.until:
            self.set(until)


class OwnedWorker:
    """One worker process that keeps its module state between calls."""

    def __init__(self, name: str = "owned") -> None:
        self.name = name
        #: Replacements started after a death.
        self.restarts = 0
        #: The lease every process of this worker extends.
        self.lease = Lease()
        self._proc: Optional["subprocess.Popen[bytes]"] = None
        self._calls: Optional[Connection] = None
        self._replies: Optional[Connection] = None
        self._lifeline: Optional[int] = None
        self._lock = threading.Lock()
        self._started_once = False

    # ------------------------------------------------------------------ #
    @property
    def pid(self) -> Optional[int]:
        """The live worker's pid, or ``None`` before a start / after a death."""
        proc = self._proc
        return None if proc is None else proc.pid

    @property
    def alive(self) -> bool:
        """Whether a started worker process is still running."""
        proc = self._proc
        return proc is not None and proc.poll() is None

    def start(self) -> "OwnedWorker":
        """Spawn the worker and wait for its handshake (idempotent)."""
        with self._lock:
            self._start_locked()
        return self

    def call(self, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` in the worker; return its result.

        Raises what ``fn`` raised, or :class:`WorkerCrashError` when the
        worker died before answering (a later call gets a fresh worker).
        """
        with self._lock:
            self._start_locked()
            assert self._calls is not None and self._replies is not None
            try:
                self._calls.send(("call", fn, args, kwargs))
                status, value = self._replies.recv()
            except (EOFError, OSError) as exc:
                raise self._crashed_locked("during a call") from exc
        if status == "ok":
            return value
        raise value

    def kill(self) -> None:
        """SIGKILL the worker; a call in flight raises WorkerCrashError.

        Safe from any thread, and a no-op without a live worker.
        """
        proc = self._proc
        if proc is not None and proc.poll() is None:
            try:
                proc.kill()
            except ProcessLookupError:
                pass

    def close(self) -> None:
        """Let the worker exit (waiting for a call in flight), and reap it.

        A worker that has not exited :data:`_CLOSE_TIMEOUT_S` after its
        pipes closed is killed.
        """
        with self._lock:
            proc = self._proc
            self._close_pipes_locked()
            self._proc = None
        if proc is None:
            return
        try:
            proc.wait(timeout=_CLOSE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    # ------------------------------------------------------------------ #
    def _start_locked(self) -> None:
        if self._proc is not None:
            if self._proc.poll() is None:
                return
            self._crashed_locked("while idle")  # no call lost: just replace
        calls_r, calls_w = os.pipe()
        replies_r, replies_w = os.pipe()
        life_r, life_w = os.pipe()
        child_fds = (calls_r, replies_w, life_r)
        passed = child_fds + (self.lease.fd,)  # the lease stays open here
        try:
            self._proc = subprocess.Popen(
                [sys.executable, "-c", _BOOT, *map(str, passed)],
                pass_fds=passed, stdin=subprocess.DEVNULL,
                env=_child_env(),
            )
        except BaseException:
            for fd in (calls_r, calls_w, replies_r, replies_w, life_r,
                       life_w):
                os.close(fd)
            raise
        for fd in child_fds:
            os.close(fd)
        self._calls = Connection(calls_w, readable=False)
        self._replies = Connection(replies_r, writable=False)
        self._lifeline = life_w
        if self._started_once:
            self.restarts += 1
        self._started_once = True
        from repro.tuning.profile import get_active_profile

        try:
            self._calls.send(("start", get_active_profile().to_dict()))
            if not self._replies.poll(_START_TIMEOUT_S):
                raise TimeoutError(
                    f"owned worker {self.name!r} did not start in "
                    f"{_START_TIMEOUT_S:g} s")
            self._replies.recv()
        except (EOFError, OSError, TimeoutError) as exc:
            raise self._crashed_locked("while starting") from exc

    def _crashed_locked(self, when: str) -> WorkerCrashError:
        """Reap a dead (or hopeless) worker; the error its caller raises."""
        proc = self._proc
        self._close_pipes_locked()
        self._proc = None
        code = None
        if proc is not None:
            proc.kill()
            code = proc.wait()
        how = (f"killed by signal {-code}" if code is not None and code < 0
               else f"exit code {code}")
        return WorkerCrashError(
            self.name, 1, 0,
            message=f"owned worker {self.name!r} died {when} ({how}); "
                    f"the next call starts an empty replacement")

    def _close_pipes_locked(self) -> None:
        for conn in (self._calls, self._replies):
            if conn is not None:
                conn.close()
        self._calls = self._replies = None
        if self._lifeline is not None:
            os.close(self._lifeline)
            self._lifeline = None

    def __enter__(self) -> "OwnedWorker":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _child_env() -> dict:
    """The parent's environment, with its ``sys.path`` as ``PYTHONPATH``."""
    env = dict(os.environ)
    paths: List[str] = [p or os.getcwd() for p in sys.path]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


# ---------------------------------------------------------------------- #
# worker side
# ---------------------------------------------------------------------- #
#: This worker's lease (set in a worker process only).
_LEASE: Optional[Lease] = None


def worker_lease() -> Optional[Lease]:
    """The lease this worker process's owner reads; None outside a worker."""
    return _LEASE


def _watch_lifeline(fd: int) -> None:
    """End the worker when the parent's end of the lifeline closes."""
    try:
        while os.read(fd, 1):
            pass
    finally:
        os._exit(0)


def _worker_main() -> None:
    """Serve calls until the parent closes the pipe (or dies)."""
    global _LEASE
    calls_fd, replies_fd, life_fd, lease_fd = map(int, sys.argv[1:5])
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    _LEASE = Lease(lease_fd)
    threading.Thread(target=_watch_lifeline, args=(life_fd,),
                     daemon=True, name="owned-lifeline").start()
    calls = Connection(calls_fd, writable=False)
    replies = Connection(replies_fd, readable=False)
    while True:
        try:
            message = calls.recv()
        except (EOFError, OSError):
            return
        if message[0] == "start":
            from repro.tuning.profile import TuningProfile, set_active_profile

            set_active_profile(TuningProfile.from_dict(message[1]))
            replies.send(("ok", os.getpid()))
            continue
        _, fn, args, kwargs = message
        try:
            reply = ("ok", fn(*args, **kwargs))
        except Exception as exc:  # dclint: disable=DCL004 -- re-raised in the parent
            reply = ("error", _portable(exc))
        try:
            replies.send(reply)
        except (EOFError, OSError):
            return
        except Exception as exc:  # dclint: disable=DCL004 -- an unpicklable reply
            replies.send(("error", RuntimeError(
                f"{type(exc).__name__} while returning the result of "
                f"{getattr(fn, '__qualname__', fn)!r}: {exc}")))


def _portable(exc: Exception) -> Exception:
    """``exc`` if it survives a pickle round trip, else a RuntimeError
    naming it (an exception whose ``__init__`` takes other arguments
    than its ``args`` cannot be rebuilt in the parent)."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # dclint: disable=DCL004 -- any failure: not portable
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc
