"""OwnedWorker: resident state, typed death, empty replacement, lifetime."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.parallel.executor import WorkerCrashError
from repro.parallel.owned import OwnedWorker, worker_lease
from repro.tuning.profile import TuningProfile, active_profile, get_active_profile

#: Module state of the worker-side copy of this module.
_STATE: dict = {}


def remember(value):
    _STATE["value"] = value
    return os.getpid()


def recall():
    return _STATE.get("value")


def nap(seconds):
    time.sleep(seconds)
    return seconds


def profile_overrides():
    return get_active_profile().to_dict()["overrides"]


def extend_lease(until):
    worker_lease().extend(until)
    worker_lease().extend(until - 1.0)  # an earlier instant: no effect


class Unportable(Exception):
    """Its ``__init__`` takes other arguments than its ``args``."""

    def __init__(self, where, code):
        super().__init__(f"{where}: {code}")


def raise_value_error():
    raise ValueError("bad input")


def raise_unportable():
    raise Unportable("lane", 3)


def gone(pid, timeout_s=5.0):
    """Whether ``pid`` exits (or is a zombie) within ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/status") as status:
                if "\nState:\tZ" in status.read():
                    return True
        except FileNotFoundError:
            return True
        time.sleep(0.02)
    return False


@pytest.fixture
def worker():
    with OwnedWorker("test") as w:
        yield w


class TestCalls:
    def test_state_survives_between_calls(self, worker):
        pid = worker.call(remember, 42)
        assert pid == worker.pid != os.getpid()
        assert worker.call(recall) == 42
        assert _STATE == {}  # the parent's copy is untouched

    def test_exceptions_come_back_typed(self, worker):
        with pytest.raises(ValueError, match="bad input"):
            worker.call(raise_value_error)
        with pytest.raises(RuntimeError, match="Unportable: lane: 3"):
            worker.call(raise_unportable)
        assert worker.call(nap, 0.0) == 0.0  # still serving

    def test_starts_under_the_active_profile(self):
        tuned = TuningProfile({"lfd.kin_prop": {"variant": "baseline"}},
                              source="test")
        with active_profile(tuned):
            with OwnedWorker("tuned") as w:
                assert w.call(profile_overrides) == \
                    tuned.to_dict()["overrides"]

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM],
                             ids=["SIGINT", "SIGTERM"])
    def test_ignores_interrupt_and_terminate(self, worker, signum):
        """A Ctrl-C or a stop sent to the owner's process group."""
        pid = worker.call(remember, 1)
        os.kill(pid, signum)
        time.sleep(0.2)
        assert worker.call(recall) == 1
        assert worker.pid == pid

    def test_calls_extend_the_lease_the_owner_reads(self, worker):
        assert worker_lease() is None  # not a worker process
        now = time.monotonic()
        worker.lease.set(now)
        worker.call(extend_lease, now + 5.0)
        assert worker.lease.until == now + 5.0
        worker.kill()
        deadline = time.monotonic() + 5.0
        while worker.alive and time.monotonic() < deadline:
            time.sleep(0.01)
        worker.call(extend_lease, now + 6.0)  # the replacement shares it
        assert worker.lease.until == now + 6.0


class TestDeath:
    def test_death_mid_call_is_typed_and_the_replacement_is_empty(
            self, worker):
        first = worker.call(remember, 7)
        threading.Timer(0.3, worker.kill).start()
        with pytest.raises(WorkerCrashError, match="killed by signal 9"):
            worker.call(nap, 30.0)
        assert worker.pid is None
        assert worker.call(recall) is None  # a fresh, empty worker
        assert worker.pid != first
        assert worker.restarts == 1

    def test_death_between_calls_is_replaced_quietly(self, worker):
        first = worker.call(remember, 8)
        os.kill(first, signal.SIGKILL)
        # Reapable only once every thread of it has exited (its leader
        # shows as a zombie before that).
        deadline = time.monotonic() + 5.0
        while worker.alive and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not worker.alive
        assert worker.call(recall) is None  # no call was lost: no error
        assert worker.restarts == 1

    def test_close_reaps_the_worker(self):
        w = OwnedWorker("closing").start()
        pid = w.pid
        w.close()
        assert not w.alive and w.pid is None
        assert gone(pid, timeout_s=0.5)

    def test_worker_exits_when_its_parent_is_killed(self, tmp_path):
        """SIGKILL the owner mid-call: the worker ends within 5 s."""
        script = tmp_path / "owner.py"
        script.write_text(
            "import sys, threading\n"
            "from repro.parallel.owned import OwnedWorker\n"
            "import time\n"
            "w = OwnedWorker('orphan').start()\n"
            "print(w.pid, flush=True)\n"
            "w.call(time.sleep, 600)\n"
        )
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(p or os.getcwd()
                                              for p in sys.path))
        owner = subprocess.Popen([sys.executable, str(script)], env=env,
                                 stdout=subprocess.PIPE, text=True)
        try:
            pid = int(owner.stdout.readline())
            time.sleep(0.2)
            assert not gone(pid, timeout_s=0.1)
            owner.kill()
            owner.wait()
            assert gone(pid)
        finally:
            owner.kill()
            owner.wait()
            owner.stdout.close()
