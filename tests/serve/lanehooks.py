"""Test hooks that reach into serve lanes.

Every lane of the daemon is a process of its own, so a monkeypatch in
the test process reaches none of them.  A test reaches a lane only
through its worker, ``lane.worker.call(fn, ...)``, with ``fn`` one of
the module-level functions below (importable in the lane).  A call on
a lane the daemon has not started yet starts its process, and the
daemon's own start then takes that process over.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import pathlib
import threading
import time

#: The small ensemble job a held lane computes once released.
HOLD_JOB = {"kind": "ensemble", "memoize": False,
            "params": {"ntraj": 4, "nsteps": 12, "nstates": 3,
                       "coupling": 0.3, "batch_size": 4,
                       "seed": 987_654_321}}

#: Originals of what the hooks replaced, in the process they ran in.
_SAVED: dict = {}


# ---------------------------------------------------------------------- #
# lane side (run through ``lane.worker.call``)
# ---------------------------------------------------------------------- #
def hold_ensembles(path: str) -> None:
    """Make every ensemble job of this process wait, before it builds
    its path, until ``path`` exists (120 s at most)."""
    from repro.serve import workloads

    original = _SAVED.setdefault("ensemble_path", workloads.ensemble_path)

    def held(params):
        end = time.monotonic() + 120
        while not os.path.exists(path) and time.monotonic() < end:
            time.sleep(0.005)
        return original(params)

    workloads.ensemble_path = held


def slow_rounds(seconds: float) -> None:
    """Make every ensemble round of this process ``seconds`` slower."""
    from repro.ensemble.engine import EnsembleRun

    original = _SAVED.setdefault("md_step", EnsembleRun.md_step)

    def slow(self):
        time.sleep(seconds)
        return original(self)

    EnsembleRun.md_step = slow


def _broken_kinetic(*args, **kwargs):
    raise RuntimeError("injected kinetic failure")


def break_kinetic() -> None:
    """Fail every kinetic step of this process."""
    import repro.lfd.propagator as propagator

    _SAVED.setdefault("kinetic_step", propagator.kinetic_step)
    propagator.kinetic_step = _broken_kinetic


def restore() -> None:
    """Undo every hook of this process."""
    import repro.lfd.propagator as propagator
    from repro.ensemble.engine import EnsembleRun
    from repro.serve import workloads

    for owner, name in ((workloads, "ensemble_path"),
                        (EnsembleRun, "md_step"),
                        (propagator, "kinetic_step")):
        if name in _SAVED:
            setattr(owner, name, _SAVED.pop(name))


# ---------------------------------------------------------------------- #
# test side
# ---------------------------------------------------------------------- #
def wait_until(predicate, timeout_s=30.0, what="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise TimeoutError(f"timed out waiting for {what}")


class LaneGate:
    """Ensemble jobs on an armed lane wait until the gate is set."""

    def __init__(self, path: pathlib.Path) -> None:
        self.path = path

    def arm(self, lane) -> None:
        lane.worker.call(hold_ensembles, str(self.path))

    def set(self) -> None:
        self.path.touch()


_holds = itertools.count()


@contextlib.contextmanager
def occupy_lane(handle, client, lane=0):
    """Hold lane ``lane`` inside one gated ensemble job while the body
    runs.  The daemon must give that job to ``lane``: lane 0 takes the
    first group, and each next lane one that waits while the lanes
    before it are busy."""
    socket_path = pathlib.Path(handle.config.socket_path)
    gate = LaneGate(socket_path.with_name(f"hold-{next(_holds)}"))
    gate.arm(handle.daemon._lanes[lane])
    held = {}
    holder = threading.Thread(
        target=lambda: held.update(reply=client.submit([HOLD_JOB])))
    holder.start()
    try:
        wait_until(lambda: client.stats()["lanes"][lane]["busy"],
                   what=f"lane {lane} held")
        yield held
    finally:
        gate.set()
        holder.join(120)
    assert held["reply"][0]["status"] == "ok", held


@contextlib.contextmanager
def hooked(lane, hook, *args):
    """Run ``hook(*args)`` in ``lane``'s process for the body; undo it
    after, unless the lane died (a replacement starts clean)."""
    lane.worker.call(hook, *args)
    try:
        yield
    finally:
        if lane.worker.alive:
            lane.worker.call(restore)
