"""A start/stop wall-clock timer."""

from __future__ import annotations

import time
from typing import Optional


class Timer:
    """A simple start/stop wall-clock timer."""

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self.elapsed = 0.0
        self.calls = 0

    def start(self) -> None:
        """Start timing; raises if already running."""
        if self._start is not None:
            raise RuntimeError("timer already running")
        self._start = time.perf_counter()

    def stop(self) -> float:
        """Stop timing; returns this interval and accumulates it."""
        if self._start is None:
            raise RuntimeError("timer not running")
        dt = time.perf_counter() - self._start
        self._start = None
        self.elapsed += dt
        self.calls += 1
        return dt

    def reset(self) -> None:
        """Zero the accumulated time and call count."""
        self._start = None
        self.elapsed = 0.0
        self.calls = 0

    @property
    def mean(self) -> float:
        """Mean time per start/stop cycle."""
        return self.elapsed / self.calls if self.calls else 0.0
