"""Timer utility tests."""

import time

import pytest

from repro.perf import Timer


class TestTimer:
    def test_elapsed_accumulates(self):
        t = Timer()
        t.start()
        time.sleep(0.01)
        dt = t.stop()
        assert dt > 0.005
        assert t.elapsed == pytest.approx(dt)
        assert t.calls == 1

    def test_double_start_raises(self):
        t = Timer()
        t.start()
        with pytest.raises(RuntimeError):
            t.start()

    def test_stop_without_start(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_mean(self):
        t = Timer()
        for _ in range(3):
            t.start()
            t.stop()
        assert t.mean == pytest.approx(t.elapsed / 3)

    def test_reset(self):
        t = Timer()
        t.start()
        t.stop()
        t.reset()
        assert t.elapsed == 0.0 and t.calls == 0
