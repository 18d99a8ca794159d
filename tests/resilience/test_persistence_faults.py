"""Torn-write / ENOSPC hardening of every persistence path.

Three subsystems persist state -- checkpoint rotation, tuning cache,
resilience event log -- and each must survive a disk that fills up or a
writer that dies mid-write: the previous artifact stays intact on
ENOSPC, a torn artifact is detected and degraded past on readback, and
no path ever crashes the run over lost telemetry.
"""

from __future__ import annotations

import errno

import numpy as np
import pytest

from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.mesh import DCMESHConfig, DCMESHSimulation
from repro.core.timescale import TimescaleSplit
from repro.grids.grid import Grid3D
from repro.pseudo.elements import get_species
from repro.resilience.atomicio import atomic_write_bytes, atomic_write_text
from repro.resilience.checkpointing import (
    CheckpointCorruptError,
    list_checkpoints,
    restore_newest_verified,
    verify_checkpoint,
    write_checkpoint,
)
from repro.resilience.faults import FaultPlan, FaultSpec, armed, disarm
from repro.resilience.supervisor import ResilienceLog, read_event_log
from repro.tuning.cache import TuningCache
from repro.tuning.registry import default_registry


@pytest.fixture(autouse=True)
def _always_disarmed():
    disarm()
    yield
    disarm()


def _make_sim() -> DCMESHSimulation:
    grid = Grid3D((12, 12, 12), (0.6,) * 3)
    L = grid.lengths[0]
    positions = np.array([[L / 4, L / 2, L / 2], [3 * L / 4, L / 2, L / 2]])
    species = [get_species("H"), get_species("H")]
    config = DCMESHConfig(
        timescale=TimescaleSplit(dt_md=2.0, n_qd=4),
        nscf=1, ncg=1, norb_extra=1, seed=42,
    )
    return DCMESHSimulation(
        grid, (2, 1, 1), positions, species,
        config=config, buffer_width=2,
    )


class TestAtomicIO:
    def test_write_and_replace(self, tmp_path):
        path = tmp_path / "f.json"
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        assert path.read_text() == "two"
        assert list(tmp_path.iterdir()) == [path]  # no temp litter

    def test_enospc_leaves_previous_bytes_intact(self, tmp_path):
        path = tmp_path / "f.json"
        atomic_write_text(path, "good", fault_prefix="cache")
        plan = FaultPlan([FaultSpec("cache.enospc", at_call=0)])
        with armed(plan):
            with pytest.raises(OSError) as ei:
                atomic_write_text(path, "never-lands", fault_prefix="cache")
        assert ei.value.errno == errno.ENOSPC
        assert path.read_text() == "good"
        assert list(tmp_path.iterdir()) == [path]

    def test_torn_write_truncates_payload(self, tmp_path):
        path = tmp_path / "f.bin"
        plan = FaultPlan([FaultSpec("cache.torn_write", at_call=0,
                                    payload={"keep_fraction": 0.25})])
        with armed(plan):
            atomic_write_bytes(path, b"x" * 100, fault_prefix="cache")
        assert path.read_bytes() == b"x" * 25

    def test_real_write_failure_cleans_temp(self, tmp_path, monkeypatch):
        """A genuine mid-write failure removes the temp and re-raises."""
        import os as os_mod

        path = tmp_path / "f.json"
        atomic_write_text(path, "good")
        real_fsync = os_mod.fsync

        def dying_fsync(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("repro.resilience.atomicio.os.fsync", dying_fsync)
        with pytest.raises(OSError):
            atomic_write_text(path, "torn")
        monkeypatch.setattr("repro.resilience.atomicio.os.fsync", real_fsync)
        assert path.read_text() == "good"
        assert list(tmp_path.iterdir()) == [path]


class TestCheckpointFaults:
    def test_enospc_preserves_previous_generations(self, tmp_path):
        sim = _make_sim()
        first = write_checkpoint(sim, tmp_path)
        sim.run(1)
        plan = FaultPlan([FaultSpec("checkpoint.enospc", at_call=0)])
        with armed(plan):
            with pytest.raises(OSError) as ei:
                write_checkpoint(sim, tmp_path)
        assert ei.value.errno == errno.ENOSPC
        assert list_checkpoints(tmp_path) == [first]
        verify_checkpoint(first)  # previous generation still pristine
        assert not list(tmp_path.glob(".tmp-*"))

    def test_torn_archive_fails_verification(self, tmp_path):
        sim = _make_sim()
        plan = FaultPlan([FaultSpec("checkpoint.torn_write", at_call=0,
                                    payload={"keep_fraction": 0.5})])
        with armed(plan):
            path = write_checkpoint(sim, tmp_path)
        whole = write_checkpoint(sim, tmp_path / "whole")
        assert path.stat().st_size < whole.stat().st_size  # really torn
        with pytest.raises(CheckpointCorruptError):
            verify_checkpoint(path)

    def test_restore_falls_back_past_torn_generation(self, tmp_path):
        """The newest generation tears; restore degrades to the previous."""
        sim = _make_sim()
        good = write_checkpoint(sim, tmp_path)
        good_step = sim.step_count
        sim.run(1)
        plan = FaultPlan([FaultSpec("checkpoint.torn_write", at_call=0)])
        with armed(plan):
            torn = write_checkpoint(sim, tmp_path)

        fresh = _make_sim()
        path, meta, skipped = restore_newest_verified(fresh, tmp_path)
        assert path == good
        assert [p for p, _ in skipped] == [torn]
        assert isinstance(skipped[0][1], CheckpointCorruptError)
        assert fresh.step_count == good_step
        assert meta["step"] == good_step

    def test_restore_raises_when_all_generations_torn(self, tmp_path):
        sim = _make_sim()
        plan = FaultPlan([FaultSpec("checkpoint.torn_write", at_call=0,
                                    count=10)])
        with armed(plan):
            write_checkpoint(sim, tmp_path)
        with pytest.raises(CheckpointCorruptError, match="no usable"):
            restore_newest_verified(_make_sim(), tmp_path)

    def test_save_checkpoint_enospc_keeps_previous_file(self, tmp_path):
        """A full disk while overwriting a single-file checkpoint leaves
        the previous file whole and verifiable."""
        sim = _make_sim()
        path = save_checkpoint(sim, tmp_path / "ck.npz")
        before = path.read_bytes()
        sim.run(1)
        plan = FaultPlan([FaultSpec("checkpoint.enospc", at_call=0)])
        with armed(plan):
            with pytest.raises(OSError) as ei:
                save_checkpoint(sim, path)
        assert ei.value.errno == errno.ENOSPC
        assert path.read_bytes() == before
        fresh = _make_sim()
        load_checkpoint(fresh, path)
        assert fresh.step_count == 0
        assert list(tmp_path.iterdir()) == [path]

    def test_each_site_arrives_once_per_write(self, tmp_path):
        sim = _make_sim()
        with armed(FaultPlan()) as probe:
            write_checkpoint(sim, tmp_path)
        for site in ("checkpoint.enospc", "checkpoint.torn_write",
                     "checkpoint.corrupt"):
            assert probe.calls(site) == 1, site

    def test_mid_write_kill_leaves_rotation_loadable(self, tmp_path):
        """A .tmp- file from a killed writer is invisible to the rotation."""
        sim = _make_sim()
        good = write_checkpoint(sim, tmp_path)
        litter = tmp_path / ".tmp-ckpt-00000099.npz"
        litter.write_bytes(b"half a checkpoint")
        assert list_checkpoints(tmp_path) == [good]
        fresh = _make_sim()
        path, _, skipped = restore_newest_verified(fresh, tmp_path)
        assert path == good
        assert skipped == []


class TestTuningCacheFaults:
    def _tunable(self):
        reg = default_registry()
        return reg.get(reg.ids()[0])

    def _populate(self, cache):
        t = self._tunable()
        cache.put(t, t.canonical_defaults(), speedup=1.5,
                  strategy="exhaustive", gate_error=0.0)

    def test_enospc_leaves_previous_cache_intact(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = TuningCache(path)
        self._populate(cache)
        cache.save()
        before = path.read_bytes()

        plan = FaultPlan([FaultSpec("cache.enospc", at_call=0)])
        with armed(plan):
            with pytest.raises(OSError) as ei:
                cache.save()
        assert ei.value.errno == errno.ENOSPC
        assert path.read_bytes() == before
        assert TuningCache(path).load_error is None  # still loads clean

    def test_torn_cache_degrades_to_empty_and_heals(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = TuningCache(path)
        self._populate(cache)
        plan = FaultPlan([FaultSpec("cache.torn_write", at_call=0)])
        with armed(plan):
            cache.save()  # publishes truncated JSON

        reloaded = TuningCache(path)
        assert reloaded.load_error is not None  # corruption surfaced
        assert len(reloaded) == 0  # treated as missing -> re-tune
        self._populate(reloaded)
        reloaded.save()  # next save heals the file
        healed = TuningCache(path)
        assert healed.load_error is None
        assert len(healed) == 1

    def test_session_survives_cache_enospc(self, tmp_path):
        """A full disk voids persistence, never the tuning that ran."""
        from repro.tuning.session import TuningSession

        cache = TuningCache(tmp_path / "cache.json")
        session = TuningSession(cache=cache)
        tid = default_registry().ids()[0]
        plan = FaultPlan([FaultSpec("cache.enospc", at_call=0, count=10)])
        with armed(plan):
            result = session.run(select=[tid], repeats=1)
        assert result.cache_save_error is not None
        assert "ENOSPC" in result.cache_save_error or \
            "No space left" in result.cache_save_error
        assert result.tuned == 1  # the winner still applied in-process
        assert not (tmp_path / "cache.json").exists()


class TestEventLogFaults:
    def test_enospc_disables_mirror_keeps_memory(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = ResilienceLog(path)
        log.record("checkpoint", step=1)
        plan = FaultPlan([FaultSpec("eventlog.enospc", at_call=0)])
        with armed(plan):
            log.record("fault", step=2)  # mirror write fails
        log.record("restore", step=2)  # mirroring now off, still recorded

        kinds = [e["event"] for e in log.events]
        assert kinds == ["checkpoint", "fault", "log_write_failed", "restore"]
        assert log.count("log_write_failed") == 1
        # The file holds only what landed before the disk filled.
        on_disk = read_event_log(path)
        assert [e["event"] for e in on_disk] == ["checkpoint"]

    def test_torn_line_skipped_on_readback(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = ResilienceLog(path)
        log.record("checkpoint", step=1)
        plan = FaultPlan([FaultSpec("eventlog.torn_write", at_call=0)])
        with armed(plan):
            log.record("fault", step=2)  # line torn mid-append
        log.record("restore", step=2)

        events = read_event_log(path)
        kinds = [e["event"] for e in events]
        # The torn "fault" line (and the "restore" line glued onto its
        # tail) fail to decode; the intact prefix survives.
        assert "checkpoint" in kinds
        assert len(events) < 3
        # In-memory record is complete regardless.
        assert [e["event"] for e in log.events] == \
            ["checkpoint", "fault", "restore"]

    def test_read_event_log_missing_file(self, tmp_path):
        assert read_event_log(tmp_path / "absent.jsonl") == []
