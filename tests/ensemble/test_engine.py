"""EnsembleRun engine tests: rounds, checkpoint/resume, supervision."""

import dataclasses

import numpy as np
import pytest

from repro.ensemble import (
    EnsembleConfig,
    EnsembleRun,
    model_path,
    resolve_batch_size,
    run_ensemble,
)
from repro.ensemble.engine import EnsembleMember
from repro.qxmd.sh_kernels import HopPolicy
from repro.resilience.checkpointing import (
    CheckpointCorruptError,
    restore_newest_verified,
)
from repro.resilience.supervisor import RunSupervisor, SupervisorConfig

PATH = model_path(nsteps=20, nstates=4, dt=1.0, seed=11, coupling=0.12)


def reference_result():
    return run_ensemble(PATH, EnsembleConfig(ntraj=16, seed=44, batch_size=4))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleConfig(ntraj=0)
        with pytest.raises(ValueError):
            EnsembleConfig(substeps=0)
        with pytest.raises(ValueError):
            EnsembleConfig(batch_size=0)
        with pytest.raises(ValueError):
            EnsembleConfig(istate=-1)

    def test_istate_range_checked_against_path(self):
        with pytest.raises(ValueError, match="istate"):
            EnsembleRun(PATH, EnsembleConfig(istate=7))

    def test_resolve_batch_size_explicit(self):
        assert resolve_batch_size(EnsembleConfig(batch_size=5)) == 5

    def test_resolve_batch_size_from_profile_default(self):
        # With no tuning cache applied the profile falls back to the
        # canonical default table.
        assert resolve_batch_size(EnsembleConfig()) == 256


class TestPacking:
    def test_a_serial_group_is_one_task_and_one_round(self):
        """A served ensemble group's shape: 3 jobs x 16 trajectories."""
        members = [EnsembleMember(16, 3, seed) for seed in (1, 2, 3)]
        with EnsembleRun(PATH, EnsembleConfig(), members=members) as run:
            assert run.batch_size == 48
            assert len(run.batches) == 1
            assert run.rounds_remaining == 1

    def test_each_worker_of_a_round_gets_a_task(self):
        with EnsembleRun(PATH, EnsembleConfig(ntraj=256), backend="thread",
                         workers=2) as run:
            assert run.batch_size == 128
            assert [sum(seg.hi - seg.lo for seg in task)
                    for task in run.batches] == [128, 128]
            assert run.rounds_remaining == 1

    def test_batch_size_caps_the_width(self):
        with EnsembleRun(PATH, EnsembleConfig(ntraj=48, batch_size=8)) as run:
            assert len(run.batches) == 6
        with EnsembleRun(PATH, EnsembleConfig(ntraj=600)) as run:
            assert [sum(seg.hi - seg.lo for seg in task)
                    for task in run.batches] == [256, 256, 88]

    def test_checkpoint_fingerprint_carries_the_width(self, tmp_path):
        ckpt = tmp_path / "partial.npz"
        with EnsembleRun(PATH, EnsembleConfig(ntraj=16, seed=44)) as run:
            run.save_state(ckpt)
        with EnsembleRun(PATH, EnsembleConfig(ntraj=16, seed=44),
                         round_size=2) as run:
            assert run.batch_size == 8
            with pytest.raises(CheckpointCorruptError, match="fingerprint"):
                run.load_state(ckpt)


class TestRounds:
    def test_round_records_and_completion(self):
        with EnsembleRun(PATH,
                         EnsembleConfig(ntraj=16, seed=44, batch_size=4),
                         round_size=3) as run:
            assert run.rounds_remaining == 2   # ceil(4 batches / 3)
            rec1 = run.md_step()
            assert rec1.batches_run == 3
            assert rec1.batches_done == 3
            assert rec1.batches_total == 4
            assert not run.complete
            rec2 = run.md_step()
            assert rec2.batches_run == 1
            assert run.complete
            assert run.history == [rec1, rec2]

    def test_noop_round_after_completion(self):
        """The supervisable contract: md_step past completion is a no-op
        that still advances step_count (so segment accounting works)."""
        with EnsembleRun(PATH, EnsembleConfig(ntraj=8, seed=44,
                                              batch_size=8)) as run:
            run.run()
            steps = run.step_count
            rec = run.md_step()
            assert rec.batches_run == 0
            assert run.step_count == steps + 1
            assert np.array_equal(run.result().hops,
                                  reference_result().hops[:8])

    def test_result_raises_while_incomplete(self):
        with EnsembleRun(PATH, EnsembleConfig(ntraj=16, seed=44,
                                              batch_size=4)) as run:
            with pytest.raises(RuntimeError, match="incomplete"):
                run.result()

    def test_run_wrapper_equals_manual_rounds(self):
        ref = reference_result()
        with EnsembleRun(PATH, EnsembleConfig(ntraj=16, seed=44,
                                              batch_size=4),
                         round_size=1) as run:
            while not run.complete:
                run.md_step()
            got = run.result()
        assert np.array_equal(ref.populations, got.populations)
        assert np.array_equal(ref.hops, got.hops)


class TestCheckpointResume:
    def make_run(self, **kwargs):
        return EnsembleRun(
            PATH, EnsembleConfig(ntraj=16, seed=44, batch_size=4),
            round_size=1, **kwargs,
        )

    def test_save_load_roundtrip_mid_run(self, tmp_path):
        ref = reference_result()
        ck = tmp_path / "partial.npz"
        with self.make_run() as run:
            run.md_step()
            run.md_step()
            run.save_state(ck)
        with self.make_run() as resumed:
            resumed.load_state(ck)
            assert int(np.count_nonzero(resumed.done)) == 2
            got = resumed.run()
        assert np.array_equal(ref.populations, got.populations)
        assert np.array_equal(ref.actives, got.actives)
        assert np.array_equal(ref.hops, got.hops)
        assert np.array_equal(ref.final_amplitudes, got.final_amplitudes)

    def test_fingerprint_mismatch_raises_corrupt(self, tmp_path):
        ck = tmp_path / "partial.npz"
        with self.make_run() as run:
            run.md_step()
            run.save_state(ck)
        other = EnsembleRun(PATH, EnsembleConfig(ntraj=16, seed=45,
                                                 batch_size=4))
        with pytest.raises(CheckpointCorruptError, match="fingerprint"):
            other.load_state(ck)
        other.close()

    def test_policy_in_fingerprint(self, tmp_path):
        ck = tmp_path / "partial.npz"
        with self.make_run() as run:
            run.md_step()
            run.save_state(ck)
        other = EnsembleRun(
            PATH,
            EnsembleConfig(ntraj=16, seed=44, batch_size=4,
                           policy=HopPolicy(dec_correction="edc")),
        )
        with pytest.raises(CheckpointCorruptError, match="fingerprint"):
            other.load_state(ck)
        other.close()

    def test_shape_mismatch_raises_corrupt(self, tmp_path):
        """Same fingerprint fields but a different path length is caught
        by the shape gate before any state is spliced in."""
        ck = tmp_path / "partial.npz"
        with self.make_run() as run:
            run.md_step()
            run.save_state(ck)
        short = dataclasses.replace(
            PATH, energies=PATH.energies[:10], nac=PATH.nac[:10],
            kinetic=PATH.kinetic[:10],
        )
        other = EnsembleRun(short, EnsembleConfig(ntraj=16, seed=44,
                                                  batch_size=4))
        with pytest.raises(CheckpointCorruptError):
            other.load_state(ck)
        other.close()


class TestSupervised:
    def test_supervised_run_completes(self, tmp_path):
        ref = reference_result()
        with self.make_supervised(tmp_path) as run:
            sup = RunSupervisor(run, tmp_path / "ck",
                                SupervisorConfig(checkpoint_every=1))
            sup.run(run.rounds_remaining)
            got = run.result()
        assert np.array_equal(ref.populations, got.populations)
        assert (tmp_path / "ck").exists()

    def test_crash_resume_through_supervisor(self, tmp_path):
        """Partial supervised run, fresh process simulated by a fresh
        EnsembleRun: restore the newest checkpoint *then* supervise the
        remainder -- bitwise identical to an uninterrupted run."""
        ref = reference_result()
        ckdir = tmp_path / "ck"
        with self.make_supervised(tmp_path) as run:
            sup = RunSupervisor(run, ckdir,
                                SupervisorConfig(checkpoint_every=1))
            sup.run(2)   # 2 of 4 rounds, then "crash"
            assert not run.complete
        with self.make_supervised(tmp_path) as fresh:
            restore_newest_verified(fresh, ckdir)
            assert int(np.count_nonzero(fresh.done)) == 2
            sup = RunSupervisor(fresh, ckdir,
                                SupervisorConfig(checkpoint_every=1))
            sup.run(fresh.rounds_remaining)
            got = fresh.result()
        assert np.array_equal(ref.populations, got.populations)
        assert np.array_equal(ref.actives, got.actives)
        assert np.array_equal(ref.hops, got.hops)
        assert np.array_equal(ref.ke_factor, got.ke_factor)

    def make_supervised(self, tmp_path):
        return EnsembleRun(
            PATH, EnsembleConfig(ntraj=16, seed=44, batch_size=4),
            round_size=1,
        )
