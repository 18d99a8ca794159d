"""Coalescing correctness: stacked groups are bitwise-equal to solo runs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ensemble import EnsembleConfig, EnsembleRun, model_path, run_ensemble
from repro.ensemble.engine import EnsembleMember, pack_segments
from repro.parallel.executor import chunk_slices
from repro.qxmd.sh_kernels import HopPolicy
from repro.resilience.checkpointing import CheckpointCorruptError
from repro.serve.daemon import run_group_supervised

PATH = model_path(nsteps=12, nstates=4, dt=1.0, seed=11, coupling=0.12)
POLICY = HopPolicy()


def group(members, batch_size=None, round_size=None):
    """A coalesced group: one run with ``members`` on its stacked axis."""
    return EnsembleRun(
        PATH, EnsembleConfig(policy=POLICY, batch_size=batch_size),
        round_size=round_size, members=members,
    )


def run_group(members, batch_size=None):
    with group(members, batch_size) as g:
        g.run()
        return g.results()


def solo(ntraj, seed, istate, batch_size=4):
    return run_ensemble(
        PATH,
        EnsembleConfig(ntraj=ntraj, seed=seed, istate=istate,
                       batch_size=batch_size),
    )


class TestPackSegments:
    def test_small_jobs_share_a_task(self):
        members = [EnsembleMember(3, 1, 10), EnsembleMember(3, 2, 20)]
        tasks = pack_segments(members, batch_size=8)
        assert len(tasks) == 1
        assert [(s.lo, s.hi, s.local_lo) for s in tasks[0]] == [
            (0, 3, 0), (3, 6, 0)
        ]

    def test_wide_job_splits_with_local_offsets(self):
        tasks = pack_segments([EnsembleMember(10, 0, 5)], batch_size=4)
        assert [(s.lo, s.hi, s.local_lo) for t in tasks for s in t] == [
            (0, 4, 0), (4, 8, 4), (8, 10, 8)
        ]

    def test_mixed_fill(self):
        members = [EnsembleMember(3, 0, 1), EnsembleMember(6, 1, 2)]
        tasks = pack_segments(members, batch_size=4)
        # task 0: [3 rows of m0][1 row of m1]; task 1: 4 rows; task 2: 1.
        assert [sum(s.hi - s.lo for s in t) for t in tasks] == [4, 4, 1]
        first = tasks[0]
        assert first[0].seed == 1 and first[1].seed == 2
        assert first[1].local_lo == 0 and tasks[1][0].local_lo == 1

    def test_total_rows_conserved(self):
        members = [EnsembleMember(n, 0, n) for n in (1, 7, 4, 9)]
        tasks = pack_segments(members, batch_size=5)
        rows = sorted(
            (s.seed, s.local_lo + i)
            for t in tasks for s in t for i in range(s.hi - s.lo)
        )
        want = sorted((m.seed, i) for m in members for i in range(m.ntraj))
        assert rows == want

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            pack_segments([EnsembleMember(2, 0, 1)], batch_size=0)

    @pytest.mark.parametrize("ntraj,batch_size", [(10, 4), (8, 8), (3, 5)])
    def test_one_member_packs_like_chunk_slices(self, ntraj, batch_size):
        tasks = pack_segments([EnsembleMember(ntraj, 0, 1)], batch_size)
        assert [(s.lo, s.hi) for t in tasks for s in t] == \
            chunk_slices(ntraj, batch_size)
        assert all(len(t) == 1 and t[0].local_lo == t[0].lo for t in tasks)


def assert_member_matches_solo(member_result, solo_result):
    """Bitwise equality of every trace a coalesced member hands back."""
    assert np.array_equal(member_result.hops, solo_result.hops)
    assert np.array_equal(member_result.final_active,
                          solo_result.final_active)
    assert np.array_equal(member_result.stats.pop_mean,
                          solo_result.stats.pop_mean)
    assert np.array_equal(member_result.stats.pop_stderr,
                          solo_result.stats.pop_stderr)
    assert np.array_equal(member_result.stats.active_fraction,
                          solo_result.stats.active_fraction)


class TestGroupEquivalence:
    def test_mixed_members_bitwise_equal_to_solo_runs(self):
        """The coalescing contract: stacking jobs with different seeds,
        widths and initial states changes nothing about any one job."""
        members = [
            EnsembleMember(ntraj=6, istate=3, seed=101),
            EnsembleMember(ntraj=3, istate=1, seed=202),
            EnsembleMember(ntraj=5, istate=3, seed=303),
        ]
        results = run_group(members, batch_size=4)
        for member, res in zip(members, results):
            assert_member_matches_solo(
                res, solo(member.ntraj, member.seed, member.istate)
            )

    def test_batch_size_invariance_of_the_group_itself(self):
        members = [EnsembleMember(4, 2, 7), EnsembleMember(4, 0, 9)]
        wide = run_group(members, batch_size=8)
        narrow = run_group(members, batch_size=3)
        for a, b in zip(wide, narrow):
            assert np.array_equal(a.populations, b.populations)
            assert np.array_equal(a.hops, b.hops)
            assert np.array_equal(a.final_amplitudes, b.final_amplitudes)

    def test_istate_validated_against_path(self):
        with pytest.raises(ValueError, match="istate"):
            group([EnsembleMember(2, 9, 1)])

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            group([])

    def test_results_before_completion_rejected(self):
        with group([EnsembleMember(4, 0, 1)], batch_size=2) as g:
            with pytest.raises(RuntimeError, match="incomplete"):
                g.results()


class TestRounds:
    def test_round_records(self):
        with group([EnsembleMember(8, 0, 5)], batch_size=2,
                   round_size=3) as g:
            assert len(g.batches) == 4
            assert g.rounds_remaining == 2
            rec = g.md_step()
            assert (rec.step, rec.batches_run, rec.batches_done) == (1, 3, 3)
            rec = g.md_step()
            assert (rec.batches_run, rec.batches_done,
                    rec.batches_total) == (1, 4, 4)
            assert g.complete
            assert g.rounds_remaining == 0


class TestCheckpoint:
    MEMBERS = [EnsembleMember(4, 3, 7), EnsembleMember(2, 1, 8)]

    def test_round_trip_resumes_bitwise(self, tmp_path):
        ckpt = tmp_path / "group.npz"
        with group(self.MEMBERS, batch_size=2, round_size=1) as half:
            half.md_step()
            half.save_state(ckpt)

        with group(self.MEMBERS, batch_size=2, round_size=1) as resumed:
            resumed.load_state(ckpt)
            assert resumed.step_count == 1
            assert np.array_equal(resumed.done, half.done)
            resumed.run()
            results = resumed.results()

        straight = run_group(self.MEMBERS, batch_size=2)
        for a, b in zip(results, straight):
            assert np.array_equal(a.populations, b.populations)
            assert np.array_equal(a.hops, b.hops)

    def test_fingerprint_mismatch_detected(self, tmp_path):
        ckpt = tmp_path / "group.npz"
        with group(self.MEMBERS, batch_size=2) as g:
            g.save_state(ckpt)
        other = [EnsembleMember(4, 3, 7), EnsembleMember(2, 1, 9)]
        with group(other, batch_size=2) as g:
            with pytest.raises(CheckpointCorruptError, match="fingerprint"):
                g.load_state(ckpt)

    def test_supervised_group_equals_unsupervised(self, tmp_path):
        members = [EnsembleMember(5, 2, 31), EnsembleMember(3, 0, 32)]
        with group(members, batch_size=3) as g:
            supervised = run_group_supervised(g, tmp_path / "ck")
        plain = run_group(members, batch_size=3)
        for a, b in zip(supervised, plain):
            assert np.array_equal(a.populations, b.populations)
            assert np.array_equal(a.final_active, b.final_active)
        for member, res in zip(members, supervised):
            assert_member_matches_solo(
                res, solo(member.ntraj, member.seed, member.istate,
                          batch_size=3)
            )
