"""Checkpoint/restart tests: restarted trajectories are identical."""

import zipfile

import numpy as np
import pytest

from repro.core.checkpoint import save_checkpoint, load_checkpoint

from tests.core.test_mesh import make_sim


class TestRoundtrip:
    def test_restart_continues_identically(self, tmp_path):
        """Run 4 steps straight vs 2 + checkpoint + 2: identical."""
        ref = make_sim(seed=5)
        ref.excite_carrier(0)
        ref.run(2)
        ckpt = tmp_path / "state.npz"

        work = make_sim(seed=5)
        work.excite_carrier(0)
        work.run(2)
        save_checkpoint(work, ckpt)

        ref.run(2)  # straight-through reference

        resumed = make_sim(seed=5)
        load_checkpoint(resumed, ckpt)
        resumed.run(2)

        assert np.array_equal(resumed.md_state.positions, ref.md_state.positions)
        assert np.array_equal(resumed.md_state.velocities, ref.md_state.velocities)
        assert resumed.time == pytest.approx(ref.time)
        for a, b in zip(resumed.dc.states, ref.dc.states):
            assert np.allclose(a.occupations, b.occupations)

    def test_state_fields_restored(self, tmp_path):
        sim = make_sim(seed=9)
        sim.excite_carrier(0)
        sim.run(1)
        ckpt = save_checkpoint(sim, tmp_path / "s.npz")

        fresh = make_sim(seed=9)
        load_checkpoint(fresh, ckpt)
        assert fresh.step_count == 1
        assert fresh.time == pytest.approx(sim.time)
        assert 0 in fresh.carriers
        assert fresh.carriers[0][0].active == sim.carriers[0][0].active
        assert np.array_equal(
            fresh.dc.states[0].wf.psi, sim.dc.states[0].wf.psi
        )

    def test_rng_state_restored(self, tmp_path):
        sim = make_sim(seed=2)
        sim.run(1)
        ckpt = save_checkpoint(sim, tmp_path / "s.npz")
        draw_ref = sim.rng.random()

        fresh = make_sim(seed=2)
        fresh.rng.random()  # desynchronize on purpose
        load_checkpoint(fresh, ckpt)
        assert fresh.rng.random() == draw_ref


class TestValidation:
    def test_atom_count_mismatch(self, tmp_path):
        sim = make_sim()
        ckpt = save_checkpoint(sim, tmp_path / "s.npz")
        other = make_sim()
        other.md_state.positions = np.zeros((3, 3))
        with pytest.raises(ValueError, match="atom count"):
            load_checkpoint(other, ckpt)

    def test_domain_count_mismatch(self, tmp_path, monkeypatch):
        sim = make_sim()
        ckpt = save_checkpoint(sim, tmp_path / "s.npz")
        other = make_sim()
        other.dc.states.pop()
        with pytest.raises(ValueError, match="domains"):
            load_checkpoint(other, ckpt)

    def test_file_is_stored_npz(self, tmp_path):
        sim = make_sim()
        ckpt = save_checkpoint(sim, tmp_path / "s.npz")
        assert ckpt.exists()
        assert ckpt.stat().st_size > 0
        with np.load(ckpt) as data:
            assert "positions" in data
        # Stored, not deflated: orbital mantissas barely compress.
        with zipfile.ZipFile(ckpt) as zf:
            assert {i.compress_type for i in zf.infolist()} == {zipfile.ZIP_STORED}
