"""Hardened-checkpoint tests: atomicity, integrity, rotation, round-trip."""

import json
import zipfile

import numpy as np
import pytest

from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.resilience.checkpointing import (
    CheckpointCorruptError,
    checkpoint_path,
    list_checkpoints,
    load_verified,
    sidecar_path,
    verify_checkpoint,
    write_checkpoint,
)

from tests.core.test_mesh import make_sim


@pytest.fixture(scope="module")
def warm_sim():
    """One simulation advanced two steps (shared, read-only per test)."""
    sim = make_sim(seed=13)
    sim.excite_carrier(0)
    sim.run(2)
    return sim


class TestWriteAndVerify:
    def test_write_publishes_archive_and_sidecar(self, warm_sim, tmp_path):
        path = write_checkpoint(warm_sim, tmp_path)
        assert path == checkpoint_path(tmp_path, warm_sim.step_count)
        assert path.is_file()
        meta = json.loads(sidecar_path(path).read_text())
        assert meta["step"] == warm_sim.step_count
        assert meta["time"] == pytest.approx(warm_sim.time)
        assert len(meta["sha256"]) == 64

    def test_no_temporary_files_left(self, warm_sim, tmp_path):
        write_checkpoint(warm_sim, tmp_path)
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp")]
        assert leftovers == []

    def test_verify_accepts_good_checkpoint(self, warm_sim, tmp_path):
        path = write_checkpoint(warm_sim, tmp_path)
        meta = verify_checkpoint(path)
        assert meta["step"] == warm_sim.step_count

    def test_verify_detects_corruption(self, warm_sim, tmp_path):
        path = write_checkpoint(warm_sim, tmp_path)
        raw = bytearray(path.read_bytes())
        raw[100] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruptError, match="integrity"):
            verify_checkpoint(path)

    def test_verify_requires_sidecar(self, warm_sim, tmp_path):
        path = write_checkpoint(warm_sim, tmp_path)
        sidecar_path(path).unlink()
        with pytest.raises(CheckpointCorruptError, match="sidecar"):
            verify_checkpoint(path)

    def test_missing_archive_reported(self, tmp_path):
        with pytest.raises(CheckpointCorruptError, match="does not exist"):
            verify_checkpoint(tmp_path / "ckpt-00000001.npz")

    def test_corruption_fault_site_defeats_digest(self, warm_sim, tmp_path):
        from repro.resilience.faults import FaultPlan, FaultSpec, armed

        with armed(FaultPlan([FaultSpec("checkpoint.corrupt")])):
            path = write_checkpoint(warm_sim, tmp_path)
        with pytest.raises(CheckpointCorruptError):
            verify_checkpoint(path)


class TestRotation:
    def test_keeps_last_k_generations(self, tmp_path):
        sim = make_sim(seed=3)
        write_checkpoint(sim, tmp_path, keep=2)
        for _ in range(3):
            sim.md_step()
            write_checkpoint(sim, tmp_path, keep=2)
        kept = list_checkpoints(tmp_path)
        assert [p.name for p in kept] == ["ckpt-00000002.npz", "ckpt-00000003.npz"]
        # Sidecars rotate with their archives.
        sidecars = sorted(p.name for p in tmp_path.glob("*.json"))
        assert sidecars == ["ckpt-00000002.npz.json", "ckpt-00000003.npz.json"]

    def test_list_is_ordered_oldest_first(self, tmp_path):
        sim = make_sim(seed=3)
        write_checkpoint(sim, tmp_path, keep=5)
        sim.md_step()
        write_checkpoint(sim, tmp_path, keep=5)
        steps = [int(p.name[5:13]) for p in list_checkpoints(tmp_path)]
        assert steps == sorted(steps)

    def test_empty_directory(self, tmp_path):
        assert list_checkpoints(tmp_path) == []
        assert list_checkpoints(tmp_path / "missing") == []


class TestRoundtripProperty:
    def test_restart_bit_identical_including_rng(self, tmp_path):
        """2 + restore + 2 equals 4 straight: positions, orbitals, RNG."""
        ref = make_sim(seed=21)
        ref.excite_carrier(0)
        ref.run(4)

        work = make_sim(seed=21)
        work.excite_carrier(0)
        work.run(2)
        path = write_checkpoint(work, tmp_path)

        resumed = make_sim(seed=21)
        resumed.rng.random()  # desynchronize on purpose; restore must fix it
        meta = load_verified(resumed, path)
        assert meta["step"] == 2
        resumed.run(2)

        assert np.array_equal(resumed.md_state.positions, ref.md_state.positions)
        assert np.array_equal(resumed.md_state.velocities, ref.md_state.velocities)
        for a, b in zip(resumed.dc.states, ref.dc.states):
            assert np.array_equal(a.occupations, b.occupations)
            assert np.array_equal(a.wf.psi, b.wf.psi)
        assert resumed.rng.random() == ref.rng.random()


class TestLoadValidatesBeforeApply:
    def _tampered_copy(self, src, dst, **overrides):
        with np.load(src, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        arrays.update(overrides)
        np.savez_compressed(dst, **arrays)
        return dst

    def test_bad_domain_shape_leaves_sim_untouched(self, warm_sim, tmp_path):
        """A mid-archive shape mismatch must not half-restore the sim."""
        good = save_checkpoint(warm_sim, tmp_path / "good.npz")
        bad = self._tampered_copy(
            good, tmp_path / "bad.npz", occ_1=np.zeros(17)
        )
        victim = make_sim(seed=99)
        victim.excite_carrier(0)
        before_pos = victim.md_state.positions.copy()
        before_step = victim.step_count
        before_psi = victim.dc.states[0].wf.psi.copy()
        before_rng = victim.rng.bit_generator.state
        with pytest.raises(ValueError, match="occupation shape"):
            load_checkpoint(victim, bad)
        # Nothing -- not even the early arrays -- was applied.
        assert np.array_equal(victim.md_state.positions, before_pos)
        assert victim.step_count == before_step
        assert np.array_equal(victim.dc.states[0].wf.psi, before_psi)
        assert victim.rng.bit_generator.state == before_rng
        assert victim.carriers  # pre-existing carriers were not cleared

    def test_flipped_orbital_byte_fails_plain_load(self, warm_sim, tmp_path):
        """The unverified path still detects a flipped byte: the stored
        archive's members carry a CRC-32 that the load checks."""
        path = save_checkpoint(warm_sim, tmp_path / "ck.npz")
        with zipfile.ZipFile(path) as zf:
            info = zf.getinfo("psi_0.npy")
        assert info.compress_type == zipfile.ZIP_STORED
        raw = bytearray(path.read_bytes())
        # Member data follows the 30-byte local header, the name and the
        # extra field; flip one byte in the middle of the orbital data.
        hdr = info.header_offset
        name_len = int.from_bytes(raw[hdr + 26:hdr + 28], "little")
        extra_len = int.from_bytes(raw[hdr + 28:hdr + 30], "little")
        raw[hdr + 30 + name_len + extra_len + info.compress_size // 2] ^= 0x01
        path.write_bytes(bytes(raw))

        victim = make_sim(seed=99)
        victim.excite_carrier(0)

        def state(sim):
            arrays = [sim.md_state.positions, sim.md_state.velocities]
            for st in sim.dc.states:
                arrays += [st.wf.psi, st.occupations, st.eigenvalues, st.vloc]
            for carriers in sim.carriers.values():
                arrays += [c.amplitudes for c in carriers]
            return ([a.copy() for a in arrays], sim.step_count, sim.time,
                    json.dumps(sim.rng.bit_generator.state))

        before = state(victim)
        with pytest.raises(zipfile.BadZipFile, match="CRC"):
            load_checkpoint(victim, path)
        after = state(victim)
        assert after[1:] == before[1:]
        assert len(after[0]) == len(before[0])
        for a, b in zip(after[0], before[0]):
            assert np.array_equal(a.view(np.uint8), b.view(np.uint8))

    def test_missing_domain_array_detected(self, warm_sim, tmp_path):
        good = save_checkpoint(warm_sim, tmp_path / "good.npz")
        with np.load(good, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files if k != "vloc_1"}
        bad = tmp_path / "missing.npz"
        np.savez_compressed(bad, **arrays)
        victim = make_sim(seed=99)
        before_pos = victim.md_state.positions.copy()
        with pytest.raises(ValueError, match="missing array"):
            load_checkpoint(victim, bad)
        assert np.array_equal(victim.md_state.positions, before_pos)

    def test_carrier_out_of_range_detected(self, warm_sim, tmp_path):
        good = save_checkpoint(warm_sim, tmp_path / "good.npz")
        bad = self._tampered_copy(
            good, tmp_path / "badc.npz",
            carrier_0_0=np.zeros(3, dtype=complex),
        )
        victim = make_sim(seed=99)
        with pytest.raises(ValueError, match="amplitude shape"):
            load_checkpoint(victim, bad)
