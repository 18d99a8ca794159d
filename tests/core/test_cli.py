"""CLI subcommand tests (invoked in-process)."""

import json
import shutil

import pytest

from repro.cli import build_parser, main

from tests.resilience.test_archive import flip_member_byte

TINY_RUN = ["run", "--grid", "12", "--steps", "1", "--n-qd", "3"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.grid == 16
        assert args.steps == 5


class TestInfo:
    def test_info_prints_models(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "A100" in out
        assert "Polaris" in out


class TestRun:
    def test_short_run(self, capsys):
        code = main(["run", "--steps", "1", "--n-qd", "5", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "E_band" in out

    def test_run_with_checkpoint_and_restart(self, tmp_path, capsys):
        ckpt = str(tmp_path / "c.npz")
        assert main(["run", "--steps", "1", "--n-qd", "5",
                     "--checkpoint", ckpt]) == 0
        assert main(["run", "--steps", "1", "--n-qd", "5",
                     "--restart", ckpt]) == 0
        out = capsys.readouterr().out
        assert "restarted" in out

    @pytest.fixture(scope="class")
    def good_checkpoint(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ck") / "ck.npz"
        assert main(TINY_RUN + ["--checkpoint", str(path)]) == 0
        return path

    @staticmethod
    def _assert_clean_error(capsys, code, name):
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and name in err
        assert "Traceback" not in err

    def test_restart_from_flipped_byte_fails_cleanly(
            self, good_checkpoint, tmp_path, capsys):
        bad = tmp_path / "flipped.npz"
        shutil.copy(good_checkpoint, bad)
        flip_member_byte(bad, "psi_0.npy")
        code = main(TINY_RUN + ["--restart", str(bad)])
        self._assert_clean_error(capsys, code, "flipped.npz")

    def test_restart_from_truncated_file_fails_cleanly(
            self, good_checkpoint, tmp_path, capsys):
        raw = good_checkpoint.read_bytes()
        bad = tmp_path / "torn.npz"
        bad.write_bytes(raw[: len(raw) // 2])
        code = main(TINY_RUN + ["--restart", str(bad)])
        self._assert_clean_error(capsys, code, "torn.npz")

    def test_restart_from_all_corrupt_rotation_fails_cleanly(
            self, good_checkpoint, tmp_path, capsys):
        ckdir = tmp_path / "rotation"
        ckdir.mkdir()
        for step in (0, 1):
            bad = ckdir / f"ckpt-{step:08d}.npz"
            shutil.copy(good_checkpoint, bad)
            flip_member_byte(bad, "psi_0.npy")
        code = main(TINY_RUN + ["--restart", str(ckdir)])
        self._assert_clean_error(capsys, code, "rotation")

    def test_excite_flag(self, capsys):
        assert main(["run", "--steps", "1", "--n-qd", "5", "--excite"]) == 0


class TestScaling:
    def test_weak_only(self, capsys):
        assert main(["scaling", "--mode", "weak"]) == 0
        out = capsys.readouterr().out
        assert "weak scaling" in out
        assert "strong" not in out

    def test_both(self, capsys):
        assert main(["scaling"]) == 0
        out = capsys.readouterr().out
        assert "5120" in out


class TestSpectrum:
    def test_spectrum_runs(self, capsys):
        assert main(["spectrum", "--grid", "8", "--steps", "200",
                     "--norb", "3"]) == 0
        out = capsys.readouterr().out
        assert "KS levels" in out
        assert "absorption peaks" in out


class TestBadTuningProfile:
    """An unusable ``--tuning-profile`` is bad input: exit 1, an
    ``error:`` line naming the file, and no traceback, on every
    subcommand that takes the flag."""

    COMMANDS = {
        "run": TINY_RUN,
        "spectrum": ["spectrum", "--grid", "8", "--steps", "5",
                     "--norb", "2"],
        "ensemble": ["ensemble", "--ntraj", "4", "--nsteps", "3"],
    }

    @pytest.fixture(autouse=True)
    def _restore_profile(self):
        from repro.tuning import set_active_profile
        from repro.tuning.profile import get_active_profile

        before = get_active_profile()
        yield
        set_active_profile(before)

    def _run(self, capsys, cmd, profile):
        code = main(self.COMMANDS[cmd] + ["--tuning-profile", str(profile)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and profile.name in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("cmd", sorted(COMMANDS))
    def test_truncated_profile(self, cmd, tmp_path, capsys):
        from repro.tuning import TuningProfile

        good = tmp_path / "good.json"
        TuningProfile({"lfd.kin_prop": {"variant": "blocked"}}).save(good)
        torn = tmp_path / "torn.json"
        torn.write_bytes(good.read_bytes()[:20])
        self._run(capsys, cmd, torn)

    @pytest.mark.parametrize("cmd", sorted(COMMANDS))
    def test_missing_profile(self, cmd, tmp_path, capsys):
        self._run(capsys, cmd, tmp_path / "absent.json")

    @pytest.mark.parametrize("cmd", sorted(COMMANDS))
    def test_unknown_parameter(self, cmd, tmp_path, capsys):
        """A profile naming a parameter this code lacks, such as the
        ``backend`` of ``lfd.nonlocal`` (the nonlocal correction runs
        on NumPy only), is refused, not silently ignored."""
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps({
            "source": "stale",
            "overrides": {"lfd.nonlocal": {"variant": "blas",
                                           "orb_block": 16,
                                           "backend": "numpy"}},
        }))
        self._run(capsys, cmd, stale)
