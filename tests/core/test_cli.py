"""CLI subcommand tests (invoked in-process)."""

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
