"""The verified archive: one writer, one verifying reader, no bypass."""

from __future__ import annotations

import ast
import errno
import hashlib
import json
import pathlib
import zipfile

import numpy as np
import pytest

import repro
from repro.resilience.atomicio import (
    CheckpointCorruptError,
    read_archive,
    write_archive,
)
from repro.resilience.faults import FaultPlan, FaultSpec, armed

ARRAYS = {
    "psi": (np.arange(24.0) + 1j).reshape(2, 3, 4),
    "fortran": np.asfortranarray(np.arange(6.0).reshape(2, 3)),
    "scalar": np.array(3.5),
    "empty": np.zeros(0, dtype=np.int64),
    "mask": np.array([True, False, True]),
}


def _write(path, **kw):
    return write_archive(path, ARRAYS, {"step_count": 3}, "test.v1", **kw)


def flip_member_byte(path, member):
    """Flip one byte in the middle of ``member``'s stored data."""
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(member)
    raw = bytearray(path.read_bytes())
    hdr = info.header_offset
    name_len = int.from_bytes(raw[hdr + 26:hdr + 28], "little")
    extra_len = int.from_bytes(raw[hdr + 28:hdr + 30], "little")
    raw[hdr + 30 + name_len + extra_len + info.compress_size // 2] ^= 0x01
    path.write_bytes(bytes(raw))


class TestRoundTrip:
    def test_arrays_and_meta_round_trip_bitwise(self, tmp_path):
        arrays, meta = read_archive(_write(tmp_path / "a.npz"), "test.v1")
        assert meta == {"step_count": 3}
        assert sorted(arrays) == sorted(ARRAYS)
        for name, want in ARRAYS.items():
            got = arrays[name]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    def test_stored_npz_that_numpy_still_opens(self, tmp_path):
        path = _write(tmp_path / "a.npz")
        with zipfile.ZipFile(path) as zf:
            infos = zf.infolist()
        assert infos[0].filename == "__meta__.json"
        assert {i.compress_type for i in infos} == {zipfile.ZIP_STORED}
        with np.load(path) as data:
            assert np.array_equal(data["psi"], ARRAYS["psi"])

    def test_bytes_do_not_depend_on_the_wall_clock(self, tmp_path,
                                                   monkeypatch):
        first = _write(tmp_path / "a.npz").read_bytes()
        later = zipfile.time.time() + 3600.0
        monkeypatch.setattr(zipfile.time, "time", lambda: later)
        second = _write(tmp_path / "b.npz").read_bytes()
        assert hashlib.sha256(first).hexdigest() == \
            hashlib.sha256(second).hexdigest()

    def test_reserved_name_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            write_archive(tmp_path / "a.npz", {"__meta__": np.zeros(1)}, {},
                          "test.v1")


class TestVerification:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointCorruptError, match="does not exist"):
            read_archive(tmp_path / "absent.npz")

    def test_wrong_schema(self, tmp_path):
        path = _write(tmp_path / "a.npz")
        with pytest.raises(CheckpointCorruptError, match="schema"):
            read_archive(path, "other.v1")

    def test_wrong_container_version(self, tmp_path):
        path = _write(tmp_path / "a.npz")
        forged = tmp_path / "forged.npz"
        with zipfile.ZipFile(path) as src, zipfile.ZipFile(forged, "w") as dst:
            for info in src.infolist():
                data = src.read(info)
                if info.filename == "__meta__.json":
                    record = json.loads(data)
                    record["version"] += 1
                    data = json.dumps(record).encode()
                dst.writestr(info.filename, data)
        with pytest.raises(CheckpointCorruptError, match="version"):
            read_archive(forged, "test.v1")

    @pytest.mark.parametrize("member", ["__meta__.json", "psi.npy"])
    def test_flipped_byte(self, tmp_path, member):
        path = _write(tmp_path / "a.npz")
        flip_member_byte(path, member)
        with pytest.raises(CheckpointCorruptError, match="CRC"):
            read_archive(path)

    def test_half_truncated_file(self, tmp_path):
        path = _write(tmp_path / "a.npz")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointCorruptError, match="unreadable"):
            read_archive(path)

    def test_dropped_member(self, tmp_path):
        path = _write(tmp_path / "a.npz")
        forged = tmp_path / "forged.npz"
        with zipfile.ZipFile(path) as src, zipfile.ZipFile(forged, "w") as dst:
            for info in src.infolist():
                if info.filename != "mask.npy":
                    dst.writestr(info.filename, src.read(info))
        with pytest.raises(CheckpointCorruptError, match="integrity"):
            read_archive(forged)


class TestFaultSites:
    def test_enospc_keeps_previous_archive(self, tmp_path):
        path = _write(tmp_path / "a.npz")
        before = path.read_bytes()
        with armed(FaultPlan([FaultSpec("artifact.enospc")])):
            with pytest.raises(OSError) as ei:
                write_archive(path, {"x": np.ones(3)}, {}, "test.v1",
                              fault_prefix="artifact")
        assert ei.value.errno == errno.ENOSPC
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_torn_write_publishes_a_file_that_fails_verification(
            self, tmp_path):
        whole = _write(tmp_path / "whole.npz")
        plan = FaultPlan([FaultSpec("artifact.torn_write",
                                    payload={"keep_fraction": 0.5})])
        with armed(plan):
            torn = _write(tmp_path / "torn.npz", fault_prefix="artifact")
        assert torn.stat().st_size == whole.stat().st_size // 2
        with pytest.raises(CheckpointCorruptError):
            read_archive(torn)

    def test_each_site_arrives_once_per_write(self, tmp_path):
        with armed(FaultPlan()) as probe:
            _write(tmp_path / "a.npz", fault_prefix="artifact")
        assert probe.calls("artifact.enospc") == 1
        assert probe.calls("artifact.torn_write") == 1


# ---------------------------------------------------------------------- #
# the invariant: no other module writes or reads npz files on its own
# ---------------------------------------------------------------------- #
PACKAGE = pathlib.Path(repro.__file__).parent
#: ``np.load`` in the wire decoder reads in-memory request bytes.
ALLOWED = {
    "resilience/atomicio.py": {"np.savez", "np.load", "open-wb"},
    "serve/protocol.py": {"np.load"},
}


def _persistence_calls(tree: ast.AST):
    """(line, kind) of every npz save/load and binary-write ``open``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if (isinstance(fn, ast.Attribute)
                and isinstance(fn.value, ast.Name)
                and fn.value.id in ("np", "numpy")):
            if fn.attr.startswith("savez"):
                yield node.lineno, "np.savez"
            elif fn.attr == "load":
                yield node.lineno, "np.load"
        elif isinstance(fn, ast.Name) and fn.id == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None)
            if (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and "b" in mode.value and set("wax") & set(mode.value)):
                yield node.lineno, "open-wb"


def test_only_the_archive_module_writes_or_reads_npz():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        allowed = ALLOWED.get(rel, set())
        for line, kind in _persistence_calls(ast.parse(path.read_text())):
            if kind not in allowed:
                offenders.append(f"{rel}:{line} {kind}")
    assert offenders == []


def test_the_scan_sees_each_kind_of_call():
    source = (
        "import numpy as np\n"
        "np.savez('a', x=1)\n"
        "np.savez_compressed('a', x=1)\n"
        "np.load('a')\n"
        "open('a', 'wb')\n"
        "open('a', mode='ab')\n"
        "open('a', 'w')\n"
        "open('a', 'rb')\n"
    )
    kinds = [kind for _, kind in _persistence_calls(ast.parse(source))]
    assert sorted(kinds) == sorted(
        ["np.savez", "np.savez", "np.load", "open-wb", "open-wb"])
