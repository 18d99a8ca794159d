"""The verified archive and document: one writer each, one verifying
reader each, and no file write outside them."""

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
    read_document,
    write_archive,
    write_document,
)
from repro.resilience.faults import FaultPlan, FaultSpec, armed

ARRAYS = {
    "psi": (np.arange(24.0) + 1j).reshape(2, 3, 4),
    "fortran": np.asfortranarray(np.arange(6.0).reshape(2, 3)),
    "scalar": np.array(3.5),
    "empty": np.zeros(0, dtype=np.int64),
    "mask": np.array([True, False, True]),
}


DOC = {"answer": 42, "nested": {"x": [1, 2.5], "y": None}, "name": "é"}


def _write(path, **kw):
    return write_archive(path, ARRAYS, {"step_count": 3}, "test.v1", **kw)


def _write_doc(path, **kw):
    return write_document(path, DOC, "test/1", **kw)


#: Each verified format: (writer, reader, file name).
FORMATS = {
    "archive": (_write, read_archive, "a.npz"),
    "document": (_write_doc, read_document, "d.json"),
}


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

    @pytest.mark.parametrize("field", ["encryption flag", "directory offset"])
    def test_flipped_zip_header_field(self, tmp_path, field):
        """Header fields that fail before any CRC is checked."""
        path = _write(tmp_path / "a.npz")
        raw = bytearray(path.read_bytes())
        if field == "encryption flag":  # first central-directory entry
            raw[raw.index(b"PK\x01\x02") + 8] ^= 0x01
        else:  # end record's offset of the central directory
            raw[raw.rindex(b"PK\x05\x06") + 19] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruptError, match="unreadable"):
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


class TestDocument:
    def test_round_trip_returns_the_payload_keys(self, tmp_path):
        path = _write_doc(tmp_path / "d.json")
        assert read_document(path, "test/1") == DOC
        on_disk = json.loads(path.read_text(encoding="utf-8"))
        assert on_disk["schema"] == "test/1"
        assert on_disk["answer"] == 42  # payload keys stay top level
        assert set(on_disk) == set(DOC) | {"schema", "sha256"}

    def test_file_is_canonical_json_with_a_newline(self, tmp_path):
        path = write_document(tmp_path / "d.json", {"b": 1, "a": 2}, "t/1")
        text = path.read_text(encoding="utf-8")
        assert text.endswith("}\n") and text.count("\n") == 1
        assert text.index('"a"') < text.index('"b"') < text.index('"schema"')
        assert ", " not in text and ": " not in text

    @pytest.mark.parametrize("key", ["schema", "sha256"])
    def test_reserved_key_rejected(self, tmp_path, key):
        with pytest.raises(ValueError, match="reserved"):
            write_document(tmp_path / "d.json", {key: 1}, "test/1")
        assert not (tmp_path / "d.json").exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointCorruptError, match="does not exist"):
            read_document(tmp_path / "absent.json")

    def test_wrong_schema(self, tmp_path):
        path = _write_doc(tmp_path / "d.json")
        with pytest.raises(CheckpointCorruptError, match="schema"):
            read_document(path, "other/9")

    def test_flipped_byte(self, tmp_path):
        path = _write_doc(tmp_path / "d.json")
        raw = bytearray(path.read_bytes())
        raw[raw.index(b"42")] ^= 0x01  # "42" -> "52": still parses
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruptError, match="integrity"):
            read_document(path)

    def test_truncated_file(self, tmp_path):
        path = _write_doc(tmp_path / "d.json")
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CheckpointCorruptError, match="unreadable"):
            read_document(path)

    def test_legal_edit_is_refused(self, tmp_path):
        path = _write_doc(tmp_path / "d.json")
        record = json.loads(path.read_text(encoding="utf-8"))
        record["answer"] = 43
        path.write_text(json.dumps(record, indent=2), encoding="utf-8")
        with pytest.raises(CheckpointCorruptError, match="integrity"):
            read_document(path, "test/1")

    def test_file_without_a_digest_is_refused(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": "test/1", **DOC}))
        with pytest.raises(CheckpointCorruptError, match="integrity"):
            read_document(path, "test/1")

    @pytest.mark.parametrize("raw, match", [
        (b"[1, 2, 3]", "not a JSON object"),
        (b'{"a": "\xff"}', "unreadable"),
        (b"[" * 5000, "unreadable"),
        (b"", "unreadable"),
    ])
    def test_unparseable_or_foreign_bytes(self, tmp_path, raw, match):
        path = tmp_path / "d.json"
        path.write_bytes(raw)
        with pytest.raises(CheckpointCorruptError, match=match):
            read_document(path)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
class TestFaultSites:
    def test_enospc_keeps_the_previous_file(self, tmp_path, fmt):
        write, read, name = FORMATS[fmt]
        path = write(tmp_path / name)
        before = path.read_bytes()
        with armed(FaultPlan([FaultSpec("artifact.enospc")])):
            with pytest.raises(OSError) as ei:
                write(path, fault_prefix="artifact")
        assert ei.value.errno == errno.ENOSPC
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
        read(path)

    def test_torn_write_publishes_a_file_that_fails_verification(
            self, tmp_path, fmt):
        write, read, name = FORMATS[fmt]
        whole = write(tmp_path / f"whole-{name}")
        plan = FaultPlan([FaultSpec("artifact.torn_write",
                                    payload={"keep_fraction": 0.5})])
        with armed(plan):
            torn = write(tmp_path / name, fault_prefix="artifact")
        assert torn.stat().st_size == whole.stat().st_size // 2
        with pytest.raises(CheckpointCorruptError):
            read(torn)
        # The next clean write heals the file.
        read(write(torn))

    def test_sites_fire_under_the_callers_prefix_once_per_write(
            self, tmp_path, fmt):
        write, _, name = FORMATS[fmt]
        with armed(FaultPlan()) as probe:
            write(tmp_path / name, fault_prefix="cache")
            write(tmp_path / name)
        assert probe.calls("cache.enospc") == 1
        assert probe.calls("cache.torn_write") == 1
        assert probe.calls("artifact.enospc") == 0




# ---------------------------------------------------------------------- #
# the invariant: no other module writes a file, or reads npz files, on
# its own
# ---------------------------------------------------------------------- #
PACKAGE = pathlib.Path(repro.__file__).parent
#: Where each kind of call may appear, as ``(function, kind)`` pairs of
#: one module ("*" = anywhere in it).  The resilience event log is an
#: append stream whose reader skips torn lines; the ``checkpoint.corrupt``
#: fault site flips bytes of a published archive in place.
ALLOWED = {
    "resilience/atomicio.py": {("*", "*")},
    "resilience/supervisor.py": {("ResilienceLog._mirror_line", "open")},
    "resilience/checkpointing.py": {("_corrupt_file", "open")},
}

_WRITE_MODE = set("wax+")


def _mode(call: ast.Call, index: int):
    """The mode argument at ``index`` (or ``mode=``); None if absent."""
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"),
                call.args[index] if len(call.args) > index else None)
    if mode is None:
        return None
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return "?"  # computed: assume it may write


def _writes(mode) -> bool:
    return mode is not None and (mode == "?" or bool(_WRITE_MODE & set(mode)))


def _call_kind(call: ast.Call):
    """The kind of file write or npz access ``call`` is, or None."""
    fn = call.func
    if isinstance(fn, ast.Name):
        if fn.id == "open":
            return "open" if _writes(_mode(call, 1)) else None
        return fn.id if fn.id in ("mkstemp", "NamedTemporaryFile") else None
    if not isinstance(fn, ast.Attribute):
        return None
    owner = fn.value.id if isinstance(fn.value, ast.Name) else None
    if owner in ("np", "numpy"):
        if fn.attr.startswith("savez"):
            return "np.savez"
        return "np.load" if fn.attr == "load" else None
    if owner == "os":
        if fn.attr in ("replace", "rename"):
            return f"os.{fn.attr}"
        if fn.attr == "fdopen" and _writes(_mode(call, 1)):
            return "os.fdopen"
        return None
    if owner == "json":
        return "json.dump" if fn.attr == "dump" else None
    if fn.attr in ("write_text", "write_bytes", "mkstemp",
                   "NamedTemporaryFile"):
        return fn.attr
    if fn.attr == "open" and _writes(_mode(call, 0)):
        return "Path.open"
    return None


def _persistence_calls(tree: ast.AST, scope: str = "<module>"):
    """(function, line, kind) of every file write and npz save/load."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inner = (node.name if scope == "<module>"
                     else f"{scope}.{node.name}")
        elif isinstance(node, ast.Call):
            kind = _call_kind(node)
            if kind is not None:
                yield scope, node.lineno, kind
        yield from _persistence_calls(node, inner)


def test_only_the_atomicio_module_writes_files_or_reads_npz():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        allowed = ALLOWED.get(rel, set())
        for func, line, kind in _persistence_calls(
                ast.parse(path.read_text())):
            if not {("*", "*"), ("*", kind), (func, kind)} & allowed:
                offenders.append(f"{rel}:{line} {func} {kind}")
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
        "open('a', 'r+b')\n"
        "open('a', 'x')\n"
        "open('a', mode)\n"
        "open('a', 'rb')\n"
        "open('a')\n"
        "p.open('w')\n"
        "p.open(mode='a')\n"
        "p.open()\n"
        "os.fdopen(fd, 'w')\n"
        "os.fdopen(fd, 'rb')\n"
        "p.write_text('x')\n"
        "p.write_bytes(b'x')\n"
        "json.dump(x, fh)\n"
        "json.dumps(x)\n"
        "tempfile.mkstemp()\n"
        "tempfile.NamedTemporaryFile('w')\n"
        "mkstemp()\n"
        "os.replace('a', 'b')\n"
        "os.rename('a', 'b')\n"
        "class Log:\n"
        "    def append(self):\n"
        "        open('a', 'a')\n"
    )
    found = [(func, kind)
             for func, _, kind in _persistence_calls(ast.parse(source))]
    top = "<module>"
    assert sorted(found) == sorted(
        [(top, "np.savez"), (top, "np.savez"), (top, "np.load")]
        + [(top, "open")] * 6
        + [(top, "Path.open")] * 2
        + [(top, "os.fdopen"), (top, "write_text"), (top, "write_bytes"),
           (top, "json.dump"), (top, "mkstemp"),
           (top, "NamedTemporaryFile"), (top, "mkstemp"),
           (top, "os.replace"), (top, "os.rename"),
           ("Log.append", "open")])
