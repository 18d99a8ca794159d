"""Property-based fuzzing of every decoder at the system's boundaries.

Each decoder either decodes its input or raises that boundary's typed
error -- never another exception:

* ``read_archive`` / ``read_document``: ``CheckpointCorruptError``;
* ``loads_line`` / ``decode_payload``: ``ProtocolError``;
* ``validate_job``: ``ValueError``;
* ``TuningProfile.load``: ``TuningProfileError``;
* the CLI's ``--tuning-profile`` and ``--restart``: exit 1 with one
  ``error:`` line and no traceback.

Inputs are valid files with one or two bytes flipped and/or a
truncation, plus arbitrary bytes.  Apart from the ``--restart``
checkpoint (the smallest the CLI writes), every input is at most a few
KB, and with at most two flipped bytes a mutated array header cannot
claim an array much larger than its seed's.  Each pure-decoder example
is bounded by a deadline.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.resilience.atomicio import (
    CheckpointCorruptError,
    read_archive,
    read_document,
    write_archive,
    write_document,
)
from repro.serve.jobs import PARAM_DEFAULTS, validate_job
from repro.serve.protocol import (
    JOB_KINDS,
    ProtocolError,
    decode_payload,
    dumps_line,
    loads_line,
    ok_response,
)
from repro.tuning.profile import TuningProfile, TuningProfileError

#: Pure decoders: many examples, each far below the deadline.
FAST = settings(max_examples=60, deadline=2000,
                suppress_health_check=[HealthCheck.too_slow])
#: CLI runs: few examples; ``--restart`` builds a simulation first.
CLI = settings(max_examples=10, deadline=None,
               suppress_health_check=[HealthCheck.too_slow])

TINY_RUN = ["run", "--grid", "8", "--steps", "1", "--n-qd", "1"]


@st.composite
def mutated(draw, seed: bytes) -> bytes:
    """``seed`` with a truncation and/or one or two flipped bytes."""
    raw = bytearray(seed)
    truncate = draw(st.booleans())
    if truncate:
        del raw[draw(st.integers(0, len(raw) - 1)):]
    for _ in range(draw(st.integers(0 if truncate else 1, 2))):
        if raw:
            raw[draw(st.integers(0, len(raw) - 1))] ^= draw(
                st.integers(1, 255))
    return bytes(raw)


def inputs(seed: bytes) -> st.SearchStrategy[bytes]:
    return st.one_of(mutated(seed), st.binary(max_size=4096))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """Valid files of every format, plus a scratch path to mutate into."""
    root = tmp_path_factory.mktemp("seeds")
    archive = write_archive(
        root / "a.npz",
        {"psi": (np.arange(24.0) + 1j).reshape(2, 3, 4),
         "mask": np.array([True, False])},
        {"step_count": 3}, "fuzz.v1")
    document = write_document(
        root / "d.json", {"answer": 42, "nested": {"x": [1, 2.5]}},
        "fuzz/1")
    profile = root / "profile.json"
    TuningProfile({"lfd.kin_prop": {"variant": "blocked", "block_size": 8}},
                  source="fuzz").save(profile)
    line = dumps_line(ok_response(
        "j1", {"x": np.arange(3.0), "pops": np.eye(2)}, {"memoized": False}))
    return {"archive": archive.read_bytes(),
            "document": document.read_bytes(),
            "profile": profile.read_bytes(),
            "line": line,
            "scratch": root / "input"}


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """The bytes of a checkpoint the CLI wrote for ``TINY_RUN``."""
    path = tmp_path_factory.mktemp("ckpt") / "ck.npz"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(TINY_RUN + ["--checkpoint", str(path)]) == 0
    return path.read_bytes()


def _put(seeds, raw: bytes):
    path = seeds["scratch"]
    path.write_bytes(raw)
    return path


def _run_cli(argv):
    """``main(argv)``: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_refused(code, err, path):
    assert code == 1
    assert err.startswith("error:") and str(path) in err
    assert err.rstrip("\n").count("\n") == 0, err
    assert "Traceback" not in err


@FAST
@given(data=st.data())
def test_read_archive(seeds, data):
    path = _put(seeds, data.draw(inputs(seeds["archive"])))
    try:
        read_archive(path)
    except CheckpointCorruptError:
        pass


@FAST
@given(data=st.data())
def test_read_document(seeds, data):
    path = _put(seeds, data.draw(inputs(seeds["document"])))
    try:
        read_document(path)
    except CheckpointCorruptError:
        pass


@FAST
@given(data=st.data())
def test_loads_line_and_decode_payload(seeds, data):
    try:
        obj = loads_line(data.draw(inputs(seeds["line"])))
        decode_payload(obj)
    except ProtocolError:
        pass


@FAST
@given(data=st.data())
def test_decode_payload_of_mutated_array_blobs(seeds, data):
    blob = json.loads(seeds["line"])["result"]["x"]["__npy_b64__"]
    text = data.draw(st.one_of(
        mutated(blob.encode("ascii")).map(
            lambda b: b.decode("ascii", "replace")),
        st.text(max_size=64)))
    value = data.draw(st.sampled_from(
        [text, len(text), None, [text], {"k": text}]))
    try:
        decode_payload({"result": {"x": {"__npy_b64__": value}}})
    except ProtocolError:
        pass


@settings(max_examples=120, deadline=2000)
@given(kind=st.sampled_from(JOB_KINDS + ("molecule",)), data=st.data())
def test_validate_job(kind, data):
    names = sorted(PARAM_DEFAULTS.get(kind, {})) + ["bogus"]
    params = data.draw(st.dictionaries(
        st.sampled_from(names), json_values, max_size=4))
    raw = {"kind": kind, "params": params}
    for key in ("deadline_s", "id", "memoize"):
        if data.draw(st.booleans()):
            raw[key] = data.draw(json_values)
    if data.draw(st.booleans()):
        raw["params"] = data.draw(json_values)
    try:
        validate_job(raw)
    except ValueError:
        pass


@FAST
@given(data=st.data())
def test_tuning_profile_load(seeds, data):
    path = _put(seeds, data.draw(inputs(seeds["profile"])))
    try:
        TuningProfile.load(path)
    except TuningProfileError:
        pass


@FAST
@given(doc=st.dictionaries(
    st.sampled_from(["source", "overrides", "x"]),
    json_values | st.dictionaries(
        st.sampled_from(["lfd.kin_prop", "lfd.nonlocal", "nope"]),
        json_values, max_size=2),
    max_size=3))
def test_tuning_profile_load_of_verified_foreign_payloads(seeds, doc):
    """Documents that pass the digest still fail typed if not a profile."""
    path = write_document(seeds["scratch"], doc, "repro-tuning-profile/1")
    try:
        TuningProfile.load(path)
    except TuningProfileError:
        pass


@CLI
@given(data=st.data())
def test_cli_tuning_profile(seeds, data):
    path = _put(seeds, data.draw(mutated(seeds["profile"])))
    try:
        TuningProfile.load(path)
    except TuningProfileError:
        pass
    else:
        assume(False)  # still a valid profile: the run would just run
    code, err = _run_cli(TINY_RUN + ["--tuning-profile", str(path)])
    _assert_refused(code, err, path)


@CLI
@given(data=st.data())
def test_cli_restart(seeds, checkpoint, data):
    path = _put(seeds, data.draw(mutated(checkpoint)))
    try:
        read_archive(path)
    except CheckpointCorruptError:
        pass
    else:
        assume(False)  # the flip missed every checked byte
    code, err = _run_cli(TINY_RUN + ["--restart", str(path)])
    _assert_refused(code, err, path)
