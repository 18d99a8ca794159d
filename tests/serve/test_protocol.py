"""Wire codec: bit-exact arrays, typed responses, line framing."""

from __future__ import annotations

import base64
import json

import numpy as np
import pytest

from repro.serve.protocol import (
    PROTOCOL,
    ProtocolError,
    busy_response,
    decode_array,
    decode_payload,
    dumps_line,
    encode_array,
    encode_payload,
    error_response,
    loads_line,
    ok_response,
    shutdown_response,
)


class TestArrayCodec:
    @pytest.mark.parametrize("dtype", ["float64", "int64", "complex128",
                                       "bool", "float32"])
    def test_round_trip_bit_exact(self, dtype):
        rng = np.random.default_rng(3)
        if dtype == "complex128":
            arr = (rng.standard_normal((3, 4))
                   + 1j * rng.standard_normal((3, 4)))
        elif dtype == "bool":
            arr = rng.standard_normal(7) > 0
        else:
            arr = rng.standard_normal((2, 5)).astype(dtype)
        back = decode_array(encode_array(arr))
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()

    def test_non_finite_and_denormal_survive(self):
        arr = np.array([np.inf, -np.inf, np.nan, 5e-324, -0.0])
        back = decode_array(encode_array(arr))
        assert back.tobytes() == arr.tobytes()

    def test_empty_and_zero_d(self):
        for arr in (np.zeros((0, 3)), np.array(2.5)):
            back = decode_array(encode_array(arr))
            assert back.shape == arr.shape
            assert back.tobytes() == arr.tobytes()

    def test_blob_is_json_safe(self):
        blob = encode_array(np.arange(4.0))
        json.dumps(blob)  # must not raise

    @pytest.mark.parametrize("blob", [
        5,                                       # not a string
        "",                                      # no bytes at all
        "!!!",                                   # not base64
        "Z2FyYmFnZSBieXRlcyBoZXJl",              # base64 of garbage
    ])
    def test_malformed_blob_is_a_protocol_error(self, blob):
        with pytest.raises(ProtocolError, match="malformed array blob"):
            decode_payload({"result": [{"__npy_b64__": blob}]})

    @pytest.mark.parametrize("offset, xor", [
        (10, 0x01),  # "{" -> "z": unbalanced header (tokenize.TokenError)
        (21, 0x10),  # "<f8" -> ",f8": unparseable dtype (SyntaxError)
        (61, 0x10),  # shape (3,) -> (#,)
    ])
    def test_flipped_npy_header_is_a_protocol_error(self, offset, xor):
        key, text = next(iter(encode_array(np.arange(3.0)).items()))
        raw = bytearray(base64.b64decode(text))
        raw[offset] ^= xor
        blob = {key: base64.b64encode(bytes(raw)).decode("ascii")}
        with pytest.raises(ProtocolError, match="malformed array blob"):
            decode_array(blob)


class TestPayloadCodec:
    def test_nested_round_trip(self):
        payload = {
            "pops": np.eye(3),
            "scalars": {"n": 4, "x": 0.1 + 0.2, "name": "run"},
            "list": [np.arange(2), {"inner": np.ones(1)}],
            "flag": True,
            "nothing": None,
        }
        wire = encode_payload(payload)
        json.dumps(wire)
        back = decode_payload(wire)
        assert np.array_equal(back["pops"], payload["pops"])
        assert back["scalars"] == payload["scalars"]
        assert np.array_equal(back["list"][0], np.arange(2))
        assert np.array_equal(back["list"][1]["inner"], np.ones(1))
        assert back["flag"] is True and back["nothing"] is None

    def test_numpy_scalars_narrow(self):
        wire = encode_payload({"i": np.int64(3), "f": np.float64(1.5),
                               "b": np.bool_(True)})
        assert wire == {"i": 3, "f": 1.5, "b": True}
        assert type(wire["i"]) is int
        assert type(wire["f"]) is float
        assert type(wire["b"]) is bool

    def test_float64_json_exact(self):
        x = float(np.nextafter(0.3, 1.0))
        assert json.loads(json.dumps(x)) == x


class TestFraming:
    def test_dumps_is_one_line_deterministic(self):
        line = dumps_line({"b": 1, "a": [2, 3]})
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1
        assert line == dumps_line({"a": [2, 3], "b": 1})  # sort_keys

    def test_loads_round_trip(self):
        obj = {"op": "ping", "n": 1}
        assert loads_line(dumps_line(obj)) == obj

    def test_loads_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            loads_line(b"{not json}\n")
        with pytest.raises(ProtocolError):
            loads_line(b"[1,2,3]\n")
        with pytest.raises(ProtocolError):
            loads_line(b"\xff\xfe\n")
        with pytest.raises(ProtocolError):
            loads_line(b"[" * 3000 + b"\n")  # nested past the recursion limit
        with pytest.raises(ProtocolError):
            loads_line(b'{"n": ' + b"9" * 5000 + b"}\n")  # digit limit


class TestResponses:
    def test_ok_encodes_result(self):
        resp = ok_response("j1", {"x": np.arange(3.0)}, {"memoized": False})
        assert resp["status"] == "ok"
        assert resp["id"] == "j1"
        decoded = decode_payload(resp["result"])
        assert np.array_equal(decoded["x"], np.arange(3.0))
        json.dumps(resp)

    def test_error_is_typed(self):
        resp = error_response("j2", ValueError("bad grid"))
        assert resp["status"] == "error"
        assert resp["error"]["type"] == "ValueError"
        assert "bad grid" in resp["error"]["message"]

    def test_busy_carries_queue_state(self):
        resp = busy_response("j3", queue_depth=64, max_queue=64)
        assert resp["status"] == "busy"
        assert resp["error"]["type"] == "ServerBusy"
        assert resp["error"]["queue_depth"] == 64
        assert resp["error"]["max_queue"] == 64

    def test_shutdown_is_typed(self):
        resp = shutdown_response("j4")
        assert resp["status"] == "shutdown"
        assert resp["error"]["type"] == "ServerShutdown"

    def test_protocol_marker(self):
        assert PROTOCOL == "repro-serve/1"
