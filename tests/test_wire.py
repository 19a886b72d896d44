"""Wire-protocol edge cases: every malformed frame is a typed
:class:`ProtocolError` with a stable reason tag — never a hang, never
a raw traceback."""

from __future__ import annotations

import asyncio
import struct

import pytest

from repro.errors import ProtocolError
from repro.service import wire


def _frame(message=None) -> bytes:
    return wire.encode_frame(message or {"type": "request", "op": "ping",
                                         "id": 1})


def _reason(excinfo) -> str:
    return excinfo.value.reason


# -- in-memory decoding -------------------------------------------------------

def test_round_trip():
    message = wire.request("translate", 7, {"x": 1}, session="s",
                           idempotency_key="digest", deadline_s=1.5)
    decoded = wire.decode_frame(wire.encode_frame(message))
    assert decoded == message
    assert wire.unpack_body(decoded["body"]) == {"x": 1}


def test_bad_magic():
    blob = bytearray(_frame())
    blob[:4] = b"XXXX"
    with pytest.raises(ProtocolError) as info:
        wire.decode_frame(bytes(blob))
    assert _reason(info) == "bad-magic"


def test_version_mismatch():
    frame = wire.encode_frame({"a": 1}, version=wire.WIRE_VERSION + 1)
    with pytest.raises(ProtocolError) as info:
        wire.decode_frame(frame)
    assert _reason(info) == "version-mismatch"


def test_checksum_failure():
    blob = bytearray(_frame())
    blob[wire.HEADER_SIZE] ^= 0xFF  # flip the first payload byte
    with pytest.raises(ProtocolError) as info:
        wire.decode_frame(bytes(blob))
    assert _reason(info) == "checksum-mismatch"


def test_zero_length_payload():
    header = struct.pack("<4sIQ32s", wire.MAGIC, wire.WIRE_VERSION, 0,
                         b"\x00" * 32)
    with pytest.raises(ProtocolError) as info:
        wire.decode_frame(header)
    assert _reason(info) == "empty-payload"


def test_oversize_payload_rejected_before_read():
    header = struct.pack("<4sIQ32s", wire.MAGIC, wire.WIRE_VERSION,
                         wire.MAX_PAYLOAD + 1, b"\x00" * 32)
    with pytest.raises(ProtocolError) as info:
        wire.check_header(header)
    assert _reason(info) == "oversize"


def test_truncated_header():
    with pytest.raises(ProtocolError) as info:
        wire.decode_frame(_frame()[: wire.HEADER_SIZE - 3])
    assert _reason(info) == "truncated"


def test_truncated_payload():
    with pytest.raises(ProtocolError) as info:
        wire.decode_frame(_frame()[:-2])
    assert _reason(info) == "truncated"


def test_trailing_bytes():
    with pytest.raises(ProtocolError) as info:
        wire.decode_frame(_frame() + b"junk")
    assert _reason(info) == "truncated"


def test_non_json_payload():
    payload = b"\xff\xfenot json"
    import hashlib
    header = struct.pack("<4sIQ32s", wire.MAGIC, wire.WIRE_VERSION,
                         len(payload),
                         hashlib.sha256(payload).digest())
    with pytest.raises(ProtocolError) as info:
        wire.decode_frame(header + payload)
    assert _reason(info) == "bad-json"


def test_json_scalar_payload_rejected():
    import hashlib
    payload = b"42"  # valid JSON, but not an envelope object
    header = struct.pack("<4sIQ32s", wire.MAGIC, wire.WIRE_VERSION,
                         len(payload),
                         hashlib.sha256(payload).digest())
    with pytest.raises(ProtocolError) as info:
        wire.decode_frame(header + payload)
    assert _reason(info) == "bad-json"


def test_undecodable_body():
    with pytest.raises(ProtocolError) as info:
        wire.unpack_body("!!! not base64 pickle !!!")
    assert _reason(info) == "bad-json"


# -- async stream reads -------------------------------------------------------

def _feed(chunks) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    for chunk in chunks:
        reader.feed_data(chunk)
    reader.feed_eof()
    return reader


def _read(reader):
    return asyncio.get_event_loop_policy().new_event_loop() \
        .run_until_complete(wire.read_frame_async(reader))


def test_async_partial_reads_across_frame_boundaries():
    # One frame delivered in 1-byte chunks: TCP's worst case.  The
    # reader must reassemble it, not error or hang.
    frame = _frame()
    reader = _feed([frame[i:i + 1] for i in range(len(frame))])
    assert _read(reader) == {"type": "request", "op": "ping", "id": 1}


def test_async_split_mid_header_and_mid_payload():
    frame = _frame()
    cuts = [frame[:5], frame[5:wire.HEADER_SIZE + 3],
            frame[wire.HEADER_SIZE + 3:]]
    assert _read(_feed(cuts)) == {"type": "request", "op": "ping",
                                  "id": 1}


def test_async_clean_eof_between_frames_is_none():
    assert _read(_feed([])) is None


def test_async_eof_inside_header_is_truncated():
    with pytest.raises(ProtocolError) as info:
        _read(_feed([_frame()[:7]]))
    assert _reason(info) == "truncated"


def test_async_eof_inside_payload_is_truncated():
    with pytest.raises(ProtocolError) as info:
        _read(_feed([_frame()[:-4]]))
    assert _reason(info) == "truncated"


# -- blocking reads (the client side) -----------------------------------------

def test_blocking_reader_reassembles():
    frame = _frame()
    state = {"offset": 0}

    def read_exactly(count: int) -> bytes:
        start = state["offset"]
        state["offset"] += count
        return frame[start:state["offset"]]

    assert wire.read_frame_blocking(read_exactly) == {
        "type": "request", "op": "ping", "id": 1}


def test_blocking_reader_clean_eof_is_none():
    assert wire.read_frame_blocking(lambda n: b"") is None


# -- typed error envelopes ----------------------------------------------------

def test_error_envelope_round_trips_typed_exception():
    from repro.errors import AdmissionRejected
    original = AdmissionRejected("queue says no", decision="saturated",
                                 retry_after=0.25, session="s",
                                 queue_depth=9)
    envelope = wire.decode_frame(wire.encode_frame(
        wire.error_response(3, original)))
    assert envelope["ok"] is False
    assert envelope["error"]["kind"] == "admission-rejected"
    assert envelope["error"]["retry_after"] == 0.25
    with pytest.raises(AdmissionRejected) as info:
        wire.raise_error(envelope)
    assert info.value.decision == "saturated"
    assert info.value.retry_after == 0.25
    assert info.value.queue_depth == 9


def test_error_envelope_without_body_maps_kind():
    # A minimal (non-Python) server sends only the JSON envelope; the
    # client still raises the right typed class with the hint attached.
    envelope = {"type": "response", "id": 1, "ok": False,
                "error": {"kind": "admission-rejected",
                          "message": "busy", "retry_after": 0.1}}
    from repro.errors import AdmissionRejected
    with pytest.raises(AdmissionRejected) as info:
        wire.raise_error(envelope)
    assert info.value.retry_after == 0.1


# -- the trust model: restricted bodies and keyed frames ----------------------

def test_body_rejects_forbidden_global():
    # A hand-built pickle naming os.system: loading it through the
    # stock unpickler would hand the peer a shell — the restricted
    # unpickler must refuse before any global resolves.
    import base64
    evil = base64.b64encode(b"cos\nsystem\n.").decode("ascii")
    with pytest.raises(ProtocolError) as info:
        wire.unpack_body(evil)
    assert _reason(info) == "forbidden-global"


def test_body_rejects_module_attribute_escape():
    # Modules imported *by* repro modules (repro.service.server.os)
    # must not be reachable through the repro.* allow prefix.
    import base64
    evil = base64.b64encode(b"crepro.service.server\nos\n.").decode()
    with pytest.raises(ProtocolError) as info:
        wire.unpack_body(evil)
    assert _reason(info) == "forbidden-global"


def test_body_allows_repro_types_and_safe_builtins():
    from repro.errors import AdmissionRejected
    from repro.vm.translator import TranslationOptions
    for value in (TranslationOptions(),
                  AdmissionRejected("busy", retry_after=0.1),
                  {"a": [1, 2.5, "x"], "b": (True, None)},
                  {frozenset({1}), 2},
                  bytearray(b"raw")):
        restored = wire.unpack_body(wire.pack_body(value))
        assert type(restored) is type(value)


def test_keyed_frame_round_trip():
    key = wire.frame_key("s3cret")
    message = {"type": "request", "op": "ping", "id": 1}
    assert wire.decode_frame(wire.encode_frame(message, key=key),
                             key) == message


def test_unkeyed_frame_fails_keyed_reader_as_auth_mismatch():
    with pytest.raises(ProtocolError) as info:
        wire.decode_frame(_frame(), wire.frame_key("s3cret"))
    assert _reason(info) == "auth-mismatch"


def test_wrong_key_is_auth_mismatch():
    frame = wire.encode_frame({"op": "ping"}, key=wire.frame_key("a"))
    with pytest.raises(ProtocolError) as info:
        wire.decode_frame(frame, wire.frame_key("b"))
    assert _reason(info) == "auth-mismatch"


def test_keyed_frame_fails_unkeyed_reader_as_checksum_mismatch():
    frame = wire.encode_frame({"op": "ping"}, key=wire.frame_key("a"))
    with pytest.raises(ProtocolError) as info:
        wire.decode_frame(frame)
    assert _reason(info) == "checksum-mismatch"


# -- packed bodies and the client's per-loop memo -----------------------------

def test_request_sends_a_packed_body_verbatim():
    packed = wire.PackedBody(wire.pack_body({"x": 1}))
    message = wire.request("translate", 1, packed)
    assert message["body"] == packed.data
    assert wire.unpack_body(message["body"]) == {"x": 1}


def test_translate_body_is_packed_once_per_identity(monkeypatch):
    from repro.perf.digest import options_digest
    from repro.vm.translator import TranslationOptions
    from repro.workloads import kernels as K

    packs = []
    pack_body = wire.pack_body
    monkeypatch.setattr(wire, "pack_body",
                        lambda obj: packs.append(obj) or pack_body(obj))
    loop = K.fir_filter(taps=4)
    slow = TranslationOptions(deadline_s=30.0)
    fast = TranslationOptions(deadline_s=60.0)
    twin = TranslationOptions(deadline_s=30.0)
    assert options_digest(slow) == options_digest(fast)
    first = wire.translate_body(loop, None, slow)
    assert wire.translate_body(loop, None, slow) is first
    assert len(packs) == 1
    # Equal under the options digest, or even equal outright, is not
    # enough: a distinct options object gets its own body.
    other = wire.translate_body(loop, None, fast)
    assert wire.translate_body(loop, None, twin) is not first
    assert len(packs) == 3
    assert wire.unpack_body(other.data)[2].deadline_s == 60.0
    assert wire.unpack_body(first.data)[2].deadline_s == 30.0


def test_translate_body_memo_never_travels():
    import pickle

    from repro.ir.loop import Loop
    from repro.workloads import kernels as K

    loop = K.fir_filter(taps=4)
    body = wire.translate_body(loop)
    assert "_veal_wire_translate" in loop.__dict__
    restored = pickle.loads(pickle.dumps(loop))
    assert not any(key.startswith("_veal_") for key in restored.__dict__)
    sent, _, _ = wire.unpack_body(body.data)
    assert not any(key.startswith("_veal_") for key in sent.__dict__)
    # A crafted state carrying the memo is refused on load.
    planted = Loop.__new__(Loop)
    planted.__setstate__({**loop.__getstate__(),
                          "_veal_wire_translate": {"forged": body}})
    assert "_veal_wire_translate" not in planted.__dict__


def test_translate_body_memo_is_bounded():
    from repro.vm.translator import TranslationOptions
    from repro.workloads import kernels as K

    loop = K.fir_filter(taps=4)
    for index in range(3 * wire._TRANSLATE_BODY_SLOTS):
        wire.translate_body(loop, None,
                            TranslationOptions(deadline_s=float(index)))
        assert len(loop.__dict__["_veal_wire_translate"]) \
            <= wire._TRANSLATE_BODY_SLOTS
