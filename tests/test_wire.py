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


# -- the v2 frame layout: raw body bytes after the JSON header ----------------

_PING = {"type": "request", "op": "ping", "id": 1}
_PING_HEADER = b'{"id":1,"op":"ping","type":"request"}'
_SEVEN = b"\x80\x05K\x07."  # pickle of the int 7


def _payload_frame(payload: bytes, version: int = wire.WIRE_VERSION,
                   key=None) -> bytes:
    """A frame around an arbitrary payload, with a valid digest."""
    import hashlib
    import hmac
    digest = (hmac.new(key, payload, hashlib.sha256).digest() if key
              else hashlib.sha256(payload).digest())
    return struct.pack("<4sIQ32s", wire.MAGIC, version, len(payload),
                       digest) + payload


def test_golden_frame_without_body():
    assert wire.encode_frame(_PING) == (
        b"RVNW" + struct.pack("<IQ", 2, 4 + len(_PING_HEADER))
        + bytes.fromhex("77d648a28a5e4e3302d97880d436924d"
                        "d0760c88ee439ae990214ee6450946c3")
        + struct.pack("<I", len(_PING_HEADER)) + _PING_HEADER)


def test_golden_frame_with_body():
    frame = wire.encode_frame({**_PING, "body": _SEVEN})
    assert frame == (
        b"RVNW" + struct.pack("<IQ", 2, 4 + len(_PING_HEADER) + 5)
        + bytes.fromhex("7f4bd7225381f5f174949f2da96abd8a"
                        "e0c68281a163275ccbfb0cc84c8ea34c")
        + struct.pack("<I", len(_PING_HEADER)) + _PING_HEADER + _SEVEN)
    decoded = wire.decode_frame(frame)
    assert decoded == {**_PING, "body": _SEVEN}
    assert wire.unpack_body(decoded["body"]) == 7


@pytest.mark.parametrize("secret, reason", [
    (None, "checksum-mismatch"), ("s3cret", "auth-mismatch")])
def test_flipped_body_byte_fails_the_digest(secret, reason):
    key = wire.frame_key(secret)
    blob = bytearray(wire.encode_frame({**_PING, "body": _SEVEN}, key=key))
    blob[-2] ^= 0x01  # inside the body, past the JSON header
    with pytest.raises(ProtocolError) as info:
        wire.decode_frame(bytes(blob), key)
    assert _reason(info) == reason


@pytest.mark.parametrize("payload", [
    struct.pack("<I", len(_PING_HEADER) + 1) + _PING_HEADER,
    b"\x01\x00\x00",
], ids=["header-overrun", "short-payload"])
def test_malformed_header_length_is_bad_json(payload):
    with pytest.raises(ProtocolError) as info:
        wire.decode_frame(_payload_frame(payload))
    assert _reason(info) == "bad-json"


def test_header_carrying_a_body_key_is_bad_json():
    header = b'{"body":"AAAA","id":1}'
    with pytest.raises(ProtocolError) as info:
        wire.decode_frame(_payload_frame(
            struct.pack("<I", len(header)) + header))
    assert _reason(info) == "bad-json"


def test_version_1_frame_is_a_version_mismatch():
    with pytest.raises(ProtocolError) as info:
        wire.decode_frame(wire.encode_frame(_PING, version=1))
    assert _reason(info) == "version-mismatch"


def test_payload_ceiling_counts_header_and_body(monkeypatch):
    frame = wire.encode_frame({**_PING, "body": _SEVEN})
    monkeypatch.setattr(wire, "MAX_PAYLOAD", 4 + len(_PING_HEADER))
    assert wire.decode_frame(wire.encode_frame(_PING)) == _PING
    with pytest.raises(ProtocolError) as info:
        wire.decode_frame(frame)
    assert _reason(info) == "oversize"


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


def test_errors_cross_the_wire_once_as_json():
    # No pickled body: the typed instance is rebuilt from the envelope,
    # JSON-safe fields included, and fields JSON cannot carry are left
    # out rather than failing the reply.
    from repro.errors import SchedulingError, ServiceError, ShardMovedError
    shard_map = {"version": 3, "shards": [{"shard_id": 1, "up": True}]}
    moved = ShardMovedError("not mine", shard_id=0, owner_id=1,
                            owner_host="127.0.0.1", owner_port=7411,
                            shard_map=shard_map)
    envelope = wire.decode_frame(wire.encode_frame(
        wire.error_response(4, moved)))
    assert "body" not in envelope
    with pytest.raises(ShardMovedError) as info:
        wire.raise_error(envelope)
    assert (info.value.owner_id, info.value.owner_port) == (1, 7411)
    assert info.value.shard_map == shard_map

    failed = SchedulingError("no II", schedule_failure=object(),
                             loop_name="fir")
    envelope = wire.decode_frame(wire.encode_frame(
        wire.error_response(5, failed)))
    with pytest.raises(SchedulingError) as info:
        wire.raise_error(envelope)
    assert info.value.loop_name == "fir"
    assert info.value.schedule_failure is None

    envelope = wire.decode_frame(wire.encode_frame(
        wire.error_response(6, KeyError("internal"))))
    with pytest.raises(ServiceError) as info:
        wire.raise_error(envelope)
    assert "internal" in str(info.value)


# -- the trust model: restricted bodies and keyed frames ----------------------

def test_body_rejects_forbidden_global():
    # A hand-built pickle naming os.system: loading it through the
    # stock unpickler would hand the peer a shell — the restricted
    # unpickler must refuse before any global resolves.
    evil = b"cos\nsystem\n."
    with pytest.raises(ProtocolError) as info:
        wire.unpack_body(evil)
    assert _reason(info) == "forbidden-global"


def test_body_rejects_module_attribute_escape():
    # Modules imported *by* repro modules (repro.service.cluster.os)
    # must not be reachable through the repro.* allow prefix.
    evil = b"crepro.service.cluster\nos\n."
    with pytest.raises(ProtocolError) as info:
        wire.unpack_body(evil)
    assert _reason(info) == "forbidden-global"


@pytest.mark.parametrize("evil", [
    b"crepro.service.server\nos\n.",   # a name the module lacks
    b"crepro.nosuchmodule\nX\n.",      # a module that does not exist
    b"crepro.obs.trace\nstart_trace\n.",  # a repro function
    b"crepro.service.net\nNetServer\n.",  # a repro non-value class
])
def test_unlisted_repro_globals_are_forbidden(evil):
    # The allowlist refuses before importing, so a repro.* name is
    # forbidden whether or not it exists.
    with pytest.raises(ProtocolError) as info:
        wire.unpack_body(evil)
    assert _reason(info) == "forbidden-global"


def test_approved_globals_never_admit_a_refused_one():
    # Resolving each allowed global once must not open a door: after
    # genuine replies warm the resolution memo, the escapes are refused
    # every time, and the memo only ever holds allowed classes.
    from repro.accelerator import PROPOSED_LA
    from repro.errors import ERROR_CLASSES, AdmissionRejected
    from repro.resilience import integrity
    from repro.vm.translator import translate_loop
    from repro.workloads import kernels as K

    for value in (translate_loop(K.fir_filter(taps=4), PROPOSED_LA),
                  AdmissionRejected("busy", retry_after=0.1),
                  {frozenset({1}), 2}):
        wire.unpack_body(wire.pack_body(value))
    resolved = integrity._resolved
    assert len(resolved) > 5
    for evil in (b"cos\nsystem\n.", b"crepro.service.cluster\nos\n.") * 2:
        with pytest.raises(ProtocolError) as info:
            wire.unpack_body(evil)
        assert _reason(info) == "forbidden-global"
    assert ("os", "system") not in resolved
    assert ("repro.service.cluster", "os") not in resolved
    errors = set(ERROR_CLASSES.values())
    for (module, name), obj in resolved.items():
        assert isinstance(obj, type)
        assert (module, name) in integrity.VALUE_CLASSES or obj in errors


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


def test_loop_state_survives_a_memo_planted_mid_pickle():
    """Client threads share loop objects: one pickles a loop while
    another memoises a cache key on it.  The pickled state is taken
    from a snapshot, so the planted memo neither breaks the pickle nor
    travels in it."""
    from repro.workloads import kernels as K

    loop = K.fir_filter(taps=4)

    class Planting(str):
        """A key whose prefix test plants a memo, as a racing thread
        would between two steps of the state filter."""

        def startswith(self, prefix, *args):
            loop.__dict__.setdefault("_veal_planted", {})
            return str.startswith(self, prefix, *args)

    loop.__dict__[Planting("note")] = "kept"
    state = loop.__getstate__()
    assert state["note"] == "kept"
    assert "_veal_planted" in loop.__dict__
    assert "_veal_planted" not in state


def test_translate_body_memo_is_bounded():
    from repro.vm.translator import TranslationOptions
    from repro.workloads import kernels as K

    loop = K.fir_filter(taps=4)
    for index in range(3 * wire._TRANSLATE_BODY_SLOTS):
        wire.translate_body(loop, None,
                            TranslationOptions(deadline_s=float(index)))
        assert len(loop.__dict__["_veal_wire_translate"]) \
            <= wire._TRANSLATE_BODY_SLOTS
