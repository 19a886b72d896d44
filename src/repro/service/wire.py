"""The framed, checksummed wire protocol of the loop service.

Every message on a service connection — request or response — travels
as one frame reusing the PR 3 disk-cache frame discipline
(:mod:`repro.resilience.integrity`), with its own magic:

    ``RVNW`` | version (u32) | payload length (u64) | sha256(payload)
    | payload

and, since wire version 2, a payload of

    header length (u32) | canonical JSON header | raw body bytes

The JSON header is the *envelope* — op, request id, session,
idempotency key, and on a failure the error (kind, message,
``retry_after`` hint, the error's JSON-safe fields) — a checkable,
language-agnostic contract (the ILA posture from PAPERS.md).  The
optional body (loops, configs, options, translation results, loop
outcomes) is the pickle bytes that follow the header, exact Python
values carried verbatim; a decoded message exposes them under the
``"body"`` key.  Errors cross the wire once, as the envelope, which
:func:`raise_error` rebuilds into the typed instance.  The header
never carries a ``"body"`` key itself, so each message has exactly one
encoding, and the digest covers header length, header and body alike.

Every violation is a typed :class:`~repro.errors.ProtocolError` with a
stable ``reason`` tag mirroring the cache-integrity taxonomy:
``bad-magic``, ``version-mismatch``, ``truncated``,
``checksum-mismatch``, ``auth-mismatch``, ``empty-payload``,
``oversize``, ``bad-json``, ``forbidden-global``.  A payload too short
to hold the header length, or a header length that overruns the
payload, is ``bad-json``.
A bad frame means the stream may no longer be frame-aligned; both
peers respond by closing the connection (the client reconnects and
resubmits — safe, because dedup on the transcache digest
makes identical translations exactly-once).

Both ends handle a repeated ``translate`` body once: the server
decodes each request body and packs each cache-served reply once
(:class:`repro.service.net.NetServer`), and the client decodes each
reply body once (:class:`repro.service.client.ReplyMemo`).  The decode
memos are keyed by body bytes that already passed the frame check, and
each of their misses still goes through :func:`unpack_body`.

Trust model
-----------
Frame bodies are still pickles, so *both* directions load them through
the disk cache's loader, :func:`repro.resilience.integrity.load_payload`:
it resolves only the listed value classes (``VALUE_CLASSES``) and the
``ReproError`` subclasses, and refuses any other global (``os.system``,
a ``repro`` function, a module) before import, as a
``forbidden-global`` protocol error.  That bounds
what a peer can *construct* but is **not** authentication: the
per-frame digest is plain SHA-256 (integrity only) unless both peers
share a secret, in which case it becomes HMAC-SHA256 and an unkeyed or
wrongly-keyed peer's frames fail with ``auth-mismatch``.  The server
therefore refuses to bind a non-loopback address without a secret
(:class:`repro.service.net.NetServer`); loopback-only service among
same-user processes is the supported no-secret deployment.
"""

from __future__ import annotations

import asyncio
import hashlib
import hmac
import json
import pickle
import struct
from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import ERROR_CLASSES, ProtocolError, ReproError, ServiceError
from repro.ir.loop import Loop
from repro.resilience import integrity

#: Bumped whenever the envelope layout changes; a peer speaking a
#: different version is rejected with reason ``version-mismatch``.
WIRE_VERSION = 2

MAGIC = b"RVNW"
_HEADER = struct.Struct("<4sIQ32s")  # magic, version, length, sha256
HEADER_SIZE = _HEADER.size
#: The payload's leading JSON-header length.
_ENVELOPE_LEN = struct.Struct("<I")

#: Hard ceiling on a single frame's payload: protects both peers from
#: a corrupted length field committing them to a gigabyte read.
MAX_PAYLOAD = 64 << 20


# -- framing ------------------------------------------------------------------

def frame_key(secret: Optional[str]) -> Optional[bytes]:
    """The per-frame HMAC key a shared *secret* derives (None = unkeyed)."""
    return secret.encode("utf-8") if secret else None


def _frame_digest(payload: bytes, key: Optional[bytes]) -> bytes:
    """Keyed frames authenticate (HMAC); unkeyed frames only integrity-
    check (plain SHA-256) — see the module trust model."""
    if key:
        return hmac.new(key, payload, hashlib.sha256).digest()
    return hashlib.sha256(payload).digest()


def encode_frame(message: dict, version: int = WIRE_VERSION,
                 key: Optional[bytes] = None) -> bytes:
    """Serialise *message* into one wire frame.

    Every key but ``"body"`` must be JSON-safe and goes into the
    header; the body, when present, must be bytes (see
    :func:`pack_body`) and follows the header verbatim.
    """
    envelope = message
    if "body" in message:
        envelope = {k: v for k, v in message.items() if k != "body"}
    header = json.dumps(envelope, sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    payload = b"".join((_ENVELOPE_LEN.pack(len(header)), header,
                        message.get("body") or b""))
    digest = _frame_digest(payload, key)
    return _HEADER.pack(MAGIC, version, len(payload), digest) + payload


def check_header(header: bytes, version: int = WIRE_VERSION) -> int:
    """Validate a frame header; returns the promised payload length."""
    if len(header) < HEADER_SIZE:
        raise ProtocolError(
            f"frame header truncated: {len(header)} of {HEADER_SIZE} "
            f"bytes", reason="truncated")
    magic, found_version, length, _digest = _HEADER.unpack_from(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r} != {MAGIC!r}",
                            reason="bad-magic")
    if found_version != version:
        raise ProtocolError(
            f"wire version {found_version} != {version}",
            reason="version-mismatch")
    if length == 0:
        raise ProtocolError("zero-length frame payload",
                            reason="empty-payload")
    if length > MAX_PAYLOAD:
        raise ProtocolError(
            f"frame payload of {length} bytes exceeds the "
            f"{MAX_PAYLOAD}-byte ceiling", reason="oversize")
    return length


def decode_payload(header: bytes, payload: bytes,
                   key: Optional[bytes] = None) -> dict:
    """Checksum-validate *payload* against *header* and parse it."""
    _magic, _version, length, digest = _HEADER.unpack_from(header)
    if len(payload) != length:
        raise ProtocolError(
            f"frame payload {len(payload)} bytes, header promised "
            f"{length}", reason="truncated")
    if not hmac.compare_digest(_frame_digest(payload, key), digest):
        if key:
            raise ProtocolError(
                "frame HMAC mismatch: peer is unkeyed or keyed with a "
                "different secret", reason="auth-mismatch")
        raise ProtocolError("frame payload sha256 mismatch",
                            reason="checksum-mismatch")
    if len(payload) < _ENVELOPE_LEN.size:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes cannot hold its "
            f"header length", reason="bad-json")
    (header_len,) = _ENVELOPE_LEN.unpack_from(payload)
    body_at = _ENVELOPE_LEN.size + header_len
    if body_at > len(payload):
        raise ProtocolError(
            f"frame header length {header_len} overruns the "
            f"{len(payload)}-byte payload", reason="bad-json")
    try:
        message = json.loads(
            payload[_ENVELOPE_LEN.size:body_at].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"frame header is not valid JSON: {exc}",
                            reason="bad-json") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame header is {type(message).__name__}, not an object",
            reason="bad-json")
    if "body" in message:
        raise ProtocolError("frame header carries a body key",
                            reason="bad-json")
    if body_at < len(payload):
        message["body"] = payload[body_at:]
    return message


def decode_frame(blob: bytes, key: Optional[bytes] = None) -> dict:
    """Decode one complete frame held in memory (tests, corruption)."""
    length = check_header(blob[:HEADER_SIZE])
    payload = blob[HEADER_SIZE:]
    if len(payload) > length:
        raise ProtocolError(
            f"{len(payload) - length} trailing bytes after frame",
            reason="truncated")
    return decode_payload(blob[:HEADER_SIZE], payload, key)


async def read_frame_async(reader: asyncio.StreamReader,
                           key: Optional[bytes] = None
                           ) -> Optional[dict]:
    """Read one frame from an asyncio stream; None on clean EOF.

    Partial reads across frame boundaries are the normal case for TCP
    (``readexactly`` reassembles); EOF *inside* a frame — a peer that
    died mid-send — is a ``truncated`` protocol error, never a hang.
    """
    try:
        header = await reader.readexactly(HEADER_SIZE)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between frames
        raise ProtocolError(
            f"connection closed {len(exc.partial)} bytes into a frame "
            f"header", reason="truncated") from None
    length = check_header(header)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection closed {len(exc.partial)} of {length} bytes "
            f"into a frame payload", reason="truncated") from None
    return decode_payload(header, payload, key)


def read_frame_blocking(read_exactly,
                        key: Optional[bytes] = None) -> Optional[dict]:
    """Read one frame via *read_exactly(n) -> bytes* (sync client side).

    *read_exactly* must return exactly ``n`` bytes, ``b""`` on clean
    EOF before any byte arrives, or raise on timeout/short reads.
    """
    header = read_exactly(HEADER_SIZE)
    if header == b"":
        return None
    length = check_header(header)
    return decode_payload(header, read_exactly(length), key)


# -- envelope bodies ----------------------------------------------------------

def pack_body(obj: Any) -> bytes:
    """Pickle *obj* into frame body bytes."""
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def unpack_body(data: Optional[bytes]) -> Any:
    """Deserialize a frame body through the allowlisted loader
    (:func:`repro.resilience.integrity.load_payload`)."""
    if data is None:
        return None
    try:
        return integrity.load_payload(data)
    except integrity.RefusedPayload as exc:
        if exc.reason == "forbidden-global":
            raise ProtocolError(f"frame body: {exc}",
                                reason="forbidden-global") from None
        raise ProtocolError(f"undecodable frame body: {exc}",
                            reason="bad-json") from None


@dataclass(frozen=True)
class PackedBody:
    """A body already run through :func:`pack_body`: :func:`request`
    sends its ``data`` verbatim, so a retry re-sends the same bytes."""

    data: bytes


#: Per-loop memo of packed ``translate`` bodies: ``(id(accelerator),
#: id(options))`` -> ``(accelerator, options, PackedBody)``.  Like the
#: digest memo it relies on loops being immutable once built, and
#: ``Loop.__getstate__`` drops it (every ``_veal_*`` attribute).
_TRANSLATE_BODY_ATTR = "_veal_wire_translate"
#: Distinct (accelerator, options) objects one loop keeps bodies for;
#: past it the memo starts over.
_TRANSLATE_BODY_SLOTS = 8


def translate_body(loop: Any, accelerator: Any = None,
                   options: Any = None) -> PackedBody:
    """The packed body of ``translate(loop, accelerator, options)``.

    Packed once per (loop, accelerator, options) and memoised on the
    loop.  The memo matches *accelerator* and *options* by identity,
    not equality: ``options_digest`` ignores ``deadline_s``, but the
    body must carry the caller's own options object.
    """
    if not isinstance(loop, Loop):
        return PackedBody(pack_body((loop, accelerator, options)))
    memo = loop.__dict__.get(_TRANSLATE_BODY_ATTR)
    slot = (id(accelerator), id(options))
    hit = None if memo is None else memo.get(slot)
    if hit is not None and hit[0] is accelerator and hit[1] is options:
        return hit[2]
    body = PackedBody(pack_body((loop, accelerator, options)))
    if memo is None or len(memo) >= _TRANSLATE_BODY_SLOTS:
        memo = loop.__dict__[_TRANSLATE_BODY_ATTR] = {}
    memo[slot] = (accelerator, options, body)
    return body


# -- envelopes ----------------------------------------------------------------

def _body_bytes(body: Any) -> bytes:
    return body.data if isinstance(body, PackedBody) else pack_body(body)


def request(op: str, req_id: int, body: Any = None, *,
            session: Optional[str] = None,
            idempotency_key: Optional[str] = None,
            deadline_s: Optional[float] = None,
            **extra: Any) -> dict:
    """A request envelope; *body* may be a :class:`PackedBody`."""
    message = {"type": "request", "op": op, "id": req_id}
    if body is not None:
        message["body"] = _body_bytes(body)
    if session is not None:
        message["session"] = session
    if idempotency_key is not None:
        message["idempotency_key"] = idempotency_key
    if deadline_s is not None:
        message["deadline_s"] = deadline_s
    message.update(extra)
    return message


def ok_response(req_id: Optional[int], body: Any = None) -> dict:
    """A success envelope; *body* may be a :class:`PackedBody`."""
    message = {"type": "response", "id": req_id, "ok": True}
    if body is not None:
        message["body"] = _body_bytes(body)
    return message


def error_response(req_id: Optional[int], exc: BaseException) -> dict:
    """Encode *exc* as a typed error envelope: kind, message,
    ``retry_after`` and (for a ``ReproError``) every attribute that
    survives JSON unchanged, from which :func:`raise_error` rebuilds it."""
    error: dict = {
        "kind": getattr(exc, "kind", "error"),
        "message": str(exc),
    }
    retry_after = getattr(exc, "retry_after", None)
    if retry_after:
        error["retry_after"] = round(float(retry_after), 6)
    if isinstance(exc, ReproError):
        error["fields"] = {name: value
                           for name, value in vars(exc).items()
                           if name != "message" and _json_safe(value)}
    return {"type": "response", "id": req_id, "ok": False,
            "error": error}


def _json_safe(value: Any) -> bool:
    """Whether *value* comes back from JSON equal and of the same type."""
    try:
        return json.loads(json.dumps(value, sort_keys=True)) == value
    except (TypeError, ValueError):
        return False


def raise_error(message: dict) -> None:
    """Re-raise an error envelope's failure: the kind picks the class
    (else :class:`~repro.errors.ServiceError`), the fields refill it."""
    error = message.get("error") or {}
    kind = error.get("kind", "error")
    exc = ERROR_CLASSES.get(kind, ServiceError)(
        error.get("message", f"remote {kind} failure"))
    retry_after = error.get("retry_after")
    if retry_after is not None:
        exc.retry_after = float(retry_after)
    fields = error.get("fields")
    if isinstance(fields, dict):
        exc.__dict__.update(fields)
    raise exc
