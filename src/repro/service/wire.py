"""The framed, checksummed JSON wire protocol of the loop service.

Every message on a service connection — request or response — travels
as one frame reusing the PR 3 disk-cache frame discipline
(:mod:`repro.resilience.integrity`), with its own magic:

    ``RVNW`` | version (u32) | payload length (u64) | sha256(payload)
    | payload

The payload is a UTF-8 JSON object.  Binary request/response bodies
(loops, accelerator configs, translation results) ride inside the JSON
envelope as base64-encoded pickles under the ``"body"`` key, so the
*envelope* — op, request id, session, idempotency key, error kind,
``retry_after`` hint — is a checkable, language-agnostic contract
(the ILA posture from PAPERS.md) while the bodies stay exact Python
values.

Every violation is a typed :class:`~repro.errors.ProtocolError` with a
stable ``reason`` tag mirroring the cache-integrity taxonomy:
``bad-magic``, ``version-mismatch``, ``truncated``,
``checksum-mismatch``, ``auth-mismatch``, ``empty-payload``,
``oversize``, ``bad-json``, ``forbidden-global``.
A protocol error means the stream may no longer be frame-aligned; both
peers respond by closing the connection (the client reconnects and
resubmits — safe, because single-flight dedup on the transcache digest
makes identical translations exactly-once).

Trust model
-----------
Frame bodies are pickles, and unpickling attacker-controlled bytes is
arbitrary code execution, so *both* directions deserialize through a
restricted unpickler (:func:`unpack_body`) that resolves only classes
and functions defined inside the ``repro`` package plus a short list
of safe builtins — ``os.system`` and friends are unreachable and any
other global is a ``forbidden-global`` protocol error.  That bounds
the blast radius but is **not** authentication: the per-frame digest
is plain SHA-256 (integrity only) unless both peers share a secret,
in which case it becomes HMAC-SHA256 and an unkeyed or wrongly-keyed
peer's frames fail with ``auth-mismatch``.  The server therefore
refuses to bind a non-loopback address without a secret
(:class:`repro.service.net.NetServer`); loopback-only service among
same-user processes is the supported no-secret deployment.
"""

from __future__ import annotations

import asyncio
import base64
import builtins
import hashlib
import hmac
import io
import json
import pickle
import struct
import types
from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import (
    AdmissionRejected,
    ProtocolError,
    ReproError,
    ServiceClosed,
    ServiceError,
    ServiceOverload,
    SessionBudgetExceeded,
    ShardMovedError,
)
from repro.ir.loop import Loop

#: Bumped whenever the envelope layout changes; a peer speaking a
#: different version is rejected with reason ``version-mismatch``.
WIRE_VERSION = 1

MAGIC = b"RVNW"
_HEADER = struct.Struct("<4sIQ32s")  # magic, version, length, sha256
HEADER_SIZE = _HEADER.size

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
    """Serialise *message* (a JSON-safe dict) into one wire frame."""
    payload = json.dumps(message, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
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
    try:
        message = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"frame payload is not valid JSON: {exc}",
                            reason="bad-json") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload is {type(message).__name__}, not an object",
            reason="bad-json")
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

#: Builtins a frame body's pickle stream may name.  Containers and
#: scalars (list/dict/tuple/str/int/float/bytes/bool/None) travel as
#: dedicated opcodes and never reach ``find_class``; this list is only
#: the handful of constructors pickle references *by name*.
_SAFE_BUILTINS = frozenset({
    "bytearray", "complex", "frozenset", "range", "set", "slice",
})


class _RestrictedUnpickler(pickle.Unpickler):
    """An unpickler that resolves only ``repro`` globals.

    ``pickle.loads`` on network bytes is arbitrary code execution —
    a stream naming ``os.system`` runs it during load.  Frame bodies
    carry exactly the reproduction's own value types (loops,
    accelerator configs, translation results, typed errors), so the
    global namespace a body may reference is pinned to classes and
    functions *defined in* the ``repro`` package plus a short builtin
    allow-list.  Everything else — other modules, module objects
    reachable as attributes of repro modules (``repro.x.os``), repro
    attributes that merely re-export foreign callables — is a
    ``forbidden-global`` protocol violation.
    """

    def find_class(self, module: str, name: str) -> Any:
        if module == "builtins" and name in _SAFE_BUILTINS:
            return getattr(builtins, name)
        if module == "repro" or module.startswith("repro."):
            obj = super().find_class(module, name)
            defined_in = getattr(obj, "__module__", "") or ""
            if (not isinstance(obj, types.ModuleType)
                    and (defined_in == "repro"
                         or defined_in.startswith("repro."))):
                return obj
        raise pickle.UnpicklingError(
            f"frame body references forbidden global "
            f"{module}.{name}")


def pack_body(obj: Any) -> str:
    """Pickle *obj* into a JSON-safe base64 string."""
    return base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def unpack_body(data: Optional[str]) -> Any:
    """Deserialize a frame body through the restricted unpickler."""
    if data is None:
        return None
    try:
        blob = base64.b64decode(data.encode("ascii"))
    except Exception as exc:  # noqa: BLE001 — anything here is protocol
        raise ProtocolError(f"undecodable frame body: {exc}",
                            reason="bad-json") from None
    try:
        return _RestrictedUnpickler(io.BytesIO(blob)).load()
    except pickle.UnpicklingError as exc:
        if "forbidden global" in str(exc):
            raise ProtocolError(str(exc),
                                reason="forbidden-global") from None
        raise ProtocolError(f"undecodable frame body: {exc}",
                            reason="bad-json") from None
    except Exception as exc:  # noqa: BLE001 — anything here is protocol
        raise ProtocolError(f"undecodable frame body: {exc}",
                            reason="bad-json") from None


@dataclass(frozen=True)
class PackedBody:
    """A body already run through :func:`pack_body`: :func:`request`
    sends its ``data`` verbatim, so a retry re-sends the same bytes."""

    data: str


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

def request(op: str, req_id: int, body: Any = None, *,
            session: Optional[str] = None,
            idempotency_key: Optional[str] = None,
            deadline_s: Optional[float] = None,
            **extra: Any) -> dict:
    """A request envelope; *body* may be a :class:`PackedBody`."""
    message = {"type": "request", "op": op, "id": req_id}
    if body is not None:
        message["body"] = (body.data if isinstance(body, PackedBody)
                           else pack_body(body))
    if session is not None:
        message["session"] = session
    if idempotency_key is not None:
        message["idempotency_key"] = idempotency_key
    if deadline_s is not None:
        message["deadline_s"] = deadline_s
    message.update(extra)
    return message


def ok_response(req_id: Optional[int], body: Any = None) -> dict:
    message = {"type": "response", "id": req_id, "ok": True}
    if body is not None:
        message["body"] = pack_body(body)
    return message


def error_response(req_id: Optional[int], exc: BaseException) -> dict:
    """Encode *exc* as a typed error envelope.

    Structured :class:`~repro.errors.ReproError` failures cross the
    wire losslessly as a pickled body (the client re-raises the exact
    instance); the JSON envelope still names the kind, message and
    ``retry_after`` so non-Python tooling can act on rejections.
    """
    error: dict = {
        "kind": getattr(exc, "kind", "error"),
        "message": str(exc),
    }
    retry_after = getattr(exc, "retry_after", None)
    if retry_after:
        error["retry_after"] = round(float(retry_after), 6)
    message = {"type": "response", "id": req_id, "ok": False,
               "error": error}
    if isinstance(exc, ReproError):
        try:
            message["body"] = pack_body(exc)
        except Exception:  # noqa: BLE001 — unpicklable details: envelope only
            pass
    return message


#: Error kinds the client re-raises as their typed classes even when
#: the pickled body is absent (a non-Python or minimal server).
_ERROR_CLASSES = {
    "admission-rejected": AdmissionRejected,
    "service-overload": ServiceOverload,
    "session-budget": SessionBudgetExceeded,
    "service-closed": ServiceClosed,
    "shard-moved": ShardMovedError,
    "protocol": ProtocolError,
}


def raise_error(message: dict) -> None:
    """Re-raise the failure carried by an error response envelope."""
    body = message.get("body")
    if body is not None:
        exc = unpack_body(body)
        if isinstance(exc, BaseException):
            raise exc
    error = message.get("error") or {}
    kind = error.get("kind", "error")
    cls = _ERROR_CLASSES.get(kind, ServiceError)
    exc = cls(error.get("message", f"remote {kind} failure"))
    retry_after = error.get("retry_after")
    if retry_after is not None:
        exc.retry_after = float(retry_after)
    raise exc
