"""Stable content digests for translation inputs.

A digest is a SHA-256 over a canonical, order-stable rendering of the
object — *what* the translator/timing model reads, not object identity.
Two structurally identical loops built in different processes digest
identically, which is what lets the translation cache persist on disk
across runs and be shared by the shards of a cluster.

Cosmetic fields (``Operation.comment``) are excluded; everything with
semantic weight (opcode, operands, predicates, CCA inner ops, stream
ids, array shapes/aliasing, trip counts, annotations) is included.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.ir.loop import ArrayDecl, Loop
from repro.ir.opcodes import LatencyModel
from repro.ir.ops import Imm, Operation, Reg

#: Bump when digest composition or cached-value layout changes, so a
#: stale on-disk cache can never resurface under a new code version.
DIGEST_VERSION = "veal-perf-2"

_LOOP_DIGEST_ATTR = "_veal_loop_digest"


def _canon(value: Any) -> Any:
    """Render *value* as nested primitive tuples, deterministically."""
    if isinstance(value, (int, float, str, bool)) or value is None:
        if isinstance(value, float):
            return ("f", repr(value))
        return value
    if isinstance(value, Reg):
        return ("reg", value.name, value.space)
    if isinstance(value, Imm):
        return ("imm", _canon(value.value))
    if isinstance(value, Operation):
        return (
            "op", value.opid, value.opcode.name,
            tuple(_canon(d) for d in value.dests),
            tuple(_canon(s) for s in value.srcs),
            _canon(value.predicate),
            tuple(_canon(i) for i in value.inner),
            value.stream_id,
        )
    if isinstance(value, ArrayDecl):
        return ("array", value.name, value.length, value.is_float,
                value.may_alias)
    if isinstance(value, LatencyModel):
        return ("latency", tuple(sorted(
            (op.name, lat) for op, lat in value.overrides.items())))
    if isinstance(value, dict):
        return ("dict", tuple(sorted(
            (repr(_canon(k)), _canon(v)) for k, v in value.items())))
    if isinstance(value, (list, tuple)):
        return ("seq",) + tuple(_canon(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted(repr(_canon(v)) for v in value)))
    # Fall back to repr for enums and small config dataclasses whose
    # repr is value-based (frozen dataclasses).
    return ("repr", repr(value))


def digest_of(*parts: Any) -> str:
    """SHA-256 hex digest of the canonical rendering of *parts*."""
    payload = repr((DIGEST_VERSION,) + tuple(_canon(p) for p in parts))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def loop_digest(loop: Loop) -> str:
    """Content digest of a loop, memoised on the instance.

    Loops are treated as immutable once built (every transform goes
    through :meth:`Loop.rebuild` / :meth:`Operation.copy`, which create
    fresh objects), so caching the digest on the object is safe; the
    attribute is excluded from pickling.
    """
    cached = loop.__dict__.get(_LOOP_DIGEST_ATTR)
    if cached is not None:
        return cached
    value = digest_of(
        "loop", loop.name,
        tuple(loop.body), tuple(loop.live_ins), tuple(loop.live_outs),
        tuple(loop.arrays), loop.trip_count, loop.invocations,
        loop.annotations,
    )
    loop.__dict__[_LOOP_DIGEST_ATTR] = value
    return value


def options_digest(options) -> str:
    """Digest of a :class:`~repro.vm.translator.TranslationOptions`."""
    return digest_of(
        "options", options.use_static_cca, options.use_static_priority,
        options.use_static_mii, options.priority_kind,
        options.latency_model, options.work_budget,
    )


def latency_key(latency_model: LatencyModel) -> tuple:
    """Hashable identity of a latency model's *content*.

    ``LatencyModel`` is mutable and unhashable, so memos keyed on one
    use this instead of the object.
    """
    return tuple(sorted(
        (op.name, lat) for op, lat in latency_model.overrides.items()))


def cpu_key(config, latency_model: LatencyModel) -> tuple:
    """Hashable identity of a scalar-pipeline timing model."""
    return (config, latency_key(latency_model))
