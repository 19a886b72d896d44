"""Kernel specialization: compile a modulo schedule into Python.

The third engine tier (``REPRO_ENGINE=2``).  The overlapped executor
(:mod:`repro.accelerator.pipeline_executor`) pays event-queue dispatch
for every scheduled op of every iteration; this module instead emits
one *whole-array function* per (image, trip count) and runtime
signature, compiled with :func:`compile`/``exec`` and cached in-process
keyed on the translation digest.  One emitter (:class:`_Codegen`) owns
the producer map, the type pass, the liveness pass and the emission:

* **streams** — each load stream is gathered once as a slice of the
  memory buffers over its affine stream range and classified off the
  cells' tags (int64 ints, Python floats, or raw floats such as
  ``np.float64``, whose object list is built only if the body reads
  it); one body is compiled per class signature.  Each store commits
  as one slice assignment that also sets the cells' tags.
* **acyclic ops** — in topological order of the value graph's strongly
  connected components, every op outside a recurrence is one numpy
  expression over all ``trips`` lanes, returning per lane exactly what
  the reference returns (native int64 wrap, ``uint64`` views for
  logical shifts, ``np.where`` with the scalar operand order).
* **recurrences** — each cyclic component runs as one scalar loop over
  the element lists it reads, emitted through typed templates (each op
  in the cheapest form that returns exactly what the reference returns,
  value and type), so float accumulators keep their order bit for bit.
* **declines** — on a possible memory-order hazard, a stream or live-in
  it cannot classify, a lane an ``int()`` cannot take exactly, or any
  raise, it returns before any write; stores commit only after every
  value.  A declined call runs the reference executor instead, which
  also raises whatever the data makes it raise.

**Closed-form timing** — cycles, max inflight iterations and
per-resource utilization are computed from schedule arithmetic at
specialization time, term-for-term identical to what the event
executor measures, so figure text stays byte-identical.

An image the emitter does not take (a memory-ordering edge, an
unsupported shape) is negative-cached and runs on the reference
executors.  A guard cross-check mismatch drops the image's kernels (the
next call recompiles).  The reference interpreter remains ground truth.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from repro import obs
from repro.accelerator.machine import KernelImage
from repro.accelerator.pipeline_executor import (OverlappedRun,
                                                 execute_overlapped)
from repro.cpu.memory import Memory, Value
from repro.ir.graphalgo import strongly_connected_components
from repro.ir.loop import check_trip_count
from repro.ir.opcodes import Opcode, trunc_div, trunc_rem, wrap64
from repro.ir.ops import Imm, Operation, Reg
from repro.perf.codecache import MISS, CodeCache
from repro.scheduler.mii import sched_resource


class SpecializationUnsupported(Exception):
    """The emitter does not reproduce this image, or this runtime
    signature, exactly; ``args[0]`` says why (a signature's refusal is
    its decline label)."""


@dataclass
class SpecializedKernel:
    """One specialized loop: its whole-array function and closed-form
    facts."""

    loop_name: str
    trips: int
    #: Live-out registers produced by the kernel, in return order.
    out_regs: tuple[Reg, ...]
    #: Live-ins that must be present in the runtime mapping (every
    #: value read of a live-in plus the stream-base registers); a
    #: missing one falls back to the reference executor, which reports
    #: the fault identically.
    required: frozenset
    vector: "_VectorKernel"
    #: Closed-form OverlappedRun facts.
    cycles: int
    max_inflight: int
    utilization: dict[str, float]

    def run(self, memory: Memory, live_ins: Mapping[Reg, Value]
            ) -> Optional[dict[Reg, Value]]:
        """Execute over *memory*; returns the produced live-outs, or
        None after a decline that left *memory* untouched (the caller
        then runs the reference executor)."""
        values = self.vector.run(memory, live_ins)
        return None if values is None else dict(zip(self.out_regs, values))


def _count_decline(reason: str) -> None:
    obs.inc("jit.vector_declines")
    obs.inc(f"jit.vector_declines.{reason}")


# -- in-process code cache ----------------------------------------------------

_stats = {"compiled": 0, "unsupported": 0, "errors": 0, "deopts": 0}

#: Max cached kernels.  Negative (unsupported) entries count too — they
#: are tiny, but an unbounded negative set is still a leak.  The key
#: embeds the trip count, so a long-lived service seeing varying trips
#: for one loop would otherwise grow the cache without bound.
CODE_CACHE_LIMIT = 256

#: Test seam: when set, applied to the specialized live-outs as
#: ``hook(loop_name, live_outs) -> live_outs`` so guard tests can force
#: a cross-check mismatch without touching real machine state, and the
#: ``faults`` campaign's ``jit-live-out`` family can flip a bit of one
#: live-out (its plugin resets the hook on close).
_test_corruption: Optional[Callable[[str, dict], dict]] = None


def set_test_corruption(hook: Optional[Callable[[str, dict], dict]]) -> None:
    global _test_corruption
    _test_corruption = hook


#: key -> SpecializedKernel, or None for a negative (unsupported) entry.
_code_cache: CodeCache[tuple, Optional[SpecializedKernel]] = CodeCache(
    CODE_CACHE_LIMIT, "jit.code_cache_evicted")


def clear_code_cache() -> None:
    _code_cache.clear()
    obs.set_gauge("jit.code_cache_size", 0)


def code_cache_stats() -> dict:
    cache = _code_cache.stats
    return dict(_stats, hits=cache.hits, evicted=cache.evictions,
                entries=len(_code_cache), limit=_code_cache.capacity)


def invalidate_image(image: KernelImage) -> int:
    """Drop every compiled kernel of *image*'s translation (any trip
    count); the guard deopt path.  The next call recompiles.  Keys lead
    with the digest, not the loop name, so one loop's deopt never drops
    the kernels of another loop that shares its name."""
    digest = _image_digest(image)
    dropped = 0
    for key in _code_cache.keys():
        if key[0] == digest:
            kernel = _code_cache.peek(key)
            if _code_cache.invalidate(key) and kernel is not None:
                dropped += 1
    if dropped:
        _stats["deopts"] += dropped
        obs.inc("vm.specialize_deopt", dropped)
    obs.set_gauge("jit.code_cache_size", len(_code_cache))
    return dropped


def _image_digest(image: KernelImage) -> str:
    """The translation digest the translator stamped on *image*, else
    a content digest of the loop and its schedule."""
    digest = getattr(image, "digest", None)
    if digest is None:
        from repro.perf.digest import digest_of, loop_digest
        schedule = image.schedule
        digest = digest_of(
            "jit-image", loop_digest(image.loop), schedule.ii,
            sorted(schedule.times.items()),
            schedule.completion_time(image.dfg))
    return digest


def _image_key(image: KernelImage, trips: int) -> tuple:
    """Cache key: the image digest plus the facts it does not pin (trip
    specialization and the caller-config unit pools)."""
    units = tuple(sorted(image.schedule.units.items()))
    return (_image_digest(image), trips, units)


def _codegen_error(exc: Exception, loop_name: str, trips: int) -> None:
    """A codegen crash must never take down the reference path, but it
    is a bug, not a shape: count and record it apart so it cannot hide
    as a silent slowdown."""
    _stats["errors"] += 1
    obs.inc("jit.codegen_errors")
    from repro.resilience.incidents import record_incident
    record_incident("jit-codegen-error", "accelerator.jit",
                    f"{type(exc).__name__}: {exc}",
                    loop=loop_name, trips=trips)


def kernel_for(image: KernelImage, trips: int
               ) -> Optional[SpecializedKernel]:
    """The compiled kernel for (image, trips), or None if unsupported."""
    key = _image_key(image, trips)
    kernel = _code_cache.lookup(key, MISS)
    if kernel is not MISS:
        return kernel
    started = time.perf_counter()
    try:
        kernel = specialize(image, trips)
        _stats["compiled"] += 1
    except SpecializationUnsupported:
        kernel = None
        _stats["unsupported"] += 1
    except Exception as exc:
        kernel = None
        _stats["unsupported"] += 1
        _codegen_error(exc, image.loop.name, trips)
    obs.observe("jit.compile_ms",
                obs.ms_bucket((time.perf_counter() - started) * 1000.0))
    _code_cache.insert(key, kernel)
    obs.set_gauge("jit.code_cache_size", len(_code_cache))
    return kernel


# -- codegen ------------------------------------------------------------------

#: Value kinds the type pass proves at specialization time.  ``INT64``
#: is a Python ``int`` in signed-64 range; ``INT`` a Python ``int`` of
#: any size (MIN/MAX of converted unknowns); ``FLOAT`` a Python
#: ``float``.  Anything else -- a load, a live-in, a value some instance
#: may take from a live-in -- is ``UNKNOWN`` and keeps the reference
#: conversions.
INT64, INT, FLOAT, UNKNOWN = "int64", "int", "float", "unknown"
_INTS = (INT64, INT)

_BIAS = str(1 << 63)
_MASK = str((1 << 64) - 1)


class _Val(NamedTuple):
    """A typed operand: its source expression, its kind, and its value
    when it is an ``int`` immediate (shift amounts, masks)."""

    expr: str
    kind: str
    const: Optional[int] = None


def _join(a: str, b: str) -> str:
    if a == b:
        return a
    return INT if a in _INTS and b in _INTS else UNKNOWN


def _imm(value) -> _Val:
    if type(value) is int:
        kind = INT64 if -(1 << 63) <= value < (1 << 63) else INT
        return _Val(f"({value})" if value < 0 else str(value), kind, value)
    if type(value) is float:
        if not math.isfinite(value):
            return _Val(f"float({str(value)!r})", FLOAT)
        text = repr(value)
        return _Val(f"({text})" if text[0] == "-" else text, FLOAT)
    if type(value) is bool:
        return _Val(repr(value), UNKNOWN)
    raise SpecializationUnsupported(
        f"immediate {value!r} of type {type(value).__name__}")


def _int(v: _Val) -> str:
    return v.expr if v.kind in _INTS else f"int({v.expr})"


def _float(v: _Val) -> str:
    return v.expr if v.kind == FLOAT else f"float({v.expr})"


def _int_raises(*vals: _Val) -> bool:
    """``int()`` of anything but an int may raise (nan, inf)."""
    return any(v.kind not in _INTS for v in vals)


def _float_raises(*vals: _Val) -> bool:
    """``float()`` of an int beyond 2**1024 raises; int64 never does."""
    return any(v.kind in (INT, UNKNOWN) for v in vals)


def _wrap(expr: str) -> str:
    """``wrap64`` inlined: a range test that returns the value itself,
    else ``((x + 2**63) & (2**64-1)) - 2**63`` (measured cheaper than
    the arithmetic alone, which allocates)."""
    return (f"(__t if -{_BIAS} <= (__t := {expr}) < {_BIAS} "
            f"else (__t + {_BIAS} & {_MASK}) - {_BIAS})")


#: opcode -> (typed form, operator symbol or template) for
#: :func:`_value_expr`.
_FORMS = {
    Opcode.ADD: ("arith", "+"), Opcode.SUB: ("arith", "-"),
    Opcode.MUL: ("arith", "*"),
    Opcode.AND: ("bitwise", "&"), Opcode.OR: ("bitwise", "|"),
    Opcode.XOR: ("bitwise", "^"),
    Opcode.SHL: ("shift", "<<"), Opcode.SHR: ("shift", ">>"),
    Opcode.SHRU: ("shift", ">>>"),
    Opcode.CMPEQ: ("compare", "=="), Opcode.CMPNE: ("compare", "!="),
    Opcode.CMPLT: ("compare", "<"), Opcode.CMPLE: ("compare", "<="),
    Opcode.CMPGT: ("compare", ">"), Opcode.CMPGE: ("compare", ">="),
    Opcode.MIN: ("minmax", "<"), Opcode.MAX: ("minmax", ">"),
    Opcode.NEG: ("negabs", "-{}"), Opcode.ABS: ("negabs", "abs({})"),
    Opcode.NOT: ("not", None),
    Opcode.DIV: ("div", None), Opcode.REM: ("rem", None),
    Opcode.FADD: ("farith", "+"), Opcode.FSUB: ("farith", "-"),
    Opcode.FMUL: ("farith", "*"),
    Opcode.FCMPLT: ("fcompare", "<"), Opcode.FCMPLE: ("fcompare", "<="),
    Opcode.FCMPEQ: ("fcompare", "=="),
    Opcode.FMIN: ("fminmax", "<"), Opcode.FMAX: ("fminmax", ">"),
    Opcode.FDIV: ("fdiv", None),
    Opcode.FNEG: ("funary", "(-{})"), Opcode.FABS: ("funary", "abs({})"),
    Opcode.ITOF: ("itof", None), Opcode.FTOI: ("ftoi", None),
    Opcode.MOV: ("copy", None), Opcode.LDI: ("copy", None),
    Opcode.SELECT: ("select", None),
}

def _value_expr(op: Operation, operands: list[_Val]
                ) -> tuple[str, str, bool]:
    """``(expr, kind, raises)`` for a pure value op (no memory, no CCA).

    Each expression is the cheapest form that returns exactly what
    ``Interpreter.execute_op`` returns, value and type; ``raises`` says
    whether it converts a value not proven int (resp. float), so it may
    raise where the reference raises (``int(nan)``, ``int(inf)``).
    """
    form, sym = _FORMS.get(op.opcode, (None, None))
    a = operands[0] if operands else None
    b = operands[1] if len(operands) > 1 else None
    if form == "arith":
        return _wrap(f"{_int(a)} {sym} {_int(b)}"), INT64, _int_raises(a, b)
    if form == "bitwise":
        # Infinite two's complement: bitwise ops of int64s are int64
        # and equal the wrapped 64-bit result; so is ``x & mask`` for a
        # non-negative int64 mask.
        if a.kind == INT64 and b.kind == INT64:
            expr = f"({a.expr} {sym} {b.expr})"
        elif sym == "&" and any(v.kind == INT64 and v.const is not None
                                and v.const >= 0 for v in (a, b)):
            expr = f"({_int(a)} & {_int(b)})"
        else:
            expr = _wrap(f"{_int(a)} {sym} {_int(b)}")
        return expr, INT64, _int_raises(a, b)
    if form == "shift":
        x = _int(a)
        if b.const is not None:
            k = b.const & 63
            amount, raises = str(k), _int_raises(a)
        else:
            k = None
            amount, raises = f"({_int(b)} & 63)", _int_raises(a, b)
        exact = a.kind == INT64
        if k == 0:
            expr = x if exact else _wrap(x)
        elif sym == "<<":
            expr = _wrap(f"{x} << {amount}")
        elif sym == ">>":
            # An arithmetic right shift keeps an int64 in range.
            expr = f"({x} >> {amount})" if exact else _wrap(
                f"{x} >> {amount}")
        elif k is not None:
            # Logical: the 64-bit pattern shifted by 1..63 is in range.
            expr = f"(({x} & {_MASK}) >> {k})"
        else:
            expr = _wrap(f"({x} & {_MASK}) >> {amount}")
        return expr, INT64, raises
    if form == "compare":
        # int(a < b) never needs its operands converted; the result
        # stays an int, never a bool.
        return (f"(1 if {a.expr} {sym} {b.expr} else 0)", INT64,
                UNKNOWN in (a.kind, b.kind))
    if form == "minmax":
        if a.kind == INT64 and b.kind == INT64:
            # min(a, b) keeps a unless b < a (max: unless b > a).
            return (f"({b.expr} if {b.expr} {sym} {a.expr} else {a.expr})",
                    INT64, False)
        name = "min" if sym == "<" else "max"
        return f"{name}({_int(a)}, {_int(b)})", INT, _int_raises(a, b)
    if form == "negabs":
        return _wrap(sym.format(_int(a))), INT64, _int_raises(a)
    if form == "not":
        if a.kind == INT64:
            return f"(~{a.expr})", INT64, False
        return _wrap(f"~{_int(a)}"), INT64, _int_raises(a)
    if form == "div":
        # The divisor is converted once, the dividend only if it is used.
        return (f"(0 if (__d := {_int(b)}) == 0 else "
                f"{_wrap(f'__tdiv({_int(a)}, __d)')})", INT64,
                _int_raises(a, b))
    if form == "rem":
        # The reference converts the divisor, then the dividend, and
        # only then tests for zero.
        return (f"(0 if ((__d := {_int(b)}), (__n := {_int(a)}))[0] == 0 "
                f"else {_wrap('__trem(__n, __d)')})", INT64,
                _int_raises(a, b))
    if form == "farith":
        return (f"({_float(a)} {sym} {_float(b)})", FLOAT,
                _float_raises(a, b))
    if form == "fcompare":
        return (f"(1 if {_float(a)} {sym} {_float(b)} else 0)", INT64,
                _float_raises(a, b))
    if form == "fminmax":
        if a.kind == FLOAT and b.kind == FLOAT:
            return (f"({b.expr} if {b.expr} {sym} {a.expr} else {a.expr})",
                    FLOAT, False)
        name = "min" if sym == "<" else "max"
        return (f"{name}({_float(a)}, {_float(b)})", FLOAT,
                _float_raises(a, b))
    if form == "fdiv":
        return (f"(0.0 if (__f := {_float(b)}) == 0.0 else "
                f"{_float(a)} / __f)", FLOAT, _float_raises(a, b))
    if form == "funary":
        return sym.format(_float(a)), FLOAT, _float_raises(a)
    if form == "itof":
        # float() of an int beyond 2**1024 raises too.
        return f"float({_int(a)})", FLOAT, a.kind != INT64
    if form == "ftoi":
        return _wrap(f"int({_float(a)})"), INT64, a.kind != INT64
    if form == "copy":
        return a.expr, a.kind, False
    if form == "select":
        c = operands[2]
        return (f"({b.expr} if {a.expr} else {c.expr})",
                _join(b.kind, c.kind), False)
    raise SpecializationUnsupported(f"opcode {op.opcode} has no typed form")


# -- whole-array values -------------------------------------------------------

#: Runtime classes of a whole-array value: each element's reference
#: object is an ``int`` in signed-64 range (``_VI``), a Python
#: ``float`` (``_VF``), or a float that may be another float type such
#: as ``np.float64`` and is copied as itself (``_VR``, raw).  Arrays
#: hold int64 resp. float64; a raw value also keeps its object list.
#: A load stream's class is the one :meth:`Memory.gather` names.
_VI, _VF, _VR = "i", "f", "r"
_KIND_OF = {_VI: INT64, _VF: FLOAT, _VR: UNKNOWN}
_TWO63 = 9223372036854775808.0


def _vjoin(a: str, b: str) -> str:
    if a == b:
        return a
    if _VI in (a, b):  # ints and floats in one array
        raise SpecializationUnsupported("types")
    return _VR


def _imm_class(value) -> str:
    if type(value) is int:
        return _VI
    if type(value) is float:
        return _VF
    raise SpecializationUnsupported("types")


def _wide(v: _Vec) -> bool:
    """Whether *v* is an int immediate outside int64, which no numpy
    array holds."""
    return (v.imm and type(v.const) is int
            and not -(1 << 63) <= v.const < (1 << 63))


def _vclass(op: Operation, classes: list[str]) -> str:
    """Class of a pure op's result over operands of *classes*."""
    form = _FORMS[op.opcode][0]
    if form == "copy":
        return classes[0]
    if form == "select":
        return _vjoin(classes[1], classes[2])
    return _VF if op.opcode.result_type is float else _VI


def _f2i(x):
    """``int()`` of every element of float64 array *x* as int64, or None
    when one is NaN, infinite or truncates outside signed 64 bits."""
    if ((x >= -_TWO63) & (x < _TWO63)).all():
        return x.astype(np.int64)
    return None


def _shift(x, first):
    """A distance-1 read: the live-in, then the producer's values."""
    out = np.empty_like(x)
    out[0] = first
    out[1:] = x[:-1]
    return out


def _osel(truth, a, b) -> list:
    """Per-lane choice between object lists (raw values keep identity)."""
    return [x if t else y for t, x, y in zip(truth.tolist(), a, b)]


def _vdiv(n, d):
    """Truncating division; 0 for a zero divisor, and ``-n`` (wrapped)
    for -1, which is also the one quotient that overflows."""
    safe = np.where((d == 0) | (d == -1), 1, d)
    q = (n - np.fmod(n, safe)) // safe
    return np.where(d == 0, 0, np.where(d == -1, -n, q))


def _vrem(n, d):
    """Remainder with the dividend's sign; 0 for divisors 0 and -1."""
    safe = np.where((d == 0) | (d == -1), 1, d)
    return np.where(d == 0, 0, np.fmod(n, safe))


def _vfdiv(a, d):
    zero = d == 0.0
    return np.where(zero, 0.0, a / np.where(zero, 1.0, d))


#: The names generated code reads besides its arguments.
_HELPERS = dict(
    __tdiv=trunc_div, __trem=trunc_rem, __np=np, __i64=np.int64,
    __f64=np.float64, __u64=np.uint64, __f2i=_f2i, __shift=_shift,
    __osel=_osel, __vdiv=_vdiv, __vrem=_vrem, __vfdiv=_vfdiv)


class _Vec(NamedTuple):
    """A whole-array value: the name of its array (or an immediate's
    literal), its class, and the name of its object list when it has
    one (raw values always do)."""

    arr: str
    cls: str
    obj: Optional[str] = None
    imm: bool = False
    const: object = None


class _Codegen:
    """The emitter: one image's whole-array function per runtime
    signature, for one (image, trips) pair.

    Owns the producer map, the type pass and the liveness pass.  Values
    are visited in topological order of their strongly connected
    components: an acyclic op becomes one numpy expression over all
    ``trips`` elements, and each recurrence runs as one scalar loop over
    the element lists it reads, emitted through typed templates.  Loads
    arrive gathered; stores leave as object lists the caller commits
    after every value is computed.  Raises
    :class:`SpecializationUnsupported` for an image it does not take.
    """

    def __init__(self, image: KernelImage, trips: int) -> None:
        self.loop = image.loop
        self.schedule = image.schedule
        self.ii = image.schedule.ii
        self.trips = trips
        # Mirror of _DataflowResolver's producer map, per reading op:
        # each distinct register read (sources, then the predicate) ->
        # (producer opid, distance, dest index) of the nearest preceding
        # in-body def (distance 0), else of the final def (distance 1);
        # None for a live-in.
        self._reads: dict[int, dict[Reg, Optional[tuple]]] = {}
        self._index = {op.opid: i for i, op in enumerate(self.loop.body)}
        last_def: dict[Reg, tuple[int, int, int]] = {}
        final_def: dict[Reg, tuple[int, int, int]] = {}
        for op in self.loop.body:
            for ri, d in reversed(list(enumerate(op.dests))):
                final_def[d] = (op.opid, 1, ri)
        for op in self.loop.body:
            reads = dict.fromkeys(op.src_regs())
            for reg in reads:
                reads[reg] = last_def.get(reg) or final_def.get(reg)
            self._reads[op.opid] = reads
            for ri, d in reversed(list(enumerate(op.dests))):
                last_def[d] = (op.opid, 0, ri)
        # Memory ops need an affine stream pattern; the unscheduled
        # address/control slice is eliminated on the strength of it.
        self._patterns = {}
        for op in self.loop.body:
            if op.is_memory:
                pattern = image.streams.patterns.get(op.opid)
                if pattern is None:
                    raise SpecializationUnsupported(
                        f"op{op.opid}: no affine stream pattern")
                self._patterns[op.opid] = pattern
        #: Typed forms memoised per (opid, operand kinds): templates
        #: over ``{i}`` operand placeholders, shared by the type pass
        #: and the recurrence scans.
        self._forms: dict[tuple, tuple] = {}
        #: Per scheduled op, aligned with ``op.srcs``: ``(typed
        #: immediate, None, None)`` or ``(None, reg, producer or None)``.
        self._srcs: dict[int, list[tuple]] = {}
        for op in self.loop.body:
            if op.opid in self.schedule.times:
                producers = self._reads[op.opid]
                self._srcs[op.opid] = [
                    (_imm(s.value), None, None) if isinstance(s, Imm)
                    else (None, s, producers[s]) for s in op.srcs]
        self._kinds: dict[tuple[int, int], str] = {}
        self._raises: set[int] = set()
        self._infer_kinds()
        self._outs = self._out_producers()
        self._live, self._needed = self._liveness()
        #: Scheduled ops that are emitted, in body order.
        self._emitted = [op for op in self.loop.body
                         if op.opid in self._needed]
        # Shape checks: every value the emitter reads must come from a
        # scheduled op or a live-in.  A dead pure op is never emitted,
        # but the reference still reads its operands, so its live-ins
        # stay required.
        #: Live-ins read as values (iteration 0 reads every distance-1
        #: producer's live-in) and live-ins read only as stream bases.
        self.value_live_ins: set[Reg] = set()
        self.base_live_ins: set[Reg] = set()
        for op in self.loop.body:
            if op.opid not in self.schedule.times:
                continue
            if op.opcode in (Opcode.CALL, Opcode.BRL):
                raise SpecializationUnsupported(
                    f"op{op.opid}: {op.opcode} traps")
            if op.is_load and not op.dests:
                raise SpecializationUnsupported(
                    f"op{op.opid}: load without destination")
            for reg, producer in self._value_reads(op):
                if producer is None or producer[1]:
                    self.value_live_ins.add(reg)
                elif producer[0] not in self.schedule.times:
                    raise SpecializationUnsupported(
                        f"op{producer[0]}: value read of an "
                        f"unscheduled producer")
        for pattern in self._patterns.values():
            for (space, name), _coeff in pattern.base.terms:
                self.base_live_ins.add(Reg(name, space))
        # Gathering every load before committing any store reorders
        # memory; a recurrence is a scalar loop over values, not cells.
        if any(edge.kind == "mem" for edge in image.dfg.edges):
            raise SpecializationUnsupported("memory-order")
        for op in self._emitted:
            if len(op.dests) > 1 and op.opcode is not Opcode.CCA_OP:
                raise SpecializationUnsupported("shape")
        self.components = self._components()
        for ops in self.components:
            if len(ops) > 1 or self._self_cycle(ops[0]):
                if any(op.is_memory for op in ops):
                    raise SpecializationUnsupported("shape")
        self.loads = [op for op in self._emitted if op.is_load]
        self.stores = [op for op in self._emitted if op.is_store]
        self.value_regs = sorted(self.value_live_ins, key=str)

    def _value_reads(self, op: Operation) -> list[tuple]:
        """``(reg, producer)`` of every register the emitted code reads
        for *op*: memory ops read only their predicate and stored value
        (addresses are stream patterns), a squashed op's prior is read
        as if at the op, and an unemitted op reads all its operands."""
        reads = self._reads[op.opid]
        if op.opid not in self._needed:
            return list(reads.items())
        oc = op.opcode
        if oc in (Opcode.BR, Opcode.JUMP):
            return []
        if op.is_memory:
            regs = [op.predicate] if op.predicate is not None else []
            if op.is_store and isinstance(op.srcs[2], Reg):
                regs.append(op.srcs[2])
            out = [(reg, reads[reg]) for reg in regs]
        else:
            out = list(reads.items())
        if oc is Opcode.CCA_OP:
            _steps, binding = self._compound_form(
                op, tuple(self._static(p).kind for p in reads.values()))
            priors = [d for ri, d in enumerate(op.dests)
                      if (op.opid, ri) in self._live
                      and (d not in binding or op.predicate is not None)]
        elif op.is_store:
            priors = []
        else:
            first = 0 if op.predicate is not None else 1
            priors = [d for ri, d in enumerate(op.dests)
                      if ri >= first and (ri == 0 or (op.opid, ri)
                                          in self._live)]
        out.extend((d, reads.get(d)) for d in priors)
        return out

    # -- type pass -------------------------------------------------------

    def _static(self, producer: Optional[tuple]) -> _Val:
        """The kind of a read of *producer* over every instance of the
        reading op.  A distance-1 read is unknown: iteration 0 reads
        the live-in."""
        if producer is None or producer[1]:
            return _Val("", UNKNOWN)
        return _Val("", self._kinds.get((producer[0], producer[2]),
                                        UNKNOWN))

    def _infer_kinds(self) -> None:
        """Kind of every scheduled ``(opid, dest index)``.

        One pass in body order is the fixed point: a distance-0
        producer always precedes its reader, and every distance-1 read
        is unknown.  Ops whose expression may raise land in
        ``_raises`` so dead-op elimination keeps them.
        """
        for op in self.loop.body:
            if op.opid not in self.schedule.times:
                continue
            oc = op.opcode
            reads = self._reads[op.opid]
            kinds = [self._static(reads.get(d)).kind for d in op.dests]
            if oc is Opcode.CCA_OP:
                steps, binding = self._compound_form(
                    op, tuple(self._static(producer).kind
                              for producer in reads.values()))
                if any(step[2] for step in steps):
                    self._raises.add(op.opid)
                for ri, d in enumerate(op.dests):
                    if d in binding:
                        kinds[ri] = (binding[d].kind if op.predicate is None
                                     else _join(binding[d].kind, kinds[ri]))
            elif oc.is_value:
                _expr, kind, raises = self._pure_form(
                    op, [imm or self._static(producer)
                         for imm, _reg, producer in self._srcs[op.opid]])
                if raises:
                    self._raises.add(op.opid)
                if kinds:
                    kinds[0] = (kind if op.predicate is None
                                else _join(kind, kinds[0]))
            elif op.is_load and kinds:
                kinds[0] = UNKNOWN
            for ri, kind in enumerate(kinds):
                self._kinds[(op.opid, ri)] = kind

    def _liveness(self) -> tuple[set, set]:
        """Mark-and-sweep over values: ``(live values, needed opids)``.

        Memory ops, ops that may raise and live-out producers are
        roots; an op is needed when any of its values is live, and a
        needed op's reads (at any distance) are live.  Every other
        scheduled op is a dead pure op and is never emitted.
        """
        reads = {opid: [(producer[0], producer[2])
                        for producer in self._reads[opid].values()
                        if producer is not None]
                 for opid in self._srcs}
        live: set[tuple[int, int]] = set()
        needed: set[int] = set()
        work: list[tuple[int, int]] = []

        def need(opid: int) -> None:
            if opid not in needed:
                needed.add(opid)
                work.extend(reads[opid])

        for op in self.loop.body:
            if op.opid in reads and (not op.opcode.is_value
                                     and op.opcode is not Opcode.CCA_OP
                                     or op.opid in self._raises):
                need(op.opid)
        work.extend((opid, ri) for _reg, opid, ri in self._outs)
        while work:
            value = work.pop()
            if value not in live:
                live.add(value)
                if value[0] in reads:
                    need(value[0])
        return live, needed

    def _out_producers(self) -> list[tuple[Reg, int, int]]:
        """``(reg, opid, dest index)`` of each produced live-out, in
        return order: the textually last producer's final value (a
        live-in passthrough is the caller's)."""
        outs: list[tuple[Reg, int, int]] = []
        for reg in dict.fromkeys(self.loop.live_outs):
            producer = None
            for op in self.loop.body:
                if reg in op.dests:
                    producer = op
            if producer is None:
                continue
            if producer.opid not in self.schedule.times:
                raise SpecializationUnsupported(
                    f"live-out {reg} produced by unscheduled "
                    f"op{producer.opid}")
            outs.append((reg, producer.opid, producer.dests.index(reg)))
        return outs

    def _pure_form(self, op: Operation, operands: list[_Val]
                   ) -> tuple[str, str, bool]:
        """:func:`_value_expr` of *op* as a ``{i}`` template."""
        key = (op.opid, *[v.kind for v in operands])
        form = self._forms.get(key)
        if form is None:
            form = _value_expr(op, [v._replace(expr=f"{{{i}}}")
                                    for i, v in enumerate(operands)])
            self._forms[key] = form
        return form

    def _compound_form(self, op: Operation, kinds: tuple[str, ...]
                       ) -> tuple[list[tuple], dict[Reg, _Val]]:
        """Type CCA *op*'s inner ops over its register reads of *kinds*.

        Returns the steps ``(temp or None, expr, raises, temps read)``
        of every inner op that executes, and the final binding; the
        i-th register read appears as the placeholder ``{i}``.
        """
        key = (op.opid, "cca") + kinds
        form = self._forms.get(key)
        if form is not None:
            return form
        binding = {reg: _Val(f"{{{i}}}", kind) for i, ((reg, _p), kind)
                   in enumerate(zip(self._reads[op.opid].items(), kinds))}
        steps = []
        temps: set[str] = set()
        for j, inner in enumerate(op.inner):
            if inner.opcode is Opcode.CCA_OP or inner.is_memory:
                raise SpecializationUnsupported(
                    f"op{op.opid}: unsupported inner op {inner.opcode}")
            reads = []
            if inner.predicate is not None:
                if inner.predicate not in binding:
                    continue  # regs.get(pred, 0) == 0: statically squashed
                reads.append(binding[inner.predicate])
            operands = []
            for s in inner.srcs:
                if isinstance(s, Imm):
                    operands.append(_imm(s.value))
                elif s in binding:
                    operands.append(binding[s])
                else:
                    raise SpecializationUnsupported(
                        f"op{op.opid}: inner read of unbound {s}")
            expr, kind, raises = _value_expr(inner, operands)
            reads.extend(operands)
            name = None
            if not inner.dests:
                if inner.predicate is not None:
                    expr = f"({expr} if {reads[0].expr} else 0)"
            else:
                dest = inner.dests[0]
                if inner.predicate is not None:
                    if dest not in binding:
                        raise SpecializationUnsupported(
                            f"op{op.opid}: predicated inner def of "
                            f"unbound {dest}")
                    prior = binding[dest]
                    expr = f"({expr} if {reads[0].expr} else {prior.expr})"
                    kind = _join(kind, prior.kind)
                    reads.append(prior)
                # Temporaries are read only inside their own compound
                # instance, so one name per inner op serves them all.
                name = f"c{op.opid}_{j}"
                temps.add(name)
                binding[dest] = _Val(name, kind)
            steps.append((name, expr, raises,
                          [v.expr for v in reads if v.expr in temps]))
        form = (steps, binding)
        self._forms[key] = form
        return form

    def _self_cycle(self, op: Operation) -> bool:
        return any(p is not None and p[0] == op.opid
                   for p in self._reads[op.opid].values())

    def _components(self) -> list[list[Operation]]:
        """Strongly connected components of the emitted ops under value
        reads (any distance), producers first, each in body order."""
        succs: dict[int, list[int]] = {op.opid: [] for op in self._emitted}
        for op in self._emitted:
            for producer in self._reads[op.opid].values():
                if producer is not None and producer[0] in succs:
                    succs[producer[0]].append(op.opid)
        return [[op for op in self._emitted if op.opid in members]
                for members in map(set, reversed(
                    strongly_connected_components(succs, succs.__getitem__)))]

    # -- per-signature generation -----------------------------------------

    def generate(self, load_classes: tuple[str, ...],
                        live_classes: tuple[str, ...]) -> str:
        """Source of ``__vector(__L, __O, __A)`` for one signature.

        ``__L`` holds the value live-ins (``value_regs`` order), ``__A``
        each load's array and ``__O`` per load a call that builds its
        object list, made only for a raw load whose objects the body
        reads.  It returns ``(stores, live-outs)`` -- per store its
        values (an int64 or float64 array, or an object list) and lane
        mask (None when unpredicated) -- or the label of a decline.
        """
        self._live_cls = dict(zip(self.value_regs, live_classes))
        self._vals: dict[tuple[int, int], _Vec] = {}
        self._memo: dict[tuple, object] = {}
        self._store_out: dict[int, str] = {}
        self._finals: dict[tuple[int, int], str] = {}
        self._temps = 0
        self._scan: Optional[set[int]] = None
        out = self._vlines = []
        if self.value_regs:
            params = [self._param(reg) for reg in self.value_regs]
            out.append(f"    {', '.join(params)}, = __L")
        if self.loads:
            names = [f"a{op.opid}" for op in self.loads]
            out.append(f"    {', '.join(names)}, = __A")
        self._load_cls = {op.opid: cls
                          for op, cls in zip(self.loads, load_classes)}
        for k, (op, cls) in enumerate(zip(self.loads, load_classes)):
            if cls == _VR:
                self._memo[("build", f"o{op.opid}")] = f"__O[{k}]()"
        for ops in self.components:
            if len(ops) > 1 or self._self_cycle(ops[0]):
                self._emit_scan(ops)
            else:
                self._emit_vector(ops[0])
        outs = []
        for _reg, opid, ri in self._outs:
            if (opid, ri) in self._finals:
                outs.append(self._finals[(opid, ri)])
                continue
            value = self._vals[(opid, ri)]
            outs.append(f"{self._objs(value)}[-1]" if value.obj
                        else f"{value.arr}[-1].item()")
        stores = "".join(f"{self._store_out[op.opid]}, "
                         for op in self.stores)
        outs_text = "".join(f"{entry}, " for entry in outs)
        out.append(f"    return ({stores}), ({outs_text})")
        return "def __vector(__L, __O, __A):\n" + "\n".join(out) + "\n"

    def _emit(self, line: str) -> None:
        self._vlines.append("    " + line)

    def _tmp(self) -> str:
        self._temps += 1
        return f"t{self._temps}"

    def _param(self, reg: Reg) -> str:
        return f"L{self.value_regs.index(reg)}"

    # -- value access --------------------------------------------------------

    def _operands(self, srcs: list, read: Callable[[Reg], _Vec]
                  ) -> list[_Vec]:
        """Operand values: immediates, else ``read(reg)``."""
        return [_Vec(_imm(s.value).expr, _imm_class(s.value), imm=True,
                     const=s.value) if isinstance(s, Imm) else read(s)
                for s in srcs]

    def _reader(self, op: Operation) -> Callable[[Reg], _Vec]:
        reads = self._reads[op.opid]
        return lambda reg: self._vread(reg, reads[reg])

    def _vread(self, reg: Reg, producer: Optional[tuple]) -> _Vec:
        """The value of *reg* as read from *producer* in every lane."""
        if producer is None:
            key = ("live", reg)
            if key not in self._memo:
                cls = self._live_cls[reg]
                name, arr = self._param(reg), f"V{self.value_regs.index(reg)}"
                self._emit(f"{arr} = __np.full({self.trips}, {name})")
                obj = None
                if cls == _VR:
                    obj = f"{arr}o"
                    self._emit(f"{obj} = [{name}] * {self.trips}")
                self._memo[key] = _Vec(arr, cls, obj)
            return self._memo[key]
        opid, distance, ri = producer
        value = self._vals[(opid, ri)]
        if not distance:
            return value
        key = ("shift", opid, ri, reg)
        if key not in self._memo:
            name = self._param(reg)
            cls = _vjoin(value.cls, self._live_cls[reg])
            arr = self._tmp()
            self._emit(f"{arr} = __shift({self._arr(value)}, {name})")
            obj = None
            if cls == _VR:
                obj = f"{arr}o"
                self._emit(f"{obj} = [{name}] + {self._objs(value)}[:-1]")
            self._memo[key] = _Vec(arr, cls, obj)
        return self._memo[key]

    def _arr(self, value: _Vec) -> str:
        """The array of *value*; a recurrence's element list is
        converted on first use (a value above int64 range declines)."""
        pending = self._memo.pop(("list", value.arr), None)
        if pending is not None:
            dtype = "__i64" if value.cls == _VI else "__f64"
            self._emit(f"{value.arr} = __np.array({pending}, {dtype})")
        return value.arr

    def _objs(self, value: _Vec) -> str:
        """The list of reference objects of *value*; a raw load's list
        is built on first use."""
        if value.obj:
            build = self._memo.pop(("build", value.obj), None)
            if build is not None:
                self._emit(f"{value.obj} = {build}")
            return value.obj
        if value.imm:
            return f"[{value.arr}] * {self.trips}"
        key = ("objs", value.arr)
        if key not in self._memo:
            name = self._tmp()
            self._emit(f"{name} = {self._arr(value)}.tolist()")
            self._memo[key] = name
        return self._memo[key]

    def _bind(self, expr: str, cls: str) -> _Vec:
        name = self._tmp()
        self._emit(f"{name} = {expr}")
        return _Vec(name, cls)

    def _truth(self, value: _Vec) -> str:
        """Lane-wise truthiness (a NaN is true, as in Python)."""
        key = ("truth", value.arr)
        if key not in self._memo:
            self._memo[key] = self._bind(f"({self._arr(value)} != 0)",
                                         _VI).arr
        return self._memo[key]

    def _merge(self, truth: str, a: _Vec, b: _Vec) -> _Vec:
        """Lane-wise ``a if truth else b`` (a squashed op keeps b)."""
        cls = _vjoin(a.cls, b.cls)
        value = self._bind(f"__np.where({truth}, {self._raw(a)}, "
                           f"{self._raw(b)})", cls)
        if cls == _VR:
            obj = f"{value.arr}o"
            self._emit(f"{obj} = __osel({truth}, {self._objs(a)}, "
                       f"{self._objs(b)})")
            value = value._replace(obj=obj)
        return value

    def _as_int(self, v: _Vec, modular: bool = False) -> str:
        """``int()`` of *v*; a float lane that cannot convert declines."""
        if v.imm:
            try:
                value = int(v.const)
            except (ValueError, OverflowError):  # raises on every instance
                raise SpecializationUnsupported("value")
            if modular:
                value = wrap64(value)
            elif not -(1 << 63) <= value < (1 << 63):
                raise SpecializationUnsupported("value")
            return f"({value})" if value < 0 else str(value)
        if v.cls == _VI:
            return self._arr(v)
        name = self._tmp()
        self._emit(f"{name} = __f2i({self._arr(v)})")
        self._emit(f"if {name} is None: return 'value'")
        return name

    def _int_arr(self, v: _Vec) -> str:
        x = self._as_int(v)
        return f"__np.full({self.trips}, {x}, __i64)" if v.imm else x

    def _as_float(self, v: _Vec) -> str:
        if v.imm:
            try:
                return _imm(float(v.const)).expr
            except OverflowError:
                raise SpecializationUnsupported("value")
        if v.cls == _VI:
            return f"{self._arr(v)}.astype(__f64)"
        return self._arr(v)

    def _raw(self, v: _Vec) -> str:
        """*v* unconverted: its array, or an immediate numpy can hold."""
        if not v.imm:
            return self._arr(v)
        if _wide(v):
            raise SpecializationUnsupported("value")
        return v.arr

    def _full(self, v: _Vec) -> _Vec:
        """An immediate as an array of its value in every lane."""
        if not v.imm:
            return v
        dtype = "__i64" if v.cls == _VI else "__f64"
        return self._bind(f"__np.full({self.trips}, {self._raw(v)}, "
                          f"{dtype})", v.cls)

    # -- ops -----------------------------------------------------------------

    def _fold(self, op: Operation, operands: list[_Vec]) -> Optional[_Vec]:
        """An op over immediates only, evaluated once by its semantics."""
        try:
            value = op.opcode.semantics(*[v.const for v in operands])
        except Exception:  # raises on every instance
            raise SpecializationUnsupported("value")
        if not op.dests:
            return None
        return self._full(_Vec(_imm(value).expr, _imm_class(value),
                               imm=True, const=value))

    def _vop(self, op: Operation, operands: list[_Vec]) -> Optional[_Vec]:
        """One pure op over whole arrays; returns exactly what
        ``Interpreter.execute_op`` returns in every lane, or declines."""
        if all(v.imm for v in operands):
            return self._fold(op, operands)
        form, sym = _FORMS[op.opcode]
        a = operands[0]
        b = operands[1] if len(operands) > 1 else None
        cls = _vclass(op, [v.cls for v in operands])
        if form in ("arith", "bitwise"):
            modular = op.opcode.is_modular
            expr = (f"({self._as_int(a, modular)} {sym} "
                    f"{self._as_int(b, modular)})")
        elif form == "shift":
            x = self._int_arr(a)
            if b.imm:
                try:
                    amount = str(int(b.const) & 63)
                except (ValueError, OverflowError):
                    raise SpecializationUnsupported("value")
            else:
                amount = f"({self._as_int(b)} & 63)"
            if sym == ">>":
                expr = f"({x} >> {amount})"
            else:
                if not b.imm:
                    amount += ".astype(__u64)"
                op_sym = "<<" if sym == "<<" else ">>"
                expr = f"({x}.view(__u64) {op_sym} {amount}).view(__i64)"
        elif form == "compare":
            classes = {v.cls for v in operands if not v.imm}
            for v in operands:
                if v.imm and type(v.const) is int and (
                        _VF in classes or _VR in classes):
                    # numpy compares an int with floats as a float.
                    if abs(v.const) > 1 << 53:
                        raise SpecializationUnsupported("types")
                elif v.imm:
                    classes.add(_imm_class(v.const))
            if _VI in classes and len(classes) > 1:
                raise SpecializationUnsupported("types")
            expr = f"({self._raw(a)} {sym} {self._raw(b)}).astype(__i64)"
        elif form == "minmax":
            name = "minimum" if sym == "<" else "maximum"
            expr = f"__np.{name}({self._as_int(a)}, {self._as_int(b)})"
        elif form == "negabs":
            x = self._int_arr(a)
            expr = f"(-{x})" if op.opcode is Opcode.NEG else f"__np.abs({x})"
        elif form == "not":
            expr = f"(~{self._int_arr(a)})"
        elif form in ("div", "rem"):
            d = self._as_int(b)  # the reference converts the divisor first
            n = self._int_arr(a)
            expr = f"__v{form}({n}, {d})"
        elif form == "farith":
            expr = f"({self._as_float(a)} {sym} {self._as_float(b)})"
        elif form == "fcompare":
            expr = (f"({self._as_float(a)} {sym} {self._as_float(b)})"
                    f".astype(__i64)")
        elif form == "fminmax":
            x, y = self._as_float(a), self._as_float(b)
            expr = f"__np.where({y} {sym} {x}, {y}, {x})"
        elif form == "fdiv":
            expr = f"__vfdiv({self._as_float(a)}, {self._as_float(b)})"
        elif form == "funary":
            x = self._as_float(a)
            expr = f"(-{x})" if op.opcode is Opcode.FNEG else f"__np.abs({x})"
        elif form == "itof":
            expr = f"{self._int_arr(a)}.astype(__f64)"
        elif form == "ftoi":
            expr = self._tmp()
            self._emit(f"{expr} = __f2i({self._as_float(a)})")
            self._emit(f"if {expr} is None: return 'value'")
        elif form == "copy":
            return a
        elif a.imm:  # select on a constant condition
            return self._full(operands[1] if a.const else operands[2])
        else:
            return self._merge(self._truth(a), b, operands[2])
        return self._bind(expr, cls)

    def _emit_vector(self, op: Operation) -> None:
        """One acyclic op over every lane."""
        oc = op.opcode
        if oc in (Opcode.BR, Opcode.JUMP):
            return
        reads = self._reads[op.opid]
        truth = None
        if op.predicate is not None:
            truth = self._truth(self._vread(op.predicate,
                                            reads[op.predicate]))
        if oc is Opcode.CCA_OP:
            self._vector_compound(op, truth)
            return
        if op.is_store:
            value = self._operands(op.srcs[2:3], self._reader(op))[0]
            values = (self._objs(value) if value.cls == _VR
                      or _wide(value) else self._arr(self._full(value)))
            self._store_out[op.opid] = f"({values}, {truth})"
            return
        if op.is_load:
            cls = self._load_cls[op.opid]
            value = _Vec(f"a{op.opid}", cls,
                         f"o{op.opid}" if cls == _VR else None)
        else:
            value = self._vop(op, self._operands(op.srcs, self._reader(op)))
            if not op.dests:
                return  # result discarded; its conversions still ran
        if truth is not None:
            value = self._merge(truth, value,
                                self._vread(op.dests[0],
                                            reads.get(op.dests[0])))
        self._vals[(op.opid, 0)] = value

    def _vector_compound(self, op: Operation, truth: Optional[str]) -> None:
        reads = self._reads[op.opid]
        binding = {reg: self._vread(reg, producer)
                   for reg, producer in reads.items()}
        for inner in op.inner:
            inner_truth = None
            if inner.predicate is not None:
                if inner.predicate not in binding:
                    continue  # statically squashed
                inner_truth = self._truth(binding[inner.predicate])
            value = self._vop(inner, self._operands(inner.srcs,
                                                     binding.__getitem__))
            if not inner.dests:
                continue
            dest = inner.dests[0]
            if inner_truth is not None:
                value = self._merge(inner_truth, value, binding[dest])
            binding[dest] = value
        for ri, d in enumerate(op.dests):
            if (op.opid, ri) not in self._live:
                continue
            value = (binding[d] if d in binding
                     else self._vread(d, reads.get(d)))
            if truth is not None:
                value = self._merge(truth, value,
                                    self._vread(d, reads.get(d)))
            self._vals[(op.opid, ri)] = value

    # -- recurrences ---------------------------------------------------------

    def _scan_classes(self, ops: list[Operation]) -> dict[tuple, str]:
        """Classes of a recurrence's values: a fixed point from its
        live-ins (at most one join per value)."""
        scc = {op.opid for op in ops}
        classes: dict[tuple[int, int], str] = {}

        def of(reg: Reg, producer: Optional[tuple]) -> str:
            if producer is None:
                return self._live_cls[reg]
            opid, distance, ri = producer
            cls = (classes.get((opid, ri)) if opid in scc
                   else self._vals[(opid, ri)].cls)
            if distance:
                live = self._live_cls[reg]
                return live if cls is None else _vjoin(cls, live)
            return cls

        def operand(reg_or_imm, reads) -> str:
            if isinstance(reg_or_imm, Imm):
                return _imm_class(reg_or_imm.value)
            return of(reg_or_imm, reads[reg_or_imm])

        while True:
            before = dict(classes)
            for op in ops:
                reads = self._reads[op.opid]
                if op.opcode is Opcode.CCA_OP:
                    binding = {reg: of(reg, p) for reg, p in reads.items()}
                    for inner in op.inner:
                        if (inner.predicate is not None
                                and inner.predicate not in binding):
                            continue
                        cls = _vclass(inner, [
                            _imm_class(s.value) if isinstance(s, Imm)
                            else binding[s] for s in inner.srcs])
                        if inner.dests:
                            d = inner.dests[0]
                            if inner.predicate is not None:
                                cls = _vjoin(cls, binding[d])
                            binding[d] = cls
                    results = [binding.get(d) for d in op.dests]
                else:
                    results = [_vclass(op, [operand(s, reads)
                                            for s in op.srcs])]
                for ri, d in enumerate(op.dests):
                    if (op.opid, ri) not in self._live:
                        continue
                    cls = results[ri] if ri < len(results) else None
                    if cls is None or op.predicate is not None:
                        prior = of(d, reads.get(d))
                        cls = prior if cls is None else _vjoin(cls, prior)
                    old = classes.get((op.opid, ri))
                    classes[(op.opid, ri)] = (cls if old is None
                                              else _vjoin(old, cls))
            if classes == before:
                return classes

    def _emit_scan(self, ops: list[Operation]) -> None:
        """A recurrence as one scalar loop over its inputs' element
        lists, through the typed templates."""
        classes = self._scan_classes(ops)
        self._scan = {op.opid for op in ops}
        self._inputs: dict[str, str] = {}
        self._carried: dict[str, str] = {}
        self.lines = []
        for op in ops:
            self._emit_instance(op)
        # Element lists only for values read outside the recurrence; a
        # live-out takes the loop variable's final value.
        read_outside = {producer[::2] for op in self._emitted
                        if op.opid not in self._scan
                        for producer in self._reads[op.opid].values()
                        if producer is not None}
        outputs = [(op.opid, ri) for op in ops
                   for ri in range(len(op.dests))
                   if (op.opid, ri) in read_outside]
        for _reg, opid, ri in self._outs:
            if opid in self._scan:
                self._finals[(opid, ri)] = f"v{opid}_{ri}_s"
        for var, init in self._carried.items():
            self._emit(f"{var} = {init}")
        for opid, ri in outputs:
            self._emit(f"r{opid}_{ri} = []")
            self._emit(f"p{opid}_{ri} = r{opid}_{ri}.append")
            self.lines.append(f"        p{opid}_{ri}(v{opid}_{ri}_s)")
        elems, lists = list(self._inputs), list(self._inputs.values())
        if not elems:
            self._emit(f"for _ in range({self.trips}):")
        elif len(elems) == 1:
            self._emit(f"for {elems[0]} in {lists[0]}:")
        else:
            self._emit(f"for {', '.join(elems)} in zip({', '.join(lists)}):")
        self._vlines.extend(self.lines)
        self._scan = None
        for opid, ri in outputs:
            cls = classes[(opid, ri)]
            name = f"v{opid}_{ri}"
            self._memo[("list", name)] = f"r{opid}_{ri}"
            value = self._vals[(opid, ri)] = _Vec(name, cls, f"r{opid}_{ri}")
            if cls == _VI and self._kinds[(opid, ri)] != INT64:
                # MIN/MAX of converted floats may leave int64: check
                # before any reader takes the elements as int64.
                self._arr(value)

    def _read(self, reg: Reg, producer: Optional[tuple]) -> _Val:
        """A recurrence's typed read of *reg* from *producer*: its own
        values are loop variables, a distance-1 one starting at the
        live-in; any other value is an element of its list."""
        if producer is None:
            return _Val(self._param(reg), _KIND_OF[self._live_cls[reg]])
        opid, distance, ri = producer
        if opid in self._scan:
            var = f"v{opid}_{ri}_s"
            kind = self._kinds[(opid, ri)]
            if distance:
                self._carried.setdefault(var, self._param(reg))
                kind = _join(kind, _KIND_OF[self._live_cls[reg]])
            return _Val(var, kind)
        value = self._vread(reg, producer)
        elem = f"e_{value.arr}"
        if elem not in self._inputs:
            self._inputs[elem] = self._objs(value)
        return _Val(elem, _KIND_OF[value.cls])

    def _resolve(self, op: Operation, reg: Reg) -> _Val:
        """Typed value of *reg* as *op* reads it."""
        return self._read(reg, self._reads[op.opid].get(reg))

    def _operand(self, entry: tuple) -> _Val:
        imm, reg, producer = entry
        return imm or self._read(reg, producer)

    def _emit_instance(self, op: Operation) -> None:
        """A recurrence op in its scan's loop body; its value is the
        loop variable ``v{opid}_{ri}_s``."""
        pred = (None if op.predicate is None else
                self._resolve(op, op.predicate).expr)
        if op.opcode is Opcode.CCA_OP:
            self._emit_compound(op, pred)
            return
        operands = [self._operand(entry) for entry in self._srcs[op.opid]]
        expr = self._pure_form(op, operands)[0].format(
            *[v.expr for v in operands])
        if pred is not None:
            # Squashed predicated op: the executor copies the value the
            # register would resolve to *as if read here*.
            prior = self._resolve(op, op.dests[0])
            expr = f"({expr} if {pred} else {prior.expr})"
        self.lines.append(f"        v{op.opid}_0_s = {expr}")

    def _emit_compound(self, op: Operation, pred: Optional[str]) -> None:
        """CCA compound: inner ops over a compile-time binding map; an
        inner temporary nothing reads that cannot raise is dropped."""
        bound = [self._read(reg, producer)
                 for reg, producer in self._reads[op.opid].items()]
        steps, binding = self._compound_form(op, tuple(v.kind for v in bound))
        args = [v.expr for v in bound]
        live = [ri for ri in range(len(op.dests))
                if (op.opid, ri) in self._live]
        wanted = {binding[op.dests[ri]].expr for ri in live
                  if op.dests[ri] in binding}
        indent = "            " if pred is not None else "        "
        body: list[str] = []
        for name, expr, raises, reads in reversed(steps):
            if raises or name in wanted:
                wanted.update(reads)
                line = f"{name} = {expr}" if name else expr
                body.append(indent + line.format(*args))
        body.reverse()
        for ri in live:
            d = op.dests[ri]
            value = (binding[d].expr.format(*args) if d in binding else
                     self._resolve(op, d).expr)
            body.append(f"{indent}v{op.opid}_{ri}_s = {value}")
        if pred is None or not body:
            self.lines.extend(body)
            return
        self.lines.append(f"        if {pred}:")
        self.lines.extend(body)
        if live:
            self.lines.append("        else:")
            for ri in live:
                fallback = self._resolve(op, op.dests[ri])
                self.lines.append(f"{indent}v{op.opid}_{ri}_s = "
                                  f"{fallback.expr}")


class _VectorKernel:
    """The whole-array path of one (image, trips).

    Per call it resolves the stream bases, declines when a store may
    write a cell another stream touches out of order (see
    :meth:`_overlap`), gathers each load stream as a slice of memory,
    classifies the loads and value live-ins, runs the body compiled for
    that signature, and only then commits the stores.
    """

    def __init__(self, gen: _Codegen) -> None:
        self.gen = gen
        self.trips = gen.trips
        self.streams = []
        #: Per stream: (schedule time, body position) of its op.
        self.events = []
        for op in gen.loads + gen.stores:
            pattern = gen._patterns[op.opid]
            terms = tuple((Reg(name, space), coeff)
                          for (space, name), coeff in pattern.base.terms)
            self.streams.append((pattern.base.const, terms, pattern.stride))
            self.events.append((gen.schedule.times[op.opid],
                                gen._index[op.opid]))
        self.n_loads = len(gen.loads)
        self.value_regs = gen.value_regs
        self.bodies: dict[tuple, object] = {}
        self._lock = threading.Lock()

    def predicted_signature(self) -> tuple:
        """The signature of conventionally seeded data: int loads of
        ints, float loads of ``np.float64``, float live-ins of floats."""
        return (tuple(_VR if op.opcode is Opcode.FLOAD else _VI
                      for op in self.gen.loads),
                tuple(_VF if reg.space == "fp" else _VI
                      for reg in self.value_regs))

    def body(self, signature: tuple):
        """The compiled body for *signature*, or its refusal label."""
        body = self.bodies.get(signature)
        if body is not None:
            return body
        with self._lock:  # one emitter state per image
            body = self.bodies.get(signature)
            if body is not None:
                return body
            try:
                source = self.gen.generate(*signature)
            except SpecializationUnsupported as refusal:
                body = refusal.args[0]
            except Exception as exc:
                _codegen_error(exc, self.gen.loop.name, self.trips)
                body = "error"
            else:
                namespace = dict(_HELPERS)
                exec(compile(source, f"<vector {self.gen.loop.name}>",
                             "exec"), namespace)
                body = namespace["__vector"]
                obs.inc("translator.units.specialize", source.count("\n"))
            self.bodies[signature] = body
        return body

    def run(self, memory: Memory, live_ins: Mapping[Reg, Value]
            ) -> Optional[tuple]:
        """The live-outs, or None after declining without a write."""
        reason = self._run(memory, live_ins)
        if type(reason) is str:
            _count_decline(reason)
            return None
        obs.inc("jit.vector_runs")
        return reason

    def _overlap(self, spans: list[tuple[int, int]]) -> bool:
        """Whether gathering every load before committing any store can
        differ from the reference's global event order.

        Streams of one stride whose bases differ by a non-multiple of
        it interleave without meeting.  A load meeting a store of its
        stride reads each shared cell a fixed ``delta`` iterations
        before the store writes it, and is safe when every such read
        precedes the write in (absolute cycle, iteration, position)
        order.  Any other meeting -- two stores, or unequal strides
        whose ranges intersect -- declines.
        """
        n, ii = self.trips, self.gen.ii
        for i in range(self.n_loads, len(spans)):
            base, stride = spans[i]
            lo, hi = sorted((base, base + stride * (n - 1)))
            t_store, pos_store = self.events[i]
            for j, (base2, stride2) in enumerate(spans):
                lo2, hi2 = sorted((base2, base2 + stride2 * (n - 1)))
                if j == i or hi2 < lo or hi < lo2:
                    continue
                interleaved = (stride2 == stride and stride
                               and (base2 - base) % stride)
                if interleaved:
                    continue  # never the same cell
                if stride2 != stride or not stride or j >= self.n_loads:
                    return True
                delta = (base2 - base) // stride
                t_load, pos_load = self.events[j]
                lead = t_store - t_load + delta * ii
                if lead < 0 or lead == 0 and (
                        delta < 0 or delta == 0 and pos_store < pos_load):
                    return True
        return False

    def _run(self, memory: Memory, live_ins: Mapping[Reg, Value]):
        n = self.trips
        try:
            spans = []
            for const, terms, stride in self.streams:
                base = const + sum(coeff * int(live_ins[reg])
                                   for reg, coeff in terms)
                spans.append((base, stride))
        except Exception:  # the reference raises it where it should
            return "raise"
        if self._overlap(spans):
            return "overlap"
        builders, arrays, load_classes = [], [], []
        for base, stride in spans[:self.n_loads]:
            load = memory.gather(base, stride, n)
            if load is None:
                return "stream-types"
            load_classes.append(load[0])
            arrays.append(load[1])
            builders.append(partial(memory.cells, base, stride, n)
                            if load[0] == _VR else None)
        values, live_classes = [], []
        for reg in self.value_regs:
            value = live_ins[reg]
            kind = type(value)
            if kind is int and -(1 << 63) <= value < (1 << 63):
                live_classes.append(_VI)
            elif kind in _FLOAT_TYPES:
                live_classes.append(_VF if kind is float else _VR)
            else:
                return "live-in-types"
            values.append(value)
        body = self.body((tuple(load_classes), tuple(live_classes)))
        if type(body) is str:
            return body
        try:
            with np.errstate(all="ignore"):
                result = body(values, builders, arrays)
        except Exception:  # never a partial write: nothing is stored yet
            return "raise"
        if type(result) is str:
            return result
        stores, outs = result
        for (base, stride), (store, mask) in zip(spans[self.n_loads:],
                                                 stores):
            memory.scatter(base, stride, n, store, mask)
        return outs


_FLOAT_TYPES = {float, np.float64}


def _closed_form_facts(image: KernelImage, trips: int
                       ) -> tuple[int, int, dict[str, float]]:
    """Cycles, max inflight and utilization, exactly as the event
    executor computes them (term for term, so float division over the
    same integers yields bit-identical values)."""
    schedule = image.schedule
    ii = schedule.ii
    times = schedule.times
    if times:
        mx = max(t + image.dfg.latency(opid) for opid, t in times.items())
        last_completion = (trips - 1) * ii + mx
        span = max(times.values()) - min(times.values())
        max_inflight = min(trips, span // ii + 1)
    else:
        last_completion = 0
        max_inflight = 0
    cycles = max(last_completion,
                 (trips - 1) * ii + schedule.completion_time(image.dfg))
    # busy counts in the executor's first-occurrence order: each op's
    # first event is its k=0 instance at absolute cycle t.
    index = {op.opid: i for i, op in enumerate(image.loop.body)}
    scheduled = sorted(
        (op for op in image.loop.body if op.opid in times),
        key=lambda op: (times[op.opid], index[op.opid]))
    busy: dict[str, int] = {}
    for op in scheduled:
        resource = sched_resource(op)
        busy[resource] = busy.get(resource, 0) + trips
    units = schedule.units
    utilization: dict[str, float] = {}
    for resource, count in busy.items():
        capacity = units.get(resource, 0) * ii * trips
        if capacity:
            utilization[resource] = count / capacity
    return cycles, max_inflight, utilization


def specialize(image: KernelImage, trips: int) -> SpecializedKernel:
    """Specialize *image* at trip count *trips*.

    The whole-array function is compiled now for the signature of
    conventionally seeded data, and for any other signature on its
    first call.  Raises :class:`SpecializationUnsupported` for shapes
    the emitter cannot reproduce bit-identically (the caller falls back
    to the reference executors).
    """
    check_trip_count(trips)
    loop = image.loop
    if loop.annotations.get("while_loop"):
        raise SpecializationUnsupported("while loop: trips are speculative")
    gen = _Codegen(image, trips)
    vector = _VectorKernel(gen)
    vector.body(vector.predicted_signature())
    cycles, max_inflight, utilization = _closed_form_facts(image, trips)
    return SpecializedKernel(
        loop_name=loop.name, trips=trips,
        out_regs=tuple(reg for reg, _opid, _ri in gen._outs),
        required=frozenset(gen.value_live_ins | gen.base_live_ins),
        vector=vector, cycles=cycles, max_inflight=max_inflight,
        utilization=utilization)


# -- tier dispatch ------------------------------------------------------------

def invoke_specialized(image: KernelImage, memory: Memory,
                       live_in_values: Mapping[Reg, Value], trips: int
                       ) -> Optional[tuple[SpecializedKernel,
                                           dict[Reg, Value]]]:
    """Run *image*'s specialized kernel for *trips* iterations.

    The tier-2 path of both :meth:`LoopAccelerator.invoke
    <repro.accelerator.machine.LoopAccelerator.invoke>` and
    :func:`execute_pipelined`.  Returns the kernel and the live-outs
    (its produced ones plus live-in pass-throughs), or None when the image
    or trip count is not specialized, a required live-in is missing, or
    the call declined before any write; the caller then runs its
    reference executor, which reports faults identically.
    """
    kernel = kernel_for(image, trips)
    if kernel is None or not kernel.required <= live_in_values.keys():
        return None
    live_outs = kernel.run(memory, live_in_values)
    if live_outs is None:
        return None
    for reg in image.loop.live_outs:
        if reg not in live_outs and reg in live_in_values:
            live_outs[reg] = live_in_values[reg]
    if _test_corruption is not None:
        live_outs = _test_corruption(image.loop.name, dict(live_outs))
    obs.inc("vm.specialized")
    return kernel, live_outs


def execute_pipelined(image: KernelImage, memory: Memory,
                      live_in_values: Mapping[Reg, Value],
                      trip_count: Optional[int] = None,
                      fault_hook=None) -> OverlappedRun:
    """Tier-aware drop-in for :func:`execute_overlapped`.

    At engine level >= 2 (and with no fault hook — injection is an
    event-level seam only the event executor honours) the specialized
    kernel runs instead of the event simulation; every unsupported
    image and every declined call runs the reference executor.
    """
    from repro import perf
    trips = image.loop.trips(trip_count)
    ran = None
    if perf.engine_level() >= 2 and fault_hook is None:
        ran = invoke_specialized(image, memory, live_in_values, trips)
    if ran is None:
        return execute_overlapped(image, memory, live_in_values,
                                  trip_count, fault_hook)
    kernel, live_outs = ran
    return OverlappedRun(iterations=trips, cycles=kernel.cycles,
                         live_outs=live_outs,
                         max_inflight_iterations=kernel.max_inflight,
                         utilization=dict(kernel.utilization))
