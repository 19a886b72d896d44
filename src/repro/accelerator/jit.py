"""Kernel specialization: compile a modulo schedule into one function.

The third engine tier (``REPRO_ENGINE=2``).  The overlapped executor
(:mod:`repro.accelerator.pipeline_executor`) pays event-queue dispatch
for every scheduled op of every iteration; this module instead emits the
whole software pipeline as *generated Python source* — compiled once per
(image, trip count) with :func:`compile`/``exec`` — and caches the
function in-process keyed on the translation digest.

Codegen shape (one function per scheduled loop):

* **prologue / steady state / epilogue** — the schedule's ``j``-windows
  (iteration ``k``, stage ``s`` executes in window ``j = k + s``) are
  emitted in ascending order; within a window, ops are ordered by
  ``(cycle within II, iteration, body position)``, which provably equals
  the event executor's global ``(absolute cycle, k, position)`` order,
  so memory commits in the identical global order.  Windows ``j < SC``
  and the final ``SC - 1`` windows are unrolled statically (they contain
  live-in reads resp. partial stages); the steady state runs as a loop
  unrolled ``S`` times per trip.
* **modulo variable expansion** — each value lives in one of
  ``S = stage_count + 1`` rotating register-set slots, renamed to the
  local variable ``v{opid}_{dest}_{k mod S}`` (one extra slot keeps a
  distance-1 read tail alive across the wrap).
* **strength-reduced streams** — the unscheduled address/control slice
  is eliminated entirely: every memory op's address is its affine stream
  pattern, materialised as a base local plus per-iteration increments
  (``a += stride * S`` once per unrolled steady trip).
* **typed emission** — a type pass proves each value's kind (int64,
  int, float or unknown) at specialization time, so each op is emitted
  in the cheapest form that returns exactly what the reference returns:
  no conversion around a proven value, constant shift amounts folded,
  bitwise ops of int64s bare, the wrap inlined in the steady state.
  Loads and live-ins keep the reference conversions, and pure ops that
  nothing reads and that cannot raise are not emitted at all.
* **closed-form timing** — cycles, max inflight iterations and
  per-resource utilization are computed from schedule arithmetic at
  specialization time, term-for-term identical to what the event
  executor measures, so figure text stays byte-identical.

Anything the specializer cannot prove it can reproduce bit-identically
falls back to the reference executors (negative-cached per image), and a
guard cross-check mismatch routes through the PR 1 deopt/blacklist path:
the reference interpreter remains ground truth.
"""

from __future__ import annotations

import math
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Optional

from repro import obs
from repro.accelerator.machine import (AcceleratorFault, AcceleratorRun,
                                       KernelImage)
from repro.accelerator.pipeline_executor import (OverlappedRun,
                                                 execute_overlapped)
from repro.cpu.interpreter import _trunc_div, _trunc_rem, wrap64
from repro.cpu.memory import Memory, Value
from repro.ir.opcodes import Opcode
from repro.ir.ops import Imm, Operation, Reg
from repro.scheduler.mii import sched_resource


class SpecializationUnsupported(Exception):
    """The image has a shape the specializer does not reproduce exactly."""


@dataclass
class SpecializedKernel:
    """One compiled loop: the generated function plus closed-form facts."""

    loop_name: str
    source: str
    fn: Callable
    trips: int
    #: Positional live-in parameters of ``fn`` (after the cells dict).
    params: tuple[Reg, ...]
    #: Live-out registers produced by the function, in return order.
    out_regs: tuple[Reg, ...]
    #: Live-ins that must be present in the runtime mapping (parameters
    #: plus stream-base registers); a missing one falls back to the
    #: reference executor, which reports the fault identically.
    required: frozenset
    #: Closed-form OverlappedRun facts.
    cycles: int
    max_inflight: int
    utilization: dict[str, float]
    #: Closed-form AcceleratorRun facts (vm.run_loop tier).
    n_mem_ops: int
    load_stream_ops: dict[int, int] = field(default_factory=dict)

    def run(self, memory: Memory, live_ins: Mapping[Reg, Value]
            ) -> dict[Reg, Value]:
        """Execute over *memory*; returns the produced live-outs."""
        values = self.fn(memory._cells,
                         *[live_ins[reg] for reg in self.params])
        outs = dict(zip(self.out_regs, values))
        return outs


# -- in-process code cache ----------------------------------------------------

#: key -> SpecializedKernel, or None for a negative (unsupported) entry.
#: Ordered LRU: hits move to the back, eviction pops the front.  The
#: key embeds the trip count, so a long-lived service seeing varying
#: trips for one loop would otherwise grow this without bound.
_code_cache: "OrderedDict[tuple, Optional[SpecializedKernel]]" = OrderedDict()
#: loop name -> keys, for guard-driven invalidation; ``_key_loop`` is
#: the reverse map so LRU eviction can clean the per-loop sets.
_loop_keys: dict[str, set] = {}
_key_loop: dict[tuple, str] = {}
_stats = {"compiled": 0, "hits": 0, "unsupported": 0, "errors": 0,
          "deopts": 0, "evicted": 0}

#: Max cached kernels (``REPRO_JIT_CACHE`` / :func:`set_code_cache_limit`
#: override).  Negative (unsupported) entries count too — they are tiny,
#: but an unbounded negative set is still a leak.
DEFAULT_CODE_CACHE_LIMIT = 256
JIT_CACHE_ENV = "REPRO_JIT_CACHE"

_code_cache_limit_override: Optional[int] = None

#: Test seam: when set, applied to the specialized live-outs as
#: ``hook(loop_name, live_outs) -> live_outs`` so guard tests can force
#: a cross-check mismatch without touching real machine state.
_test_corruption: Optional[Callable[[str, dict], dict]] = None


def set_test_corruption(hook: Optional[Callable[[str, dict], dict]]) -> None:
    global _test_corruption
    _test_corruption = hook


def set_code_cache_limit(limit: Optional[int]) -> None:
    """Process-wide cap override (None restores env/default); applies
    on the next insert — existing entries are not evicted eagerly."""
    global _code_cache_limit_override
    _code_cache_limit_override = (None if limit is None
                                  else max(1, int(limit)))


def code_cache_limit() -> int:
    if _code_cache_limit_override is not None:
        return _code_cache_limit_override
    raw = os.environ.get(JIT_CACHE_ENV)
    if raw:
        # Permissive like REPRO_JOBS: Settings.from_env rejects loudly.
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return DEFAULT_CODE_CACHE_LIMIT


def _forget_key(key: tuple) -> None:
    """Unlink *key* from the per-loop invalidation index."""
    loop_name = _key_loop.pop(key, None)
    if loop_name is not None:
        keys = _loop_keys.get(loop_name)
        if keys is not None:
            keys.discard(key)
            if not keys:
                _loop_keys.pop(loop_name, None)


def _evict_to_limit() -> None:
    limit = code_cache_limit()
    while len(_code_cache) > limit:
        key, _kernel = _code_cache.popitem(last=False)
        _forget_key(key)
        _stats["evicted"] += 1
        obs.inc("jit.code_cache_evicted")
    obs.set_gauge("jit.code_cache_size", len(_code_cache))


def clear_code_cache() -> None:
    _code_cache.clear()
    _loop_keys.clear()
    _key_loop.clear()
    obs.set_gauge("jit.code_cache_size", 0)


def code_cache_stats() -> dict:
    return dict(_stats, entries=len(_code_cache),
                limit=code_cache_limit())


def invalidate_loop(loop_name: str) -> int:
    """Drop every compiled kernel for *loop_name* (guard deopt path)."""
    keys = _loop_keys.pop(loop_name, set())
    dropped = 0
    for key in keys:
        _key_loop.pop(key, None)
        if _code_cache.pop(key, None) is not None:
            dropped += 1
    if dropped:
        _stats["deopts"] += dropped
        obs.inc("vm.specialize_deopt", dropped)
    obs.set_gauge("jit.code_cache_size", len(_code_cache))
    return dropped


def _image_key(image: KernelImage, trips: int) -> tuple:
    """Cache key: transcache digest when the translator attached one,
    else a content digest — plus the facts the digest does not pin
    (trip specialization and the caller-config unit pools)."""
    digest = getattr(image, "digest", None)
    if digest is None:
        from repro.perf.digest import digest_of, loop_digest
        schedule = image.schedule
        digest = digest_of(
            "jit-image", loop_digest(image.loop), schedule.ii,
            sorted(schedule.times.items()),
            schedule.completion_time(image.dfg))
    units = tuple(sorted(image.schedule.units.items()))
    return (digest, trips, units)


def kernel_for(image: KernelImage, trips: int
               ) -> Optional[SpecializedKernel]:
    """The compiled kernel for (image, trips), or None if unsupported."""
    key = _image_key(image, trips)
    if key in _code_cache:
        _stats["hits"] += 1
        _code_cache.move_to_end(key)
        return _code_cache[key]
    started = time.perf_counter()
    try:
        kernel = specialize(image, trips)
        _stats["compiled"] += 1
        obs.inc("translator.units.specialize",
                len(kernel.source.splitlines()))
    except SpecializationUnsupported:
        kernel = None
        _stats["unsupported"] += 1
    except Exception as exc:
        # A codegen crash must never take down the reference path, but
        # it is a bug, not a shape: count and record it apart so it
        # cannot hide as a silent slowdown.
        kernel = None
        _stats["unsupported"] += 1
        _stats["errors"] += 1
        obs.inc("jit.codegen_errors")
        from repro.resilience.incidents import record_incident
        record_incident("jit-codegen-error", "accelerator.jit",
                        f"{type(exc).__name__}: {exc}",
                        loop=image.loop.name, trips=trips)
    obs.observe("jit.compile_ms",
                (time.perf_counter() - started) * 1000.0)
    _code_cache[key] = kernel
    _loop_keys.setdefault(image.loop.name, set()).add(key)
    _key_loop[key] = image.loop.name
    _evict_to_limit()
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


def _wrap_inline(expr: str) -> str:
    """``wrap64`` inlined for the steady-state loop: a range test that
    returns the value itself, else ``((x + 2**63) & (2**64-1)) - 2**63``
    (measured cheaper than the arithmetic alone, which allocates)."""
    return (f"(__t if -{_BIAS} <= (__t := {expr}) < {_BIAS} "
            f"else (__t + {_BIAS} & {_MASK}) - {_BIAS})")


def _wrap_call(expr: str) -> str:
    """``wrap64`` as a helper call, for code that runs once per call:
    the inline form costs more to compile than it saves there."""
    return f"__w({expr})"


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

_HELPERS = {"__w": wrap64, "__tdiv": _trunc_div, "__trem": _trunc_rem}


def _value_expr(op: Operation, operands: list[_Val],
                wrap: Callable[[str], str] = _wrap_inline
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
        return wrap(f"{_int(a)} {sym} {_int(b)}"), INT64, _int_raises(a, b)
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
            expr = wrap(f"{_int(a)} {sym} {_int(b)}")
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
            expr = x if exact else wrap(x)
        elif sym == "<<":
            expr = wrap(f"{x} << {amount}")
        elif sym == ">>":
            # An arithmetic right shift keeps an int64 in range.
            expr = f"({x} >> {amount})" if exact else wrap(
                f"{x} >> {amount}")
        elif k is not None:
            # Logical: the 64-bit pattern shifted by 1..63 is in range.
            expr = f"(({x} & {_MASK}) >> {k})"
        else:
            expr = wrap(f"({x} & {_MASK}) >> {amount}")
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
        return wrap(sym.format(_int(a))), INT64, _int_raises(a)
    if form == "not":
        if a.kind == INT64:
            return f"(~{a.expr})", INT64, False
        return wrap(f"~{_int(a)}"), INT64, _int_raises(a)
    if form == "div":
        # The divisor is converted once, the dividend only if it is used.
        return (f"(0 if (__d := {_int(b)}) == 0 else "
                f"{wrap(f'__tdiv({_int(a)}, __d)')})", INT64,
                _int_raises(a, b))
    if form == "rem":
        # The reference converts the divisor, then the dividend, and
        # only then tests for zero.
        return (f"(0 if ((__d := {_int(b)}), (__n := {_int(a)}))[0] == 0 "
                f"else {wrap('__trem(__n, __d)')})", INT64,
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
        return wrap(f"int({_float(a)})"), INT64, a.kind != INT64
    if form == "copy":
        return a.expr, a.kind, False
    if form == "select":
        c = operands[2]
        return (f"({b.expr} if {a.expr} else {c.expr})",
                _join(b.kind, c.kind), False)
    raise SpecializationUnsupported(f"opcode {op.opcode} has no typed form")


#: Opcodes the emitter handles outside :func:`_value_expr`.
_NON_VALUE = {Opcode.LOAD, Opcode.FLOAD, Opcode.STORE, Opcode.FSTORE,
              Opcode.CCA_OP, Opcode.BR, Opcode.JUMP, Opcode.CALL,
              Opcode.BRL}


class _Codegen:
    """Builds the specialized source for one (image, trips) pair."""

    def __init__(self, image: KernelImage, trips: int) -> None:
        self.image = image
        self.loop = image.loop
        self.schedule = image.schedule
        self.ii = image.schedule.ii
        self.trips = trips
        self.sc = max(1, image.schedule.stage_count)
        #: Register-set slots; one more than the stage count so a
        #: distance-1 read of the oldest in-flight iteration is never
        #: clobbered by the newest one reusing its slot.
        self.s = self.sc + 1
        self.lines: list[str] = []
        self.params: list[Reg] = []
        self._param_index: dict[Reg, int] = {}
        self.required: set[Reg] = set()
        # Mirror of _DataflowResolver's producer map, per reading op:
        # each distinct register read (sources, then the predicate) ->
        # (producer opid, distance, dest index) of the nearest preceding
        # in-body def (distance 0), else of the final def (distance 1);
        # None for a live-in.
        self._reads: dict[int, dict[Reg, Optional[tuple]]] = {}
        self._index = {op.opid: i for i, op in enumerate(self.loop.body)}
        self._by_id = {op.opid: op for op in self.loop.body}
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
        #: over ``{i}`` operand placeholders, so each instance of an op
        #: only formats in its own variable names.
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
        self._live, self._needed = self._liveness()
        #: Scheduled ops that are emitted, in body order.
        self._emitted = [op for op in self.loop.body
                         if op.opid in self._needed]
        for op in self.loop.body:
            if (op.opid in self.schedule.times
                    and op.opid not in self._needed):
                # A dead pure op is never emitted, but the reference
                # still reads its operands: its live-ins stay required.
                for reg, producer in self._reads[op.opid].items():
                    if producer is None or producer[1]:
                        self._live_in(reg)  # iteration 0 reads it
                    if (producer is not None
                            and producer[0] not in self.schedule.times):
                        raise SpecializationUnsupported(
                            f"op{producer[0]}: value read of an "
                            f"unscheduled producer")

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
            elif oc not in _NON_VALUE:
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
            if op.opid in reads and (op.opcode in _NON_VALUE
                                     and op.opcode is not Opcode.CCA_OP
                                     or op.opid in self._raises):
                need(op.opid)
        for reg in self.loop.live_outs:
            producer = None
            for op in self.loop.body:
                if reg in op.dests:
                    producer = op
            if producer is not None:
                work.append((producer.opid, producer.dests.index(reg)))
        while work:
            value = work.pop()
            if value not in live:
                live.add(value)
                if value[0] in reads:
                    need(value[0])
        return live, needed

    def _pure_form(self, op: Operation, operands: list[_Val],
                   hot: bool = False) -> tuple[str, str, bool]:
        """:func:`_value_expr` of *op* as a ``{i}`` template; *hot*
        selects the inline wrap of the steady-state loop."""
        key = (op.opid, hot, *[v.kind for v in operands])
        form = self._forms.get(key)
        if form is None:
            form = _value_expr(op, [v._replace(expr=f"{{{i}}}")
                                    for i, v in enumerate(operands)],
                               _wrap_inline if hot else _wrap_call)
            self._forms[key] = form
        return form

    def _compound_form(self, op: Operation, kinds: tuple[str, ...],
                       hot: bool = False
                       ) -> tuple[list[tuple], dict[Reg, _Val]]:
        """Type CCA *op*'s inner ops over its register reads of *kinds*.

        Returns the steps ``(temp or None, expr, raises, temps read)``
        of every inner op that executes, and the final binding; the
        i-th register read appears as the placeholder ``{i}``.
        """
        key = (op.opid, "cca", hot) + kinds
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
            expr, kind, raises = _value_expr(
                inner, operands, _wrap_inline if hot else _wrap_call)
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

    # -- small helpers ----------------------------------------------------

    def _live_in(self, reg: Reg) -> str:
        self.required.add(reg)
        if reg not in self._param_index:
            self._param_index[reg] = len(self.params)
            self.params.append(reg)
        return f"L{self._param_index[reg]}"

    def _resolve(self, op: Operation, reg: Reg, k: Optional[int],
                 slot_phase: Optional[int] = None) -> _Val:
        """Typed value of *reg* as *op* reads it in iteration *k*."""
        return self._read(reg, self._reads[op.opid].get(reg), k,
                          slot_phase)

    def _read(self, reg: Reg, producer: Optional[tuple], k: Optional[int],
              slot_phase: Optional[int]) -> _Val:
        """Typed value of a read of *reg* from *producer*.

        ``k`` is the concrete iteration in unrolled regions; in the
        steady-state template ``k`` is None and ``slot_phase`` is the
        static ``k mod S`` of the reading instance (``k >= 1`` there,
        so a distance-1 read takes its producer's kind).
        """
        if producer is None:
            return _Val(self._live_in(reg), UNKNOWN)
        opid, distance, ri = producer
        if opid not in self.schedule.times:
            # Offloadable (eliminated) producer: the partition guarantees
            # such values feed only addresses and the branch, so a value
            # read landing here is a shape we do not reproduce.
            raise SpecializationUnsupported(
                f"op{opid}: value read of an unscheduled producer")
        if k is not None:
            source = k - distance
            if source < 0:
                return _Val(self._live_in(reg), UNKNOWN)
            slot = source % self.s
        else:
            slot = (slot_phase - distance) % self.s
        return _Val(f"v{opid}_{ri}_{slot}", self._kinds[(opid, ri)])

    def _operand(self, entry: tuple, k: Optional[int],
                 slot_phase: Optional[int]) -> _Val:
        imm, reg, producer = entry
        return imm or self._read(reg, producer, k, slot_phase)

    def _addr(self, op: Operation, k: Optional[int],
              steady_offset: Optional[int] = None) -> str:
        """Address expression: stream base plus folded stride offsets."""
        pattern = self._patterns[op.opid]
        if k is not None:
            off = pattern.stride * k
            return f"b{op.opid} + {off}" if off else f"b{op.opid}"
        off = pattern.stride * steady_offset
        return f"a{op.opid} + {off}" if off else f"a{op.opid}"

    # -- per-instance emission -------------------------------------------

    def _emit_instance(self, op: Operation, k: Optional[int],
                       slot_phase: Optional[int] = None,
                       steady_offset: Optional[int] = None,
                       indent: str = "    ") -> None:
        """Emit op's iteration-*k* instance (or the steady template)."""
        oc = op.opcode
        if oc in (Opcode.BR, Opcode.JUMP):
            return
        if oc in (Opcode.CALL, Opcode.BRL):
            raise SpecializationUnsupported(f"op{op.opid}: {oc} traps")
        phase = k % self.s if k is not None else slot_phase
        pred = (None if op.predicate is None else
                self._resolve(op, op.predicate, k, slot_phase).expr)
        dest = f"{indent}v{op.opid}_0_{phase} = "
        if oc is Opcode.CCA_OP:
            self._emit_compound(op, k, slot_phase, pred, indent)
            return
        if oc in (Opcode.STORE, Opcode.FSTORE):
            addr = self._addr(op, k, steady_offset)
            val = self._operand(self._srcs[op.opid][2], k, slot_phase).expr
            self.lines.append(
                f"{indent}__cells[{addr}] = {val}" if pred is None
                else f"{indent}if {pred}: __cells[{addr}] = {val}")
            copied = 0  # stores define nothing
        elif oc in (Opcode.LOAD, Opcode.FLOAD):
            if not op.dests:
                raise SpecializationUnsupported(
                    f"op{op.opid}: load without destination")
            expr = f"__cells.get({self._addr(op, k, steady_offset)}, 0)"
            copied = 1
        else:
            # Pure value op (needed: read, or it may raise).
            operands = [self._operand(entry, k, slot_phase)
                        for entry in self._srcs[op.opid]]
            expr = self._pure_form(op, operands, k is None)[0].format(
                *[v.expr for v in operands])
            if not op.dests:
                # Result discarded, but the conversion may raise.
                self.lines.append(f"{indent}{expr}" if pred is None
                                  else f"{indent}if {pred}: {expr}")
                return
            copied = 1
        if copied:
            if pred is not None:
                # Squashed predicated op: the executor copies the value
                # the register would resolve to *as if read here*.
                prior = self._resolve(op, op.dests[0], k, slot_phase)
                expr = f"({expr} if {pred} else {prior.expr})"
            self.lines.append(dest + expr)
        for ri in range(copied, len(op.dests)):
            if (op.opid, ri) in self._live:
                prior = self._resolve(op, op.dests[ri], k, slot_phase)
                self.lines.append(
                    f"{indent}v{op.opid}_{ri}_{phase} = {prior.expr}")

    def _emit_compound(self, op: Operation, k: Optional[int],
                       slot_phase: Optional[int], pred: Optional[str],
                       indent: str) -> None:
        """CCA compound: inner ops over a compile-time binding map; an
        inner temporary nothing reads that cannot raise is dropped."""
        phase = k % self.s if k is not None else slot_phase
        bound = [self._read(reg, producer, k, slot_phase)
                 for reg, producer in self._reads[op.opid].items()]
        steps, binding = self._compound_form(
            op, tuple(v.kind for v in bound), k is None)
        args = [v.expr for v in bound]
        live = [ri for ri in range(len(op.dests))
                if (op.opid, ri) in self._live]
        wanted = {binding[op.dests[ri]].expr for ri in live
                  if op.dests[ri] in binding}
        inner_indent = indent + ("    " if pred is not None else "")
        body: list[str] = []
        for name, expr, raises, reads in reversed(steps):
            if raises or name in wanted:
                wanted.update(reads)
                line = f"{name} = {expr}" if name else expr
                body.append(inner_indent + line.format(*args))
        body.reverse()
        for ri in live:
            d = op.dests[ri]
            value = (binding[d].expr.format(*args) if d in binding else
                     self._resolve(op, d, k, slot_phase).expr)
            body.append(f"{inner_indent}v{op.opid}_{ri}_{phase} = {value}")
        if pred is None or not body:
            self.lines.extend(body)
            return
        self.lines.append(f"{indent}if {pred}:")
        self.lines.extend(body)
        if live:
            self.lines.append(f"{indent}else:")
            for ri in live:
                fallback = self._resolve(op, op.dests[ri], k,
                                         slot_phase)
                self.lines.append(f"{inner_indent}v{op.opid}_{ri}_{phase} = "
                                  f"{fallback.expr}")

    # -- window scheduling -------------------------------------------------

    def _window_ops(self, j: int) -> list[tuple[int, int, Operation]]:
        """Scheduled instances of window *j*: (cycle, k, op), in the
        executor's (absolute cycle, iteration, position) order."""
        out = []
        for op in self._emitted:
            s, cyc = divmod(self.schedule.times[op.opid], self.ii)
            k = j - s
            if 0 <= k < self.trips:
                out.append(((cyc, k, self._index[op.opid]), k, op))
        out.sort(key=lambda e: e[0])
        return [(e[0][0], e[1], e[2]) for e in out]

    def _steady_template(self) -> list[tuple[int, int, Operation]]:
        """(cycle, stage, op) for one full steady window, in order."""
        out = []
        for op in self._emitted:
            s, cyc = divmod(self.schedule.times[op.opid], self.ii)
            out.append(((cyc, -s, self._index[op.opid]), s, op))
        out.sort(key=lambda e: e[0])
        return [(e[0][0], e[1], e[2]) for e in out]

    # -- whole-function generation ----------------------------------------

    def generate(self) -> tuple[str, list[Reg], list[Reg]]:
        trips, sc, s = self.trips, self.sc, self.s
        total = trips + sc - 1
        body = self.lines
        # Stream bases (placeholders are patched in after the body is
        # generated, once the live-in parameter list is final).
        prelude_mark = len(body)

        ramp_end = min(sc, total)           # windows [0, ramp_end)
        steady_lo, steady_hi = sc, trips    # windows [sc, trips)
        for j in range(ramp_end):
            body.append(f"    # window {j}")
            for _cyc, k, op in self._window_ops(j):
                self._emit_instance(op, k=k)
        if steady_hi > steady_lo:
            template = self._steady_template()
            n_steady = steady_hi - steady_lo
            n_full, rem = divmod(n_steady, s)
            steady_ops = {op.opid for _c, _s, op in template
                          if op.is_memory}
            if n_full:
                for opid in sorted(steady_ops):
                    op = self._by_id[opid]
                    stride = self._patterns[opid].stride
                    t = self.schedule.times[opid]
                    first_k = sc - t // self.ii
                    off = stride * first_k
                    init = f"b{opid} + {off}" if off else f"b{opid}"
                    body.append(f"    a{opid} = {init}")
                body.append(f"    for _ in range({n_full}):")
                loop_at = len(body)
                for r in range(s):
                    body.append(f"        # steady phase {r}")
                    for _cyc, stage, op in template:
                        phase = (sc + r - stage) % s
                        self._emit_instance(
                            op, k=None, slot_phase=phase,
                            steady_offset=r, indent="        ")
                if len(body) == loop_at + s and not steady_ops:
                    body.append("        pass")  # every op was dead
                for opid in sorted(steady_ops):
                    stride = self._patterns[opid].stride
                    body.append(f"        a{opid} += {stride * s}")
            # Remainder windows keep static iterations: their slot
            # phases (sc + r - stage) mod S are independent of n_full.
            for r in range(rem):
                j = steady_lo + n_full * s + r
                body.append(f"    # window {j} (steady remainder)")
                for _cyc, k, op in self._window_ops(j):
                    self._emit_instance(op, k=k)
        for j in range(max(sc, trips), total):
            body.append(f"    # window {j} (epilogue)")
            for _cyc, k, op in self._window_ops(j):
                self._emit_instance(op, k=k)

        # Live-outs: the textually last producer's final-iteration value.
        out_regs: list[Reg] = []
        returns: list[str] = []
        for reg in self.loop.live_outs:
            producer = None
            for op in self.loop.body:
                if reg in op.dests:
                    producer = op.opid
            if producer is None:
                continue  # live-in passthrough, handled by the wrapper
            if producer not in self.schedule.times:
                raise SpecializationUnsupported(
                    f"live-out {reg} produced by unscheduled op{producer}")
            if reg in out_regs:
                continue
            out_regs.append(reg)
            ri = self._by_id[producer].dests.index(reg)
            returns.append(f"v{producer}_{ri}_{(trips - 1) % s}")
        body.append(f"    return ({', '.join(returns)}{',' if returns else ''})")

        # Stream-base prelude, now that the parameter list is final.
        prelude: list[str] = []
        emitted_bases: set[int] = set()
        for op in self.loop.body:
            if op.opid in self._patterns and op.opid not in emitted_bases:
                emitted_bases.add(op.opid)
                pattern = self._patterns[op.opid]
                terms = [str(pattern.base.const)]
                for (space, name), coeff in pattern.base.terms:
                    param = self._live_in(Reg(name, space))
                    terms.append(f"{coeff} * int({param})" if coeff != 1
                                 else f"int({param})")
                prelude.append(f"    b{op.opid} = " + " + ".join(terms))
        params = ", ".join(f"L{i}" for i in range(len(self.params)))
        header = [f"def __specialized(__cells{', ' if params else ''}"
                  f"{params}):"]
        source = "\n".join(header + body[:prelude_mark] + prelude
                           + body[prelude_mark:]) + "\n"
        return source, list(self.params), out_regs


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
    """Compile *image* at trip count *trips* into one Python function.

    Raises :class:`SpecializationUnsupported` for shapes the generated
    code cannot reproduce bit-identically (the caller falls back to the
    reference executors).
    """
    if trips <= 0:
        raise SpecializationUnsupported("non-positive trip count")
    loop = image.loop
    if loop.annotations.get("while_loop"):
        raise SpecializationUnsupported("while loop: trips are speculative")
    gen = _Codegen(image, trips)
    source, params, out_regs = gen.generate()
    namespace = dict(_HELPERS)
    code = compile(source, f"<specialized {loop.name}>", "exec")
    exec(code, namespace)
    fn = namespace["__specialized"]
    cycles, max_inflight, utilization = _closed_form_facts(image, trips)
    # Stream bases are required live-ins too (resolve_pattern raises on
    # a missing one); collect load-stream fan-in for the closed-form
    # FIFO occupancy of the vm.run_loop tier.
    required = frozenset(gen.required)
    seen: dict[tuple, int] = {}
    load_stream_ops: dict[int, int] = {}
    n_mem_ops = 0
    for op in loop.body:
        if not op.is_memory:
            continue
        n_mem_ops += 1
        pattern = gen._patterns[op.opid]
        key = pattern.key()
        if key not in seen:
            seen[key] = len(seen)
        if op.is_load:
            sid = seen[key]
            load_stream_ops[sid] = load_stream_ops.get(sid, 0) + 1
    return SpecializedKernel(
        loop_name=loop.name, source=source, fn=fn, trips=trips,
        params=tuple(params), out_regs=tuple(out_regs),
        required=required, cycles=cycles, max_inflight=max_inflight,
        utilization=utilization, n_mem_ops=n_mem_ops,
        load_stream_ops=load_stream_ops)


# -- tier dispatch ------------------------------------------------------------

def execute_pipelined(image: KernelImage, memory: Memory,
                      live_in_values: Mapping[Reg, Value],
                      trip_count: Optional[int] = None,
                      fault_hook=None) -> OverlappedRun:
    """Tier-aware drop-in for :func:`execute_overlapped`.

    At engine level >= 2 (and with no fault hook — injection is an
    event-level seam only the event executor honours) the specialized
    kernel runs instead of the event simulation; every unsupported or
    failing case falls back to the reference executor, which reports
    faults identically.
    """
    from repro import perf
    trips = image.loop.trip_count if trip_count is None else trip_count
    if (perf.engine_level() < 2 or fault_hook is not None or trips <= 0):
        return execute_overlapped(image, memory, live_in_values,
                                  trip_count, fault_hook)
    kernel = kernel_for(image, trips)
    if kernel is None or not kernel.required <= set(live_in_values):
        return execute_overlapped(image, memory, live_in_values,
                                  trip_count, fault_hook)
    try:
        live_outs = kernel.run(memory, live_in_values)
    except AcceleratorFault:
        raise
    except Exception:
        # Generated-code failure: permanent deopt for this loop, then
        # the reference executor decides what the real outcome is.
        invalidate_loop(image.loop.name)
        return execute_overlapped(image, memory, live_in_values,
                                  trip_count, fault_hook)
    for reg in image.loop.live_outs:
        if reg not in live_outs and reg in live_in_values:
            producer = any(reg in op.dests for op in image.loop.body)
            if not producer:
                live_outs[reg] = live_in_values[reg]
    if _test_corruption is not None:
        live_outs = _test_corruption(image.loop.name, dict(live_outs))
    obs.inc("vm.specialized")
    return OverlappedRun(iterations=trips, cycles=kernel.cycles,
                         live_outs=live_outs,
                         max_inflight_iterations=kernel.max_inflight,
                         utilization=dict(kernel.utilization))


def invoke_specialized(accelerator, image: KernelImage, memory: Memory,
                       live_in_values: Mapping[Reg, Value],
                       trip_count: Optional[int] = None
                       ) -> Optional[AcceleratorRun]:
    """Specialized stand-in for ``LoopAccelerator.invoke``.

    Returns None when the image (or this trip count) is not specialized
    — the caller must then take the reference ``invoke`` path.  The
    accounting facts (register-file writes, address checks, FIFO
    occupancy, kernel/overhead cycles) are closed forms of the same
    quantities the iteration-by-iteration machine measures.
    """
    from repro import perf
    if perf.engine_level() < 2:
        return None
    if accelerator.admits(image) is not None:
        return None  # reference invoke raises the identical fault
    loop = image.loop
    trips = loop.trip_count if trip_count is None else trip_count
    if trips <= 0:
        return None
    kernel = kernel_for(image, trips)
    if kernel is None or not kernel.required <= set(live_in_values):
        return None
    try:
        live_outs = kernel.run(memory, live_in_values)
    except AcceleratorFault:
        raise
    except Exception:
        invalidate_loop(loop.name)
        return None
    accelerator.invocations += 1
    int_writes = 0
    fp_writes = 0
    config = accelerator.config
    for reg, phys in image.registers.mapping.items():
        if reg in live_in_values:
            if reg.space == "fp":
                accelerator.fp_regs.write(
                    min(phys, config.num_fp_regs - 1), live_in_values[reg])
                fp_writes += 1
            else:
                accelerator.int_regs.write(
                    min(phys, config.num_int_regs - 1), live_in_values[reg])
                int_writes += 1
    for reg in loop.live_outs:
        if reg not in live_outs and reg in live_in_values:
            live_outs[reg] = live_in_values[reg]
    if _test_corruption is not None:
        live_outs = _test_corruption(loop.name, dict(live_outs))
    obs.inc("vm.specialized")
    kernel_cycles = image.schedule.kernel_cycles(trips, image.dfg)
    overhead = (2 * config.bus_latency + int_writes + fp_writes
                + len(loop.live_outs))
    fifo_max = {sid: min(count * trips, 8)
                for sid, count in kernel.load_stream_ops.items()}
    return AcceleratorRun(
        iterations=trips, kernel_cycles=kernel_cycles,
        overhead_cycles=overhead, live_outs=live_outs,
        fifo_max_occupancy=fifo_max,
        addresses_checked=kernel.n_mem_ops * trips)
