"""Memory address-stream detection.

"In this analysis, we define a stream as a unique reference pattern,
i.e., a base address and a linear function that modifies that address
each loop iteration." (Section 3.1.)

The analysis symbolically executes one loop iteration, tracking each
register as a :class:`~repro.analysis.linexpr.LinExpr` over
iteration-start values.  A memory access is streamable when its address
is affine in registers that themselves advance by a constant per
iteration (classic induction variables and self-incrementing pointers
both satisfy this).  Accesses with data-dependent or non-affine
addresses make the loop untranslatable — "If the control and address
patterns are more complicated than supported by the accelerator, then
translation terminates at this point" (Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.analysis.linexpr import LinExpr, Symbol, symbol_of, try_mul
from repro.ir.loop import Loop
from repro.ir.opcodes import Opcode
from repro.ir.ops import Imm, Operand
from repro.ir.work import charge_run


@dataclass(frozen=True)
class StreamPattern:
    """Canonical reference pattern of one memory access.

    Attributes:
        base: Affine address at the first iteration, in iteration-start
            symbols (array base registers appear symbolically; the VM
            resolves them from the memory-mapped register file at
            invocation).
        stride: Address change per loop iteration.
        is_store: Direction of the stream.
        element_offset: Constant offset operand of the access.
    """

    base: LinExpr
    stride: int
    is_store: bool
    element_offset: int

    def key(self) -> tuple:
        return (self.base, self.stride, self.is_store, self.element_offset)


@dataclass
class StreamAnalysis:
    """Result of stream detection over a loop.

    Attributes:
        patterns: opid -> detected pattern for every memory operation
            (None when the access is not streamable).
        load_streams / store_streams: De-duplicated reference patterns;
            their lengths are what the Figure 4(a) sweep constrains.
        failures: opids of memory ops with unsupported address patterns.
        iv_steps: Per-symbol per-iteration advance for every register
            whose update is affine (step 0 = loop invariant).
    """

    patterns: dict[int, Optional[StreamPattern]]
    load_streams: list[StreamPattern]
    store_streams: list[StreamPattern]
    failures: list[int]
    iv_steps: dict[Symbol, int]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def num_load_streams(self) -> int:
        return len(self.load_streams)

    @property
    def num_store_streams(self) -> int:
        return len(self.store_streams)


def _symbolic_iteration(
    loop: Loop, work: Optional[Callable[[int], None]] = None
) -> tuple[dict[int, Optional[LinExpr]], dict[Symbol, Optional[LinExpr]]]:
    """Symbolically execute one iteration.

    Returns ``(addr_exprs, final_env)`` where ``addr_exprs[opid]`` is the
    affine address of each memory op (or None) and ``final_env`` maps
    each register symbol to its end-of-iteration expression.
    """
    env: dict[Symbol, Optional[LinExpr]] = {}

    def value(operand: Operand) -> Optional[LinExpr]:
        if isinstance(operand, Imm):
            if isinstance(operand.value, int):
                return LinExpr.constant(operand.value)
            return None
        sym = symbol_of(operand)
        if sym not in env:
            env[sym] = LinExpr.of(operand)  # iteration-start value
        return env[sym]

    addr_exprs: dict[int, Optional[LinExpr]] = {}
    for op in loop.body:
        if op.is_memory:
            # A predicated access may still be a stream: the address
            # generator advances every iteration and the squashed element
            # is simply dropped, so the predicate does not affect the
            # pattern (only predicated *address computation* does, via
            # the env returning None for conditionally-updated regs).
            base = value(op.srcs[0])
            offset = value(op.srcs[1]) if len(op.srcs) > 1 else LinExpr.constant(0)
            if base is not None and offset is not None:
                addr_exprs[op.opid] = base + offset
            else:
                addr_exprs[op.opid] = None
        result: Optional[LinExpr] = None
        if op.predicate is not None:
            result = None  # conditionally-updated registers are not affine
        elif op.opcode is Opcode.ADD:
            a, b = value(op.srcs[0]), value(op.srcs[1])
            result = a + b if a is not None and b is not None else None
        elif op.opcode is Opcode.SUB:
            a, b = value(op.srcs[0]), value(op.srcs[1])
            result = a - b if a is not None and b is not None else None
        elif op.opcode is Opcode.NEG:
            a = value(op.srcs[0])
            result = a.scaled(-1) if a is not None else None
        elif op.opcode is Opcode.MUL:
            result = try_mul(value(op.srcs[0]), value(op.srcs[1]))
        elif op.opcode is Opcode.SHL:
            a, b = value(op.srcs[0]), value(op.srcs[1])
            if a is not None and b is not None and b.is_constant and \
                    0 <= b.const < 63:
                result = a.shifted_left(b.const)
        elif op.opcode in (Opcode.MOV, Opcode.LDI):
            result = value(op.srcs[0])
        # Every other opcode produces a non-affine value.
        for dest in op.dests:
            env[symbol_of(dest)] = result
    charge_run(work, len(loop.body))  # one unit per op executed
    return addr_exprs, env


def analyze_streams(loop: Loop,
                    work: Optional[Callable[[int], None]] = None
                    ) -> StreamAnalysis:
    """Detect the memory streams of *loop*.

    The per-iteration stride of an address ``const + sum(c_i * R_i)`` is
    ``sum(c_i * step_i)`` where ``step_i`` is register ``R_i``'s constant
    per-iteration advance.  If any referenced register does not advance
    by a compile-time constant, the access is not a stream.
    """
    addr_exprs, final_env = _symbolic_iteration(loop, work)

    iv_steps: dict[Symbol, int] = {}
    for sym, expr in final_env.items():
        if expr is None:
            continue
        delta = expr - LinExpr(terms=((sym, 1),))
        if delta.is_constant:
            iv_steps[sym] = delta.const

    patterns: dict[int, Optional[StreamPattern]] = {}
    failures: list[int] = []
    loads: dict[tuple, StreamPattern] = {}
    stores: dict[tuple, StreamPattern] = {}
    for op in loop.body:
        if not op.is_memory:
            continue
        expr = addr_exprs.get(op.opid)
        pattern: Optional[StreamPattern] = None
        if expr is not None:
            stride = 0
            ok = True
            for sym in expr.symbols():
                if sym not in iv_steps:
                    ok = False
                    break
                stride += expr.coefficient(sym) * iv_steps[sym]
            if ok:
                offset = 0
                if len(op.srcs) > 1 and isinstance(op.srcs[1], Imm) and \
                        isinstance(op.srcs[1].value, int):
                    offset = op.srcs[1].value
                pattern = StreamPattern(base=expr, stride=stride,
                                        is_store=op.is_store,
                                        element_offset=offset)
        patterns[op.opid] = pattern
        if pattern is None:
            failures.append(op.opid)
        elif op.is_store:
            stores.setdefault(pattern.key(), pattern)
        else:
            loads.setdefault(pattern.key(), pattern)

    return StreamAnalysis(
        patterns=patterns,
        load_streams=list(loads.values()),
        store_streams=list(stores.values()),
        failures=failures,
        iv_steps=iv_steps,
    )
