"""Functional interpreter for baseline-ISA loops.

This is the semantic ground truth of the reproduction: the loop
accelerator machine (:mod:`repro.accelerator.machine`) must produce
bit-identical register and memory results for every loop it accepts,
which the integration and property tests assert.

Integer arithmetic wraps to 64-bit two's complement, matching a 64-bit
baseline processor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.cpu.memory import Memory, Value
from repro.ir.loop import Loop
from repro.ir.opcodes import Opcode
from repro.ir.ops import Imm, Operand, Operation, Reg

_MASK = (1 << 64) - 1


def wrap64(value: int) -> int:
    """Wrap *value* to a signed 64-bit integer."""
    value &= _MASK
    if value >= 1 << 63:
        value -= 1 << 64
    return value


def _shift_amount(value: int) -> int:
    return int(value) & 63


def _as_bits(value: int) -> int:
    return int(value) & _MASK


def _trunc_div(n: int, d: int) -> int:
    """Sign-correct truncating (round-toward-zero) integer division.

    Exact at any magnitude — ``int(n / d)`` detours through a float and
    silently corrupts quotients once operands exceed 2**53.
    """
    q = abs(n) // abs(d)
    return -q if (n < 0) != (d < 0) else q


def _trunc_rem(n: int, d: int) -> int:
    """Remainder matching :func:`_trunc_div` (sign follows the dividend)."""
    return n - _trunc_div(n, d) * d


class TrapError(RuntimeError):
    """Raised for conditions the hardware would trap on (e.g. CALL)."""


@dataclass
class ExecResult:
    """Outcome of running a loop to completion.

    Attributes:
        iterations: Number of iterations executed (including the final
            one whose branch fell through).
        regs: Final register file contents.
        live_outs: Values of the loop's declared live-out registers.
        dynamic_ops: Total operations executed (squashed predicated ops
            still count — they occupied an issue slot).
    """

    iterations: int
    regs: dict[Reg, Value]
    live_outs: dict[Reg, Value]
    dynamic_ops: int


class Interpreter:
    """Executes loops over a :class:`Memory`, one operation at a time.

    This op-by-op driver is the one implementation of scalar
    semantics: the differential guard's oracle and the reference every
    accelerated execution is checked against.
    """

    def __init__(self, memory: Optional[Memory] = None) -> None:
        self.memory = memory if memory is not None else Memory()

    # -- operand evaluation ------------------------------------------------

    @staticmethod
    def _value(regs: Mapping[Reg, Value], operand: Operand) -> Value:
        if isinstance(operand, Imm):
            return operand.value
        try:
            return regs[operand]
        except KeyError:
            raise KeyError(f"register {operand} read before initialisation")

    # -- single-op semantics --------------------------------------------------

    def execute_op(self, op: Operation, regs: dict[Reg, Value]) -> None:
        """Execute one operation, updating *regs* and memory."""
        if op.predicate is not None:
            if not regs.get(op.predicate, 0):
                return
        v = lambda i: self._value(regs, op.srcs[i])
        oc = op.opcode
        result: Optional[Value] = None
        if oc is Opcode.ADD:
            result = wrap64(int(v(0)) + int(v(1)))
        elif oc is Opcode.SUB:
            result = wrap64(int(v(0)) - int(v(1)))
        elif oc is Opcode.NEG:
            result = wrap64(-int(v(0)))
        elif oc is Opcode.ABS:
            result = wrap64(abs(int(v(0))))
        elif oc is Opcode.MIN:
            result = min(int(v(0)), int(v(1)))
        elif oc is Opcode.MAX:
            result = max(int(v(0)), int(v(1)))
        elif oc is Opcode.MUL:
            result = wrap64(int(v(0)) * int(v(1)))
        elif oc is Opcode.DIV:
            d = int(v(1))
            result = 0 if d == 0 else wrap64(_trunc_div(int(v(0)), d))
        elif oc is Opcode.REM:
            d = int(v(1))
            n = int(v(0))
            result = 0 if d == 0 else wrap64(_trunc_rem(n, d))
        elif oc is Opcode.AND:
            result = wrap64(_as_bits(int(v(0))) & _as_bits(int(v(1))))
        elif oc is Opcode.OR:
            result = wrap64(_as_bits(int(v(0))) | _as_bits(int(v(1))))
        elif oc is Opcode.XOR:
            result = wrap64(_as_bits(int(v(0))) ^ _as_bits(int(v(1))))
        elif oc is Opcode.NOT:
            result = wrap64(~int(v(0)))
        elif oc is Opcode.SHL:
            result = wrap64(int(v(0)) << _shift_amount(int(v(1))))
        elif oc is Opcode.SHR:
            result = wrap64(int(v(0)) >> _shift_amount(int(v(1))))
        elif oc is Opcode.SHRU:
            result = wrap64(_as_bits(int(v(0))) >> _shift_amount(int(v(1))))
        elif oc is Opcode.CMPEQ:
            result = int(v(0) == v(1))
        elif oc is Opcode.CMPNE:
            result = int(v(0) != v(1))
        elif oc is Opcode.CMPLT:
            result = int(v(0) < v(1))
        elif oc is Opcode.CMPLE:
            result = int(v(0) <= v(1))
        elif oc is Opcode.CMPGT:
            result = int(v(0) > v(1))
        elif oc is Opcode.CMPGE:
            result = int(v(0) >= v(1))
        elif oc is Opcode.SELECT:
            result = v(1) if v(0) else v(2)
        elif oc in (Opcode.MOV, Opcode.LDI):
            result = v(0)
        elif oc is Opcode.FADD:
            result = float(v(0)) + float(v(1))
        elif oc is Opcode.FSUB:
            result = float(v(0)) - float(v(1))
        elif oc is Opcode.FMUL:
            result = float(v(0)) * float(v(1))
        elif oc is Opcode.FDIV:
            d = float(v(1))
            result = 0.0 if d == 0.0 else float(v(0)) / d
        elif oc is Opcode.FNEG:
            result = -float(v(0))
        elif oc is Opcode.FABS:
            result = abs(float(v(0)))
        elif oc is Opcode.FMIN:
            result = min(float(v(0)), float(v(1)))
        elif oc is Opcode.FMAX:
            result = max(float(v(0)), float(v(1)))
        elif oc is Opcode.FCMPLT:
            result = int(float(v(0)) < float(v(1)))
        elif oc is Opcode.FCMPLE:
            result = int(float(v(0)) <= float(v(1)))
        elif oc is Opcode.FCMPEQ:
            result = int(float(v(0)) == float(v(1)))
        elif oc is Opcode.ITOF:
            result = float(int(v(0)))
        elif oc is Opcode.FTOI:
            result = wrap64(int(float(v(0))))
        elif oc in (Opcode.LOAD, Opcode.FLOAD):
            addr = int(v(0)) + int(v(1))
            result = self.memory.read(addr)
        elif oc in (Opcode.STORE, Opcode.FSTORE):
            addr = int(v(0)) + int(v(1))
            self.memory.write(addr, v(2))
        elif oc is Opcode.BR:
            pass  # handled by the loop driver
        elif oc is Opcode.JUMP:
            pass
        elif oc in (Opcode.CALL, Opcode.BRL):
            raise TrapError(f"op{op.opid}: calls cannot be interpreted "
                            f"inside a loop body")
        elif oc is Opcode.CCA_OP:
            # A collapsed subgraph executes its inner ops atomically.
            for inner in op.inner:
                self.execute_op(inner, regs)
            return
        else:  # pragma: no cover - exhaustive over the ISA
            raise NotImplementedError(oc)
        if result is not None and op.dests:
            regs[op.dests[0]] = result

    # -- loop driver --------------------------------------------------------------

    def run_loop(self, loop: Loop, live_in_values: Mapping[Reg, Value],
                 max_iterations: int = 1_000_000) -> ExecResult:
        """Execute *loop* until its loop-back branch falls through.

        Args:
            loop: The loop to run.
            live_in_values: Initial values for every live-in register
                (array bases, scalar inputs, the induction start value).
            max_iterations: Safety bound against non-terminating loops.
        """
        regs: dict[Reg, Value] = dict(live_in_values)
        iterations = 0
        dynamic_ops = 0
        while True:
            iterations += 1
            taken = False
            for op in loop.body:
                dynamic_ops += 1
                if op.opcode is Opcode.BR:
                    cond = self._value(regs, op.srcs[0]) if op.srcs else 0
                    taken = bool(cond)
                    break
                self.execute_op(op, regs)
            if not taken:
                break
            if iterations >= max_iterations:
                raise TrapError(f"loop {loop.name!r} exceeded "
                                f"{max_iterations} iterations")
        live_outs = {r: regs[r] for r in loop.live_outs if r in regs}
        return ExecResult(iterations=iterations, regs=regs,
                          live_outs=live_outs, dynamic_ops=dynamic_ops)


def run_cfg(interp: Interpreter, cfg, regs: dict[Reg, Value],
            max_steps: int = 5_000_000) -> dict[Reg, Value]:
    """Execute a control flow graph functionally.

    Follows the block convention of :class:`repro.ir.cfg.BasicBlock`: a
    conditional ``BR`` takes ``successors[0]`` when its condition is
    non-zero and ``successors[1]`` otherwise; everything else falls
    through to ``successors[0]``.  Used as ground truth when testing
    CFG-level transforms (if-conversion, inlining).
    """
    from repro.ir.opcodes import Opcode as _Op

    label = cfg.entry
    steps = 0
    while True:
        block = cfg.blocks[label]
        next_label: Optional[str] = None
        for op in block.ops:
            steps += 1
            if steps > max_steps:
                raise TrapError("CFG execution exceeded step budget")
            if op.opcode is _Op.BR:
                cond = interp._value(regs, op.srcs[0]) if op.srcs else 0
                if cond:
                    next_label = block.successors[0]
                else:
                    next_label = (block.successors[1]
                                  if len(block.successors) > 1 else None)
                break
            if op.opcode is _Op.JUMP:
                next_label = block.successors[0]
                break
            interp.execute_op(op, regs)
        if next_label is None:
            next_label = block.successors[0] if block.successors else None
        if next_label is None:
            return regs
        label = next_label


def standard_live_ins(loop: Loop, memory: Memory,
                      scalars: Optional[Mapping[str, Value]] = None
                      ) -> dict[Reg, Value]:
    """Conventional live-in binding: array bases from *memory*,
    counter-style registers to 0, user scalars from *scalars*.
    """
    scalars = dict(scalars or {})
    values: dict[Reg, Value] = {}
    array_names = {a.name for a in loop.arrays}
    for reg in loop.live_ins:
        if reg.name in array_names:
            values[reg] = memory.base_of(reg.name)
        elif reg.name in scalars:
            raw = scalars[reg.name]
            values[reg] = float(raw) if reg.space == "fp" else raw
        else:
            values[reg] = 0.0 if reg.space == "fp" else 0
    return values
