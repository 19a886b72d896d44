"""Functional interpreter for baseline-ISA loops.

This is the semantic ground truth of the reproduction: the loop
accelerator machine (:mod:`repro.accelerator.machine`) must produce
bit-identical register and memory results for every loop it accepts,
which the integration and property tests assert.  What each value op
computes is its opcode's row in :mod:`repro.ir.opcodes`; this module
drives those rows over registers and memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.cpu.memory import Memory, Value
from repro.ir.loop import Loop
from repro.ir.opcodes import Opcode
from repro.ir.ops import Imm, Operand, Operation, Reg


def operand_value(regs: Mapping[Reg, Value], operand: Operand) -> Value:
    """The value of *operand*: an immediate's own, else its register's."""
    if isinstance(operand, Imm):
        return operand.value
    try:
        return regs[operand]
    except KeyError:
        raise KeyError(f"register {operand} read before initialisation")


def effective_address(regs: Mapping[Reg, Value], op: Operation) -> int:
    """Address a memory op accesses: base plus offset, both ``int()``-ed."""
    return (int(operand_value(regs, op.srcs[0]))
            + int(operand_value(regs, op.srcs[1])))


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

    This op-by-op driver of the opcode table's semantics is the one
    scalar interpreter: the differential guard's oracle and the
    reference every accelerated execution is checked against.
    """

    def __init__(self, memory: Optional[Memory] = None) -> None:
        self.memory = memory if memory is not None else Memory()

    # -- single-op semantics --------------------------------------------------

    def execute_op(self, op: Operation, regs: dict[Reg, Value]) -> None:
        """Execute one operation, updating *regs* and memory.

        A value op calls its opcode's ``semantics`` on its operands'
        values; memory ops, CALL traps and CCA compounds run here, and
        BR and JUMP are the loop driver's.
        """
        if op.predicate is not None:
            if not regs.get(op.predicate, 0):
                return
        oc = op.opcode
        if oc is Opcode.CCA_OP:
            # A collapsed subgraph executes its inner ops atomically.
            for inner in op.inner:
                self.execute_op(inner, regs)
            return
        if oc.is_value:
            result = oc.semantics(*[operand_value(regs, s) for s in op.srcs])
        elif oc.is_load:
            result = self.memory.read(effective_address(regs, op))
        elif oc.is_store:
            addr = effective_address(regs, op)
            self.memory.write(addr, operand_value(regs, op.srcs[2]))
            return
        elif oc.is_call:
            raise TrapError(f"op{op.opid}: calls cannot be interpreted "
                            f"inside a loop body")
        else:
            return
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
                    cond = operand_value(regs, op.srcs[0]) if op.srcs else 0
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
    label = cfg.entry
    steps = 0
    while True:
        block = cfg.blocks[label]
        next_label: Optional[str] = None
        for op in block.ops:
            steps += 1
            if steps > max_steps:
                raise TrapError("CFG execution exceeded step budget")
            if op.opcode is Opcode.BR:
                cond = operand_value(regs, op.srcs[0]) if op.srcs else 0
                if cond:
                    next_label = block.successors[0]
                else:
                    next_label = (block.successors[1]
                                  if len(block.successors) > 1 else None)
                break
            if op.opcode is Opcode.JUMP:
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
