"""Fluent construction API for loop bodies.

Workload kernels (:mod:`repro.workloads`) and tests build loops with this
builder rather than hand-writing operation lists.  The builder emits the
same baseline-ISA shape the paper's compiler produces: a single basic
block whose final three operations increment the induction variable,
compare it against the bound, and branch back (Figure 5, ops 13-15).

Example:
    >>> from repro.ir.builder import LoopBuilder
    >>> b = LoopBuilder("axpy", trip_count=128)
    >>> x = b.array("x"); y = b.array("y")
    >>> a = b.live_in("a")
    >>> i = b.counter()
    >>> xi = b.load(b.add(x, i))
    >>> yi = b.load(b.add(y, i))
    >>> b.store(b.add(y, i), b.add(b.mul(a, xi), yi))
    >>> loop = b.finish()
"""

from __future__ import annotations

import itertools
from typing import Optional, Union

from repro.ir.loop import ArrayDecl, Loop
from repro.ir.opcodes import Opcode
from repro.ir.ops import Imm, Operand, Operation, Reg

ValueLike = Union[Reg, Imm, int, float]


def _as_operand(value: ValueLike) -> Operand:
    if isinstance(value, (Reg, Imm)):
        return value
    if isinstance(value, bool):
        return Imm(int(value))
    if isinstance(value, (int, float)):
        return Imm(value)
    raise TypeError(f"cannot use {value!r} as an operand")


class LoopBuilder:
    """Incrementally constructs a :class:`~repro.ir.loop.Loop`."""

    def __init__(self, name: str, trip_count: int = 256,
                 invocations: int = 1) -> None:
        self.name = name
        self.trip_count = trip_count
        self.invocations = invocations
        self._ops: list[Operation] = []
        self._opid = itertools.count()
        self._tmp = itertools.count()
        self._live_ins: list[Reg] = []
        self._live_outs: list[Reg] = []
        self._arrays: list[ArrayDecl] = []
        self._counter: Optional[Reg] = None
        self._counter_step = 1
        self._deferred_updates: list[tuple[Reg, int]] = []
        self._predicate: Optional[Reg] = None
        self._finished = False

    # -- declarations -------------------------------------------------------

    def live_in(self, name: str, space: str = "int") -> Reg:
        """Declare a scalar live-in register (memory-mapped register file)."""
        reg = Reg(name, space)
        if reg not in self._live_ins:
            self._live_ins.append(reg)
        return reg

    def live_out(self, reg: Reg) -> Reg:
        """Mark *reg* as a scalar result read back after the loop."""
        if reg not in self._live_outs:
            self._live_outs.append(reg)
        return reg

    def array(self, name: str, length: int = 1024, is_float: bool = False,
              may_alias: Optional[str] = None) -> Reg:
        """Declare a memory region; returns the base-address live-in."""
        self._arrays.append(ArrayDecl(name, length, is_float, may_alias))
        return self.live_in(name)

    def counter(self, name: str = "i", step: int = 1) -> Reg:
        """The loop induction variable; its update is emitted by finish()."""
        if self._counter is not None:
            raise ValueError("counter() may only be called once")
        self._counter = self.live_in(name)
        self._counter_step = step
        return self._counter

    def pointer(self, array_name: str, stride: int = 1,
                length: int = 1024, is_float: bool = False) -> Reg:
        """A self-incrementing stream pointer into a fresh array.

        The pointer register starts at the array base (live-in) and is
        advanced by *stride* each iteration by an update emitted at
        finish(), creating the classic distance-1 pointer recurrence.
        """
        base = self.array(array_name, length=length, is_float=is_float)
        self._deferred_updates.append((base, stride))
        return base

    # -- predication ---------------------------------------------------------

    def set_predicate(self, pred: Optional[Reg]) -> None:
        """Guard subsequently emitted ops with *pred* (None to clear)."""
        self._predicate = pred

    # -- op emission ----------------------------------------------------------

    def fresh(self, space: str = "int") -> Reg:
        return Reg(f"t{next(self._tmp)}", space)

    def emit(self, opcode: Opcode, *srcs: ValueLike,
             dest: Optional[Reg] = None, space: Optional[str] = None,
             comment: str = "") -> Optional[Reg]:
        """Append an operation; returns its destination register (if any)."""
        if self._finished:
            raise RuntimeError("loop already finished")
        operands = [_as_operand(s) for s in srcs]
        kind = opcode.kind
        dests: list[Reg] = []
        if opcode not in (Opcode.STORE, Opcode.FSTORE, Opcode.BR,
                          Opcode.JUMP, Opcode.CALL):
            if dest is None:
                if space is None:
                    space = "fp" if kind.value == "float" or opcode is Opcode.FLOAD \
                        else "int"
                dest = self.fresh(space)
            dests = [dest]
        op = Operation(opid=next(self._opid), opcode=opcode, dests=dests,
                       srcs=operands, predicate=self._predicate,
                       comment=comment)
        self._ops.append(op)
        return dests[0] if dests else None

    # Convenience wrappers for the common opcodes. ---------------------------

    def add(self, a: ValueLike, b: ValueLike, dest: Optional[Reg] = None) -> Reg:
        return self.emit(Opcode.ADD, a, b, dest=dest)

    def sub(self, a: ValueLike, b: ValueLike, dest: Optional[Reg] = None) -> Reg:
        return self.emit(Opcode.SUB, a, b, dest=dest)

    def mul(self, a: ValueLike, b: ValueLike, dest: Optional[Reg] = None) -> Reg:
        return self.emit(Opcode.MUL, a, b, dest=dest)

    def div(self, a: ValueLike, b: ValueLike) -> Reg:
        return self.emit(Opcode.DIV, a, b)

    def rem(self, a: ValueLike, b: ValueLike) -> Reg:
        return self.emit(Opcode.REM, a, b)

    def and_(self, a: ValueLike, b: ValueLike, dest: Optional[Reg] = None) -> Reg:
        return self.emit(Opcode.AND, a, b, dest=dest)

    def or_(self, a: ValueLike, b: ValueLike, dest: Optional[Reg] = None) -> Reg:
        return self.emit(Opcode.OR, a, b, dest=dest)

    def xor(self, a: ValueLike, b: ValueLike, dest: Optional[Reg] = None) -> Reg:
        return self.emit(Opcode.XOR, a, b, dest=dest)

    def not_(self, a: ValueLike) -> Reg:
        return self.emit(Opcode.NOT, a)

    def shl(self, a: ValueLike, b: ValueLike, dest: Optional[Reg] = None) -> Reg:
        return self.emit(Opcode.SHL, a, b, dest=dest)

    def shr(self, a: ValueLike, b: ValueLike, dest: Optional[Reg] = None) -> Reg:
        return self.emit(Opcode.SHR, a, b, dest=dest)

    def shru(self, a: ValueLike, b: ValueLike, dest: Optional[Reg] = None) -> Reg:
        return self.emit(Opcode.SHRU, a, b, dest=dest)

    def neg(self, a: ValueLike) -> Reg:
        return self.emit(Opcode.NEG, a)

    def abs_(self, a: ValueLike) -> Reg:
        return self.emit(Opcode.ABS, a)

    def min_(self, a: ValueLike, b: ValueLike, dest: Optional[Reg] = None) -> Reg:
        return self.emit(Opcode.MIN, a, b, dest=dest)

    def max_(self, a: ValueLike, b: ValueLike, dest: Optional[Reg] = None) -> Reg:
        return self.emit(Opcode.MAX, a, b, dest=dest)

    def cmplt(self, a: ValueLike, b: ValueLike) -> Reg:
        return self.emit(Opcode.CMPLT, a, b)

    def cmple(self, a: ValueLike, b: ValueLike) -> Reg:
        return self.emit(Opcode.CMPLE, a, b)

    def cmpgt(self, a: ValueLike, b: ValueLike) -> Reg:
        return self.emit(Opcode.CMPGT, a, b)

    def cmpge(self, a: ValueLike, b: ValueLike) -> Reg:
        return self.emit(Opcode.CMPGE, a, b)

    def cmpeq(self, a: ValueLike, b: ValueLike) -> Reg:
        return self.emit(Opcode.CMPEQ, a, b)

    def cmpne(self, a: ValueLike, b: ValueLike) -> Reg:
        return self.emit(Opcode.CMPNE, a, b)

    def select(self, pred: ValueLike, a: ValueLike, b: ValueLike,
               dest: Optional[Reg] = None) -> Reg:
        return self.emit(Opcode.SELECT, pred, a, b, dest=dest)

    def mov(self, a: ValueLike, dest: Optional[Reg] = None) -> Reg:
        return self.emit(Opcode.MOV, a, dest=dest)

    def load(self, addr: ValueLike, offset: ValueLike = 0) -> Reg:
        return self.emit(Opcode.LOAD, addr, offset)

    def store(self, addr: ValueLike, value: ValueLike,
              offset: ValueLike = 0) -> None:
        self.emit(Opcode.STORE, addr, offset, value)

    def fload(self, addr: ValueLike, offset: ValueLike = 0) -> Reg:
        return self.emit(Opcode.FLOAD, addr, offset)

    def fstore(self, addr: ValueLike, value: ValueLike,
               offset: ValueLike = 0) -> None:
        self.emit(Opcode.FSTORE, addr, offset, value)

    def fadd(self, a: ValueLike, b: ValueLike, dest: Optional[Reg] = None) -> Reg:
        return self.emit(Opcode.FADD, a, b, dest=dest)

    def fsub(self, a: ValueLike, b: ValueLike) -> Reg:
        return self.emit(Opcode.FSUB, a, b)

    def fmul(self, a: ValueLike, b: ValueLike, dest: Optional[Reg] = None) -> Reg:
        return self.emit(Opcode.FMUL, a, b, dest=dest)

    def fdiv(self, a: ValueLike, b: ValueLike) -> Reg:
        return self.emit(Opcode.FDIV, a, b)

    def itof(self, a: ValueLike) -> Reg:
        return self.emit(Opcode.ITOF, a)

    def ftoi(self, a: ValueLike) -> Reg:
        return self.emit(Opcode.FTOI, a)

    def call(self, target: str, *args: ValueLike,
             result_space: Optional[str] = None) -> Optional[Reg]:
        """A function call — precludes modulo scheduling until inlined.

        Args bind positionally to the callee's parameters; when
        ``result_space`` is given a fresh register receives the result.
        """
        dest = self.fresh(result_space) if result_space else None
        operands = [_as_operand(a) for a in args] or [Imm(0)]
        op = Operation(opid=next(self._opid), opcode=Opcode.CALL,
                       dests=[dest] if dest else [], srcs=operands,
                       predicate=self._predicate, comment=f"call {target}")
        self._ops.append(op)
        return dest

    # -- finalisation ----------------------------------------------------------

    def finish(self, bound: Optional[ValueLike] = None) -> Loop:
        """Emit pointer updates and loop control, and build the Loop.

        The control pattern matches Figure 5: induction increment (op 13
        analogue), compare (op 14), loop-back branch (op 15).
        """
        if self._finished:
            raise RuntimeError("loop already finished")
        for reg, stride in self._deferred_updates:
            self.emit(Opcode.ADD, reg, Imm(stride), dest=reg,
                      comment="stream pointer update")
        if self._counter is None:
            self.counter()
        assert self._counter is not None
        saved_pred, self._predicate = self._predicate, None
        self.emit(Opcode.ADD, self._counter, Imm(self._counter_step),
                  dest=self._counter, comment="induction update")
        if bound is None:
            bound = Imm(self.trip_count * self._counter_step)
        cond = self.emit(Opcode.CMPLT, self._counter, bound,
                         comment="loop bound check")
        self.emit(Opcode.BR, cond, comment="loop-back branch")
        self._predicate = saved_pred
        self._finished = True
        return Loop(
            name=self.name,
            body=self._ops,
            live_ins=self._live_ins,
            live_outs=self._live_outs,
            arrays=self._arrays,
            trip_count=self.trip_count,
            invocations=self.invocations,
        )
