"""Loop-level IR structures.

A :class:`Loop` is an innermost, single basic-block loop body in the
baseline instruction set, the unit that VEAL's translator maps onto the
loop accelerator.  The body ends with a compare and a loop-back branch
(as in the paper's Figure 5 example), and all internal control flow has
been removed by if-conversion (full predication, Section 2.1).

Registers may be redefined inside the body (e.g. ``i = add i, 1`` for the
induction variable); cross-iteration flow through such registers is what
creates recurrences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.ir.opcodes import Opcode
from repro.ir.ops import Imm, Operation, Reg, defined_regs


@dataclass
class ArrayDecl:
    """A memory region the loop touches.

    Attributes:
        name: Symbolic array name; the live-in register holding its base
            address conventionally is ``Reg(name)``.
        length: Number of addressable elements (element granularity: one
            address per element, matching the stream model).
        is_float: Whether elements are doubles (FLOAD/FSTORE) or ints.
        may_alias: Arrays in the same alias group may overlap; memory
            dependence edges are added between their accesses.  Streams
            in different groups are assumed mutually exclusive, matching
            the accelerator's decoupled-stream assumption (Section 2.1).
    """

    name: str
    length: int = 1024
    is_float: bool = False
    may_alias: Optional[str] = None


@dataclass
class Loop:
    """An innermost loop in baseline-ISA form.

    Attributes:
        name: Identifier used in reports.
        body: Operations in program order, ending with the loop-back
            branch (``BR``).
        live_ins: Registers whose values are produced before the loop
            (array base addresses, scalar inputs, constants kept in
            registers).  These map to the accelerator's memory-mapped
            register file.
        live_outs: Registers whose final values are needed after the
            loop (scalar outputs read from the register file on loop
            completion, Section 3.1).
        arrays: Memory regions referenced by the loop.
        trip_count: Default iteration count used by simulation when the
            invocation does not override it.
        invocations: How many times the application enters this loop per
            run (used by the VM's amortisation accounting).
        annotations: Optional static metadata embedded by the compiler in
            the binary's data section (Figure 9): scheduling priorities
            and CCA subgraph identification.
    """

    name: str
    body: list[Operation]
    live_ins: list[Reg] = field(default_factory=list)
    live_outs: list[Reg] = field(default_factory=list)
    arrays: list[ArrayDecl] = field(default_factory=list)
    trip_count: int = 256
    invocations: int = 1
    annotations: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._by_id = {op.opid: op for op in self.body}
        if len(self._by_id) != len(self.body):
            raise ValueError(f"duplicate opids in loop {self.name!r}")

    def __getstate__(self) -> dict:
        """Drop runtime caches (``_veal_*``: compiled closure tables,
        content digests) when pickling — workers rebuild them lazily."""
        return {k: v for k, v in self.__dict__.items()
                if not k.startswith("_veal_")}

    def __setstate__(self, state: dict) -> None:
        # A crafted pickle must not plant a digest or key memo: every
        # receiver derives those from the loop's own content.
        self.__dict__.update({k: v for k, v in state.items()
                              if not k.startswith("_veal_")})

    # -- lookups ----------------------------------------------------------

    def op(self, opid: int) -> Operation:
        """Return the operation with id *opid*."""
        return self._by_id[opid]

    def index_of(self, opid: int) -> int:
        """Program-order position of *opid* within the body."""
        for i, op in enumerate(self.body):
            if op.opid == opid:
                return i
        raise KeyError(opid)

    @property
    def branch(self) -> Optional[Operation]:
        """The loop-back branch, if present."""
        for op in reversed(self.body):
            if op.opcode is Opcode.BR:
                return op
        return None

    def array(self, name: str) -> ArrayDecl:
        for a in self.arrays:
            if a.name == name:
                return a
        raise KeyError(name)

    # -- derived sets ------------------------------------------------------

    def compute_live_ins(self) -> set[Reg]:
        """Registers read in the body before any definition in the body.

        A register read at position *p* whose first in-body definition is
        at position *q* >= *p* (or absent) must be live into the first
        iteration.
        """
        first_def: dict[Reg, int] = {}
        for i, op in enumerate(self.body):
            for d in op.dests:
                first_def.setdefault(d, i)
        live: set[Reg] = set()
        for i, op in enumerate(self.body):
            for r in op.src_regs():
                if first_def.get(r, len(self.body)) >= i:
                    live.add(r)
        return live

    def rebuild(self, body: Optional[list[Operation]] = None, **changes) -> "Loop":
        """Return a copy of this loop, optionally with a new body."""
        return Loop(
            name=changes.get("name", self.name),
            body=[op.copy() for op in (body if body is not None else self.body)],
            live_ins=list(changes.get("live_ins", self.live_ins)),
            live_outs=list(changes.get("live_outs", self.live_outs)),
            arrays=list(changes.get("arrays", self.arrays)),
            trip_count=changes.get("trip_count", self.trip_count),
            invocations=changes.get("invocations", self.invocations),
            annotations=dict(changes.get("annotations", self.annotations)),
        )

    def dump(self) -> str:
        """Human-readable listing of the loop."""
        lines = [f"loop {self.name} (trip={self.trip_count}, "
                 f"invocations={self.invocations}):"]
        lines.extend(f"  {op}" for op in self.body)
        if self.live_ins:
            lines.append("  live-in:  " + ", ".join(map(str, self.live_ins)))
        if self.live_outs:
            lines.append("  live-out: " + ", ".join(map(str, self.live_outs)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return f"Loop({self.name}, {len(self.body)} ops)"


def validate_loop(loop: Loop) -> list[str]:
    """Check structural invariants of *loop*; return a list of problems.

    An empty list means the loop is well formed.  This does not check
    accelerator suitability (that is :mod:`repro.analysis.schedulability`'s
    job), only IR consistency.
    """
    problems: list[str] = []
    if not loop.body:
        problems.append("empty body")
        return problems
    branch = loop.branch
    if branch is None:
        problems.append("no loop-back branch (BR)")
    elif loop.body[-1].opcode is not Opcode.BR:
        problems.append("loop-back branch is not the final operation")
    seen: set[int] = set()
    for op in loop.body:
        if op.opid in seen:
            problems.append(f"duplicate opid {op.opid}")
        seen.add(op.opid)
        for src in op.srcs:
            if not isinstance(src, (Reg, Imm)):
                problems.append(f"op{op.opid}: bad operand {src!r}")
        if op.is_memory and not op.srcs:
            problems.append(f"op{op.opid}: memory op without address operand")
        if op.opcode is Opcode.CCA_OP and not op.inner:
            problems.append(f"op{op.opid}: CCA compound without inner ops")
    declared_live_in = set(loop.live_ins)
    needed_live_in = loop.compute_live_ins()
    body_defs = defined_regs(loop.body)
    for reg in sorted(needed_live_in - declared_live_in - body_defs,
                      key=lambda r: r.name):
        problems.append(f"register {reg} read before any definition but "
                        f"not declared live-in")
    for reg in loop.live_outs:
        if reg not in body_defs and reg not in declared_live_in:
            problems.append(f"live-out {reg} never defined")
    return problems
