"""Separating control and memory streams from loop computation.

Translation step 2 (Section 4.1): "data dependence information is used to
identify the control and address calculations.  These calculations are
then mapped onto the special hardware supporting address generation and
accelerator control."

An operation is *offloadable* to that special hardware when (a) it is an
affine-capable opcode the address generators / loop control unit can
implement, and (b) every use of its results is an address operand, the
loop-back branch's condition, or another offloadable op.  Operations
whose values also feed real computation stay on the function units (the
FU-side copy), while the control hardware independently regenerates the
induction sequence — this mirrors how decoupled address generators
re-derive the access pattern rather than receiving it from the datapath.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.ir.dfg import DataflowGraph
from repro.ir.loop import Loop
from repro.ir.opcodes import COMPARE_OPCODES, Opcode
from repro.ir.ops import Reg
from repro.ir.work import charge_run

#: Opcodes the address generators / loop control hardware can evaluate.
OFFLOADABLE_OPCODES = frozenset({
    Opcode.ADD, Opcode.SUB, Opcode.NEG, Opcode.MUL, Opcode.SHL,
    Opcode.MOV, Opcode.LDI,
}) | COMPARE_OPCODES


@dataclass
class LoopPartition:
    """Classification of every op into control / address / compute.

    Attributes:
        control: Ops implemented by the loop control hardware (the
            loop-back branch and the pure induction/compare slice).
        address: Ops implemented by the address generators.
        compute: Ops that occupy FU slots in the modulo schedule —
            including the memory ops themselves, which occupy address
            generator issue slots (the "Mem" columns of Figure 5's
            reservation table).
    """

    control: set[int]
    address: set[int]
    compute: set[int]


def _address_positions(loop: Loop) -> dict[int, set[int]]:
    """For each memory op, the indices of its address operands."""
    positions: dict[int, set[int]] = {}
    for op in loop.body:
        if op.is_memory:
            positions[op.opid] = {0, 1} if len(op.srcs) > 1 else {0}
    return positions


def partition_loop(loop: Loop, dfg: DataflowGraph,
                   work: Optional[Callable[[int], None]] = None
                   ) -> LoopPartition:
    """Partition *loop*'s ops into control, address and compute sets.

    Fixed-point over the "offloadable" predicate: start by assuming every
    affine-capable op is offloadable, then demote any op with a use in a
    data position of a non-offloadable consumer, until stable.  Linear in
    practice (at most |ops| demotion rounds, each linear in edges),
    matching the paper's claim that this step is cheap enough to run
    dynamically.
    """
    # One unit per op classified and per edge visited, reported as one
    # run (see repro.ir.work.charge_run).
    ticks = len(loop.body)
    addr_pos = _address_positions(loop)
    branch = loop.branch
    branch_id = branch.opid if branch is not None else None

    live_outs = set(loop.live_outs)
    offloadable: set[int] = set()
    for op in loop.body:
        has_use = any(e.kind == "flow" for e in dfg.out_edges(op.opid))
        if op.opcode in OFFLOADABLE_OPCODES and op.predicate is None and \
                has_use and not any(d in live_outs for d in op.dests):
            offloadable.add(op.opid)

    def use_is_acceptable(consumer_id: int, reg: Reg) -> bool:
        """Is this use of *reg* by *consumer* compatible with offload?"""
        if consumer_id == branch_id:
            return True
        if consumer_id in offloadable:
            return True
        consumer = loop.op(consumer_id)
        if consumer.is_memory:
            positions = addr_pos[consumer_id]
            used_positions = {i for i, s in enumerate(consumer.srcs) if s == reg}
            if consumer.predicate == reg:
                return False  # predicate is a data use
            return used_positions <= positions and bool(used_positions)
        return False

    changed = True
    while changed:
        changed = False
        for op in loop.body:
            if op.opid not in offloadable:
                continue
            ok = True
            # Inputs: the special hardware can only evaluate values it
            # produces itself (induction state, bases, constants).  An
            # op fed by FU-computed data — e.g. a while-loop's exit
            # compare reading a loaded value — must stay on the FUs.
            for edge in dfg.in_edges(op.opid):
                ticks += 1
                if edge.kind == "flow" and edge.src not in offloadable:
                    ok = False
                    break
            for edge in dfg.out_edges(op.opid):
                ticks += 1
                if edge.kind != "flow":
                    continue
                # Which register flows along this edge? Any dest of op
                # read by the consumer.
                consumer = loop.op(edge.dst)
                for dest in op.dests:
                    if dest in consumer.src_regs() or consumer.predicate == dest:
                        if not use_is_acceptable(edge.dst, dest):
                            ok = False
                            break
                if not ok:
                    break
            if not ok:
                offloadable.discard(op.opid)
                changed = True

    # An offloadable op must actually serve the special hardware: its
    # forward slice (through offloadable ops) must reach a memory
    # address operand or the loop-back branch.  Self-contained cycles
    # that feed neither (e.g. a dead scaling recurrence) stay on the FUs.
    serves: set[int] = set()
    frontier = []
    for op in loop.body:
        if op.opid in offloadable:
            for edge in dfg.out_edges(op.opid):
                if edge.kind != "flow":
                    continue
                if edge.dst == branch_id:
                    serves.add(op.opid)
                    frontier.append(op.opid)
                    break
                consumer = loop.op(edge.dst)
                if consumer.is_memory:
                    serves.add(op.opid)
                    frontier.append(op.opid)
                    break
    while frontier:
        node = frontier.pop()
        in_edges = dfg.in_edges(node)
        ticks += len(in_edges)
        for edge in in_edges:
            if edge.kind == "flow" and edge.src in offloadable and \
                    edge.src not in serves:
                serves.add(edge.src)
                frontier.append(edge.src)
    offloadable &= serves

    control: set[int] = set()
    if branch_id is not None:
        control.add(branch_id)
        # The control slice is the offloadable backward slice from BR.
        frontier = [branch_id]
        while frontier:
            node = frontier.pop()
            in_edges = dfg.in_edges(node)
            ticks += len(in_edges)
            for edge in in_edges:
                if edge.kind != "flow":
                    continue
                if edge.src in offloadable and edge.src not in control:
                    control.add(edge.src)
                    frontier.append(edge.src)

    charge_run(work, ticks)
    address = offloadable - control
    compute = {op.opid for op in loop.body} - control - address
    return LoopPartition(control=control, address=address, compute=compute)
