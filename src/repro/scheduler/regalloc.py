"""Register requirement analysis and assignment.

"After a loop schedule is generated, a postpass maps operands from the
loop representation in baseline assembly code to the register
files/memory buffers in the LA.  If there are not enough registers to
support the translated loop, translation aborts, and the loop is
executed on the baseline processor." (Section 4.1.)

Figure 3(b)'s accounting rules are implemented exactly: registers hold
live-ins, live-outs, constants and temporaries, but NOT values read
from / written into memory FIFOs, nor values read directly off the
interconnect (consumed the cycle they are produced).  Values that stay
live across multiple concurrent iterations need one register per live
copy (modulo variable expansion: ``ceil(lifetime / II)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.analysis.partition import LoopPartition
from repro.ir.dfg import DataflowGraph
from repro.ir.loop import Loop
from repro.ir.ops import Imm, Reg
from repro.ir.work import charge_run
from repro.scheduler.schedule import ModuloSchedule


@dataclass
class RegisterAssignment:
    """Operand mapping into the accelerator's register files.

    Attributes:
        int_regs / fp_regs: physical registers needed per file.
        mapping: virtual register -> physical index within its space.
        constants: distinct immediates materialised into registers,
            keyed by (space, value).
        detail: per-category counts for the Figure 3(b) analysis.
    """

    int_regs: int
    fp_regs: int
    mapping: dict[Reg, int] = field(default_factory=dict)
    constants: dict[tuple[str, object], int] = field(default_factory=dict)
    detail: dict[str, int] = field(default_factory=dict)


def register_requirements(loop: Loop, dfg: DataflowGraph,
                          schedule: ModuloSchedule,
                          partition: LoopPartition,
                          work: Optional[Callable[[int], None]] = None
                          ) -> RegisterAssignment:
    """Compute the register-file demand of a scheduled loop.

    Uses a one-to-one mapping from baseline virtual registers to
    accelerator registers (Section 4.2: "The register assignment process
    uses a one-to-one mapping from the baseline ISA to the accelerator
    registers"), with FIFO and interconnect exemptions applied.  Charges
    one unit per op, operand and out-edge inspected, as one run.
    """
    compute = partition.compute
    ii = schedule.ii
    demand: dict[Reg, int] = {}
    reg_space: dict[Reg, str] = {}

    # Live-in scalars consumed by compute ops.  Array bases / induction
    # state consumed only by address generators and loop control live in
    # that hardware's own configuration storage.
    live_in_set = set(loop.live_ins)
    ticks = 0
    for op in loop.body:
        if op.opid not in compute:
            continue
        ticks += 1
        for reg in op.src_regs():
            if reg in live_in_set:
                demand[reg] = max(demand.get(reg, 0), 1)
                reg_space[reg] = reg.space
    live_in_count = len(demand)

    # Distinct constants used by compute ops.  Memory-op immediates are
    # address offsets folded into the address generator configuration,
    # and short integer literals (8-bit signed) fold into the FU control
    # words; only wide literals occupy register-file entries, matching
    # Figure 3(b)'s "constants" accounting.
    constants: dict[tuple[str, object], int] = {}

    def note_constants(srcs) -> int:
        for src in srcs:
            if isinstance(src, Imm):
                if isinstance(src.value, int) and -128 <= src.value <= 127:
                    continue
                space = "fp" if isinstance(src.value, float) else "int"
                constants.setdefault((space, src.value), len(constants))
        return len(srcs)

    for op in loop.body:
        if op.opid not in compute or op.is_memory:
            continue
        ticks += note_constants(op.srcs)
        for inner in op.inner:  # CCA compounds carry their own literals
            ticks += note_constants(inner.srcs)

    # Temporaries: producer in compute, consumer in compute.
    for op in loop.body:
        if op.opid not in compute or op.opid not in schedule.times:
            continue
        if op.is_load:
            continue  # value waits in the input FIFO, not a register
        t_ready = schedule.times[op.opid] + dfg.latency(op.opid)
        for dest in op.dests:
            lifetime = 0
            is_live_out = dest in loop.live_outs
            out_edges = dfg.out_edges(op.opid)
            ticks += len(out_edges)
            for e in out_edges:
                if e.kind != "flow" or e.dst not in schedule.times:
                    continue
                consumer = loop.op(e.dst)
                if dest not in consumer.src_regs():
                    continue
                if consumer.is_store and len(consumer.srcs) > 2 and \
                        consumer.srcs[2] == dest and \
                        consumer.srcs[0] != dest and \
                        consumer.predicate != dest:
                    # Store data goes straight into the output FIFO —
                    # "registers are not needed ... for values written
                    # into memory FIFOs" (Figure 3(b) accounting).
                    continue
                use_time = schedule.times[e.dst] + ii * e.distance
                lifetime = max(lifetime, use_time - t_ready)
            if is_live_out:
                lifetime = max(lifetime, 1)
            if lifetime > 0:
                copies = -(-lifetime // ii)  # ceil
                demand[dest] = max(demand.get(dest, 0), copies)
                reg_space[dest] = dest.space

    charge_run(work, ticks)

    int_total = sum(c for r, c in demand.items()
                    if reg_space.get(r, "int") == "int")
    fp_total = sum(c for r, c in demand.items()
                   if reg_space.get(r, "fp") == "fp")
    int_total += sum(1 for (space, _v) in constants if space == "int")
    fp_total += sum(1 for (space, _v) in constants if space == "fp")

    mapping: dict[Reg, int] = {}
    next_index = {"int": 0, "fp": 0}
    for reg in sorted(demand, key=lambda r: (r.space, r.name)):
        space = reg_space.get(reg, reg.space)
        mapping[reg] = next_index[space]
        next_index[space] += demand[reg]

    detail = {
        "live_ins": live_in_count,
        "live_outs": len(loop.live_outs),
        "constants": len(constants),
        "values": len(demand),
    }
    return RegisterAssignment(int_regs=int_total, fp_regs=fp_total,
                              mapping=mapping, constants=constants,
                              detail=detail)


def fits(assignment: RegisterAssignment, num_int: int, num_fp: int) -> bool:
    """Does the demand fit the accelerator's register files?"""
    return assignment.int_regs <= num_int and assignment.fp_regs <= num_fp
