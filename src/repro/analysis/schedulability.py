"""Modulo-schedulability classification.

Figure 2 of the paper splits execution time into four categories:

* **modulo schedulable** loops — acceleratable,
* loops needing **speculation support** — while-loops and loops with
  side exits, which the accelerator deliberately does not support
  (Section 2.2),
* **subroutine** loops — loops containing a non-inlinable call,
* **acyclic** code.

This module classifies a single loop structurally; whole-application
coverage combines these with the workload's execution-time profile.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.analysis.partition import OFFLOADABLE_OPCODES
from repro.analysis.streams import StreamAnalysis, analyze_streams
from repro.ir.dfg import DataflowGraph, build_dfg
from repro.ir.loop import Loop
from repro.ir.opcodes import Opcode
from repro.ir.ops import Reg


class LoopCategory(enum.Enum):
    """Figure 2 execution-time category of a loop."""

    MODULO = "modulo schedulable"
    SPECULATION = "needs speculation support"
    SUBROUTINE = "non-inlinable subroutine call"
    MALFORMED = "not a schedulable loop shape"


@dataclass
class SchedulabilityReport:
    """Outcome of the structural schedulability check.

    ``ok`` is True only for cleanly modulo-schedulable loops.  The
    report is architecture independent; resource-limit checks (too many
    streams, too many ops for the maximum II, not enough registers)
    happen later in the translator against a concrete accelerator
    configuration.
    """

    category: LoopCategory
    reasons: list[str] = field(default_factory=list)
    streams: Optional[StreamAnalysis] = None
    #: True when the loop is schedulable ONLY on hardware with
    #: speculative memory access support (a while-loop whose exit
    #: condition the FUs evaluate each iteration).
    requires_speculation: bool = False

    @property
    def ok(self) -> bool:
        if self.reasons:
            return False
        if self.category is LoopCategory.MODULO:
            return True
        return (self.category is LoopCategory.SPECULATION
                and self.requires_speculation)


def _branch_condition_slice(loop: Loop, dfg: DataflowGraph) -> set[int]:
    """Opids in the backward dependence slice of the loop-back branch."""
    branch = loop.branch
    if branch is None:
        return set()
    slice_ids: set[int] = set()
    frontier = [branch.opid]
    while frontier:
        node = frontier.pop()
        for edge in dfg.in_edges(node):
            if edge.kind != "flow" or edge.distance > 0:
                continue
            if edge.src not in slice_ids:
                slice_ids.add(edge.src)
                frontier.append(edge.src)
    return slice_ids


def check_schedulability(loop: Loop,
                         dfg: Optional[DataflowGraph] = None,
                         work: Optional[Callable[[int], None]] = None,
                         allow_speculation: bool = False
                         ) -> SchedulabilityReport:
    """Classify *loop* per Figure 2 and list any disqualifying features.

    Checks, in order of severity:

    1. Shape: a single loop-back ``BR`` as the final operation; any
       other branch is a side exit (speculation support needed).
    2. Calls: ``CALL`` makes it a subroutine loop; ``BRL`` is permitted
       because it is the procedural-abstraction encoding of a CCA
       subgraph (Figure 9(b)) and can always be unfolded.
    3. While-loop detection: if the branch condition's same-iteration
       dependence slice contains a load or a non-affine computation, the
       trip count is data dependent — a while-loop needing speculative
       memory access support.
    4. Address patterns: every memory access must be a detected stream.
    """
    reasons: list[str] = []
    requires_speculation = False
    if not loop.body:
        return SchedulabilityReport(LoopCategory.MALFORMED, ["empty body"])
    if loop.annotations.get("while_loop"):
        if not allow_speculation:
            return SchedulabilityReport(
                LoopCategory.SPECULATION,
                ["annotated as while-loop (data-dependent trip count)"])
        requires_speculation = True

    branches = [op for op in loop.body if op.opcode in (Opcode.BR, Opcode.JUMP)]
    if not branches or loop.body[-1].opcode is not Opcode.BR:
        return SchedulabilityReport(
            LoopCategory.MALFORMED, ["missing terminal loop-back branch"])
    if len(branches) > 1:
        return SchedulabilityReport(
            LoopCategory.SPECULATION,
            ["side exit: multiple branches in loop body"])

    for op in loop.body:
        if op.opcode is Opcode.CALL:
            return SchedulabilityReport(
                LoopCategory.SUBROUTINE,
                [f"op{op.opid}: non-inlinable call"])

    if dfg is None:
        dfg = build_dfg(loop, work=work)

    cond_slice = _branch_condition_slice(loop, dfg)
    data_dependent_exit = any(loop.op(opid).is_memory
                              for opid in cond_slice)
    if data_dependent_exit:
        if not allow_speculation:
            return SchedulabilityReport(
                LoopCategory.SPECULATION,
                ["branch condition depends on a load (while-loop)"])
        requires_speculation = True
    elif not requires_speculation:
        for opid in cond_slice:
            op = loop.op(opid)
            if op.opcode not in OFFLOADABLE_OPCODES:
                reasons.append(f"op{opid}: control pattern too complex "
                               f"({op.opcode.value})")

    streams = analyze_streams(loop, work=work)
    for opid in streams.failures:
        reasons.append(f"op{opid}: unsupported (non-affine) address pattern")

    category = (LoopCategory.SPECULATION if requires_speculation
                else LoopCategory.MODULO)
    return SchedulabilityReport(category=category, reasons=reasons,
                                streams=streams,
                                requires_speculation=requires_speculation)
