"""Control flow graphs, programs, and loop identification.

The VM's first translation step is "simply to identify loops within the
program ... finding strongly connected components of a control flow
graph, [which] is a simple linear time problem" (Section 4.1).  This
module provides the CFG representation that step runs on, a dominator
analysis, and extraction of innermost single-block loops into the
:class:`~repro.ir.loop.Loop` form consumed by the rest of the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.ir.graphalgo import strongly_connected_components
from repro.ir.loop import Loop
from repro.ir.opcodes import Opcode
from repro.ir.ops import Operation


@dataclass
class BasicBlock:
    """A straight-line sequence of operations with terminal control flow.

    Attributes:
        label: Unique block name within its function.
        ops: Operations, the last of which may branch.
        successors: Labels of possible successor blocks.  A block whose
            final op is a conditional BR lists the taken target first.
        loop_body: If this block is a pre-packaged innermost loop kernel,
            the corresponding :class:`Loop` (built by the workload
            frontend).  Loop *identification* still happens via SCC; the
            attached Loop is what identification recovers, mirroring how
            the real VM re-derives the loop from the binary.
        weight: Fraction of dynamic execution attributed to this block,
            used by hot-region profiling.
    """

    label: str
    ops: list[Operation] = field(default_factory=list)
    successors: list[str] = field(default_factory=list)
    loop_body: Optional[Loop] = None
    weight: float = 0.0

    @property
    def has_call(self) -> bool:
        return any(op.is_call for op in self.ops)


class ControlFlowGraph:
    """A function body as a graph of basic blocks."""

    def __init__(self, entry: str, blocks: Iterable[BasicBlock]) -> None:
        self.entry = entry
        self.blocks: dict[str, BasicBlock] = {}
        for block in blocks:
            if block.label in self.blocks:
                raise ValueError(f"duplicate block label {block.label!r}")
            self.blocks[block.label] = block
        if entry not in self.blocks:
            raise ValueError(f"entry block {entry!r} not present")
        for block in self.blocks.values():
            for succ in block.successors:
                if succ not in self.blocks:
                    raise ValueError(
                        f"block {block.label!r} targets unknown block {succ!r}")

    def successors(self, label: str) -> list[str]:
        return self.blocks[label].successors

    def predecessors(self, label: str) -> list[str]:
        return [b.label for b in self.blocks.values()
                if label in b.successors]

    # -- analyses -----------------------------------------------------------

    def dominators(self) -> dict[str, set[str]]:
        """Dominator sets via the classic iterative dataflow algorithm."""
        labels = list(self.blocks)
        full = set(labels)
        dom: dict[str, set[str]] = {l: set(full) for l in labels}
        dom[self.entry] = {self.entry}
        changed = True
        while changed:
            changed = False
            for label in labels:
                if label == self.entry:
                    continue
                preds = self.predecessors(label)
                if preds:
                    new = set.intersection(*(dom[p] for p in preds))
                else:
                    new = set()
                new.add(label)
                if new != dom[label]:
                    dom[label] = new
                    changed = True
        return dom

    def back_edges(self) -> list[tuple[str, str]]:
        """Edges ``(tail, head)`` where head dominates tail."""
        dom = self.dominators()
        result = []
        for block in self.blocks.values():
            for succ in block.successors:
                if succ in dom[block.label]:
                    result.append((block.label, succ))
        return result

    def loop_sccs(self, work: Optional[Callable[[int], None]] = None
                  ) -> list[list[str]]:
        """SCCs containing a cycle — the loop regions of this function."""
        sccs = strongly_connected_components(
            list(self.blocks), self.successors, work)
        loops = []
        for scc in sccs:
            if len(scc) > 1:
                loops.append(scc)
            elif scc[0] in self.blocks[scc[0]].successors:
                loops.append(scc)
        return loops


@dataclass
class Function:
    """A named function: a CFG plus inlining metadata.

    ``inlinable`` models whether the compiler can see the body (calls
    into the math library were not visible to Trimaran and made their
    containing loops "Subroutine" loops in Figure 2).
    """

    name: str
    cfg: ControlFlowGraph
    inlinable: bool = True


@dataclass
class Program:
    """A whole application: functions plus an entry point."""

    name: str
    functions: dict[str, Function]
    entry: str = "main"

    def entry_function(self) -> Function:
        return self.functions[self.entry]


@dataclass
class IdentifiedLoop:
    """Result of dynamic loop identification on a CFG.

    Attributes:
        blocks: The SCC's block labels.
        loop: Extracted Loop when the region is a single fully-predicated
            block ending in BR (the only shape the accelerator supports).
        reject_reason: Why the region cannot even be considered
            (multi-block control flow that was not if-converted, or a
            function call inside the body).
    """

    blocks: list[str]
    loop: Optional[Loop] = None
    reject_reason: Optional[str] = None


def identify_loops(cfg: ControlFlowGraph,
                   work: Optional[Callable[[int], None]] = None
                   ) -> list[IdentifiedLoop]:
    """Dynamic loop identification (paper Section 4.1, step 1).

    Finds cyclic SCCs and extracts single-block innermost loops.  Regions
    with internal control flow or calls are reported with a reject
    reason — these are the loops that needed static if-conversion or
    inlining (Figure 7 measures the cost of not having done so).
    """
    found: list[IdentifiedLoop] = []
    for scc in cfg.loop_sccs(work):
        if len(scc) > 1:
            found.append(IdentifiedLoop(
                blocks=sorted(scc),
                reject_reason="multi-block loop body (needs if-conversion)"))
            continue
        block = cfg.blocks[scc[0]]
        if block.has_call:
            found.append(IdentifiedLoop(
                blocks=[block.label],
                reject_reason="function call in loop body"))
            continue
        if block.loop_body is not None:
            found.append(IdentifiedLoop(blocks=[block.label],
                                        loop=block.loop_body))
            continue
        if block.ops and block.ops[-1].opcode is Opcode.BR:
            loop = Loop(name=block.label, body=[op.copy() for op in block.ops])
            loop.live_ins = sorted(loop.compute_live_ins(),
                                   key=lambda r: (r.space, r.name))
            found.append(IdentifiedLoop(blocks=[block.label], loop=loop))
        else:
            found.append(IdentifiedLoop(
                blocks=[block.label],
                reject_reason="self-loop without loop-back branch"))
    return found


def linear_program(name: str, kernels: list[Loop],
                   acyclic_weight: float = 0.0) -> Program:
    """Package loop kernels into a Program with straight-line glue.

    Builds ``entry -> k0 -> glue0 -> k1 -> ... -> exit`` where each
    kernel block self-loops.  This is the shape workload benchmarks use
    so the VM exercises real CFG-level loop identification.  Kernel
    blocks share the kernels' op objects: loops are immutable once
    built, and identification hands back ``block.loop_body`` itself.
    """
    blocks: list[BasicBlock] = [BasicBlock("entry")]
    prev = "entry"
    n = len(kernels)
    for i, kernel in enumerate(kernels):
        label = f"kernel_{kernel.name}"
        next_label = f"glue{i}" if i + 1 < n else "exit"
        block = BasicBlock(label, ops=list(kernel.body),
                           successors=[label, next_label],
                           loop_body=kernel)
        blocks[-1].successors = [label]
        blocks.append(block)
        if i + 1 < n:
            blocks.append(BasicBlock(f"glue{i}", weight=acyclic_weight / max(n, 1)))
    blocks.append(BasicBlock("exit"))
    if n == 0:
        blocks[0].successors = ["exit"]
    cfg = ControlFlowGraph("entry", blocks)
    return Program(name, {"main": Function("main", cfg)}, entry="main")
