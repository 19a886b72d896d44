"""Dataflow graph construction over a loop body.

The DFG is the structure every translation phase operates on: recurrence
extraction (RecMII), CCA subgraph identification, Swing priority
computation and list scheduling all walk it.  Edges carry ``(latency,
distance)`` pairs: *latency* is the producer's execution latency and
*distance* the number of loop iterations the value crosses (0 for
intra-iteration flow, >= 1 for loop-carried flow).

Construction follows textual def-use semantics so that in-place updates
such as ``i = add i, 1`` naturally yield distance-1 self edges — the
recurrences that bound II from below (Section 4.1, "Minimum II
Calculation").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.ir.graphalgo import nontrivial_sccs
from repro.ir.loop import Loop
from repro.ir.opcodes import LatencyModel, DEFAULT_LATENCY
from repro.ir.ops import Operation, Reg
from repro.ir.work import charge_run


@dataclass(frozen=True)
class Edge:
    """A dependence edge ``src -> dst``.

    Attributes:
        src: Producer opid.
        dst: Consumer opid.
        latency: Cycles before the consumer may issue after the producer.
        distance: Iteration distance (omega).  The modulo scheduling
            constraint is ``time(dst) >= time(src) + latency - II * distance``.
        kind: "flow" for register RAW, "mem" for memory ordering, "ctrl"
            for the dependence of the branch on its condition.
    """

    src: int
    dst: int
    latency: int
    distance: int
    kind: str = "flow"


def latency_table(loop: Loop, latency_model: LatencyModel) -> dict[int, int]:
    """Each body op's latency under *latency_model*, by opid."""
    return {op.opid: latency_model.latency(op.opcode) for op in loop.body}


class DataflowGraph:
    """Dependence graph over the operations of one loop body.

    Per-op latencies are resolved once into a plain ``opid -> int``
    table (``_lat``) that :meth:`latency` reads.  The table is derived
    state: it is left out of pickles, so a pickled graph's bytes do not
    depend on it, and rebuilt on unpickling.
    """

    def __init__(self, loop: Loop, edges: Iterable[Edge],
                 latency_model: LatencyModel = DEFAULT_LATENCY,
                 latencies: Optional[dict[int, int]] = None) -> None:
        self.loop = loop
        self.latency_model = latency_model
        self.nodes: list[int] = [op.opid for op in loop.body]
        self.edges: list[Edge] = list(edges)
        self._succ: dict[int, list[Edge]] = {n: [] for n in self.nodes}
        self._pred: dict[int, list[Edge]] = {n: [] for n in self.nodes}
        for e in self.edges:
            self._succ[e.src].append(e)
            self._pred[e.dst].append(e)
        self._lat = (latencies if latencies is not None
                     else latency_table(loop, latency_model))

    def with_edges(self, edges: Iterable[Edge]) -> "DataflowGraph":
        """The same loop and latencies over a different edge set."""
        return DataflowGraph(self.loop, edges, self.latency_model, self._lat)

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_lat"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lat = latency_table(self.loop, self.latency_model)

    # -- basic accessors ---------------------------------------------------

    def op(self, opid: int) -> Operation:
        return self.loop.op(opid)

    def out_edges(self, opid: int) -> list[Edge]:
        return self._succ[opid]

    def in_edges(self, opid: int) -> list[Edge]:
        return self._pred[opid]

    def successors(self, opid: int) -> list[int]:
        return [e.dst for e in self._succ[opid]]

    def predecessors(self, opid: int) -> list[int]:
        return [e.src for e in self._pred[opid]]

    def latency(self, opid: int) -> int:
        return self._lat[opid]

    # -- recurrences --------------------------------------------------------

    def recurrence_components(
        self, work: Optional[Callable[[int], None]] = None,
        restrict: Optional[set[int]] = None,
    ) -> list[list[int]]:
        """SCCs of the DFG that contain a cycle — the loop's recurrences.

        Args:
            work: Cost-model callback (see :mod:`repro.vm.costmodel`).
            restrict: If given, only consider these nodes/edges (used to
                find recurrences among compute ops after control and
                address slices are peeled off).
        """
        nodes = self.nodes if restrict is None else [n for n in self.nodes
                                                     if n in restrict]
        allowed = set(nodes)

        def succs(n: int) -> list[int]:
            return [e.dst for e in self._succ[n] if e.dst in allowed]

        return nontrivial_sccs(nodes, succs, work)

    def subgraph_edges(self, nodes: set[int]) -> list[Edge]:
        """All edges with both endpoints in *nodes*."""
        return [e for e in self.edges if e.src in nodes and e.dst in nodes]

    def __len__(self) -> int:
        return len(self.nodes)


def _reg_key(reg: Reg) -> tuple[str, str]:
    return (reg.space, reg.name)


def build_dfg(loop: Loop,
              latency_model: LatencyModel = DEFAULT_LATENCY,
              work: Optional[Callable[[int], None]] = None) -> DataflowGraph:
    """Build the dataflow graph of *loop*.

    Register flow: a use at position *p* reads the nearest preceding
    definition in the same iteration (distance 0); if none exists, it
    reads the last definition in the body from the previous iteration
    (distance 1).  Registers never defined in the body are live-ins and
    produce no edge.

    Memory ordering: accesses to the same array (or the same declared
    alias group) where at least one access is a store are ordered, with
    distance 0 in program order and distance 1 across the back edge.
    This models the hardware memory-ordering support the paper assumes
    (Section 4.1, "Separating Control and Memory Streams"); loops whose
    arrays are all distinct get fully decoupled streams.

    Control: the loop-back branch depends on its condition register like
    any other flow edge; no speculation edges exist because while-loops
    and side exits are precluded (Section 2.2).
    """
    lat = latency_table(loop, latency_model)
    edges: list[Edge] = []
    last_def: dict[tuple[str, str], int] = {}
    final_def: dict[tuple[str, str], int] = {}
    # One unit per definition, op and register use, and memory-op pair
    # visited, reported as one run (see repro.ir.work.charge_run).
    ticks = 0
    for op in loop.body:
        ticks += len(op.dests)
        for d in op.dests:
            final_def[_reg_key(d)] = op.opid

    for op in loop.body:
        srcs = op.src_regs()
        ticks += 1 + len(srcs)
        for reg in srcs:
            key = _reg_key(reg)
            if key in last_def:
                src = last_def[key]
                edges.append(Edge(src, op.opid, lat[src], 0))
            elif key in final_def:
                src = final_def[key]
                edges.append(Edge(src, op.opid, lat[src], 1))
        for d in op.dests:
            last_def[_reg_key(d)] = op.opid

    # Memory ordering edges between potentially-overlapping accesses.
    group_of: dict[str, str] = {}
    for arr in loop.arrays:
        group_of[arr.name] = arr.may_alias or arr.name

    def mem_region(op: Operation) -> Optional[str]:
        if not op.is_memory or not op.srcs:
            return None
        base = op.srcs[0]
        if isinstance(base, Reg):
            root = base.name.split(".")[0]
            return group_of.get(root, root)
        return None

    mem_ops = [op for op in loop.body if op.is_memory]
    for i, a in enumerate(mem_ops):
        ra = mem_region(a)
        ticks += len(mem_ops) - i - 1
        for b in mem_ops[i + 1:]:
            if not (a.is_store or b.is_store):
                continue
            rb = mem_region(b)
            if ra is None or rb is None or ra != rb:
                continue
            # Same-region, at least one store: order a before b within an
            # iteration, and b before a across iterations.
            edges.append(Edge(a.opid, b.opid, 1, 0, kind="mem"))
            edges.append(Edge(b.opid, a.opid, 1, 1, kind="mem"))

    charge_run(work, ticks)
    return DataflowGraph(loop, edges, latency_model, lat)
