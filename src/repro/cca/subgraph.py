"""Subgraph legality for CCA mapping.

A candidate subgraph may be collapsed into a single atomic CCA
instruction only if it (a) fits the array (row/depth/width placement,
input/output port counts), (b) is convex — no dataflow path leaves the
subgraph and re-enters it, which would make atomic execution impossible —
and (c) can be re-placed at a single program point without changing the
loop's cross-iteration register semantics.

The greedy grower asks these questions thousands of times per loop, so
:class:`SubgraphChecker` reads the loop and its DFG once, into per-loop
tables: each op's distance-0 flow successors and predecessors, its in-
and out-edges in the form the checks test them, and its source and
destination registers.  The queries charge the work units of the walks the
paper's algorithm makes (one per edge or register scanned); each counts
them in a local int and reports them with one
:func:`~repro.ir.work.charge_run` before any multi-unit charge and
before it returns, so a budgeted meter stops where the unit-at-a-time
walk would have stopped it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.cca.model import CCAConfig, assign_rows
from repro.ir.dfg import DataflowGraph
from repro.ir.loop import Loop
from repro.ir.ops import Reg
from repro.ir.work import charge_run


@dataclass
class Subgraph:
    """A legal CCA subgraph with its derived interface."""

    opids: list[int]                   # topological order
    inputs: list[Reg]                  # distinct external register inputs
    outputs: list[Reg]                 # registers consumed outside / live-out
    rows: dict[int, int]               # opid -> CCA row

    def __len__(self) -> int:
        return len(self.opids)


class SubgraphChecker:
    """Per-loop tables and the legality queries that read them."""

    def __init__(self, loop: Loop, dfg: DataflowGraph, config: CCAConfig,
                 candidate_opids: set[int],
                 work: Optional[Callable[[int], None]] = None) -> None:
        self.loop = loop
        self.config = config
        self.candidates = candidate_opids
        self.work = work
        body = loop.body
        self._index = {op.opid: i for i, op in enumerate(body)}
        def_count: dict[Reg, int] = {}
        for op in body:
            for d in op.dests:
                def_count[d] = def_count.get(d, 0) + 1
        multi_defs = {d for d, n in def_count.items() if n > 1}
        live_outs = set(loop.live_outs)
        eligible: set[int] = set()
        dests_of: dict[int, list[Reg]] = {}
        srcs_of: dict[int, list[Reg]] = {}
        multi_def: dict[int, bool] = {}
        live_out: dict[int, bool] = {}
        succ0: dict[int, list[int]] = {}
        pred0: dict[int, list[int]] = {}
        outs_of: dict[int, list[tuple[int, bool, int]]] = {}
        ins_of: dict[int, list[tuple[int, bool, int, bool]]] = {}
        for op in body:
            opid, dests = op.opid, op.dests
            if opid in candidate_opids and not op.is_memory and \
                    config.supports(op.opcode):
                eligible.add(opid)
            dests_of[opid] = dests
            srcs_of[opid] = srcs = op.src_regs()
            multi_def[opid] = bool(multi_defs) and \
                not multi_defs.isdisjoint(dests)
            live_out[opid] = not live_outs.isdisjoint(dests)
            outs = dfg.out_edges(opid)
            succ0[opid] = [e.dst for e in outs
                           if e.kind == "flow" and e.distance == 0]
            outs_of[opid] = [(e.dst, e.kind == "flow", e.distance)
                             for e in outs]
            ins = dfg.in_edges(opid)
            pred0[opid] = [e.src for e in ins
                           if e.kind == "flow" and e.distance == 0]
            fed = multi_defs.intersection(srcs) if multi_defs else None
            ins_of[opid] = [
                (e.src, e.kind == "flow", e.distance,
                 bool(fed) and not fed.isdisjoint(loop.op(e.src).dests))
                for e in ins]
        #: Ops a subgraph may hold: candidates the array executes.
        self._eligible = eligible
        self._dests, self._srcs = dests_of, srcs_of
        self._multi_def, self._live_out = multi_def, live_out
        #: Distance-0 flow neighbours, in edge order.
        self.succ0, self.pred0 = succ0, pred0
        #: Every out-edge as ``(dst, is_flow, distance)`` and every in-edge
        #: as ``(src, is_flow, distance, feeds a multi-def register)``.
        self._outs, self._ins = outs_of, ins_of
        # Recurrence SCCs over candidate compute ops (all-distance flow).
        self._sccs = [set(s) for s in dfg.recurrence_components(
            work=work, restrict=candidate_opids)]

    def charge(self, n: int) -> None:
        """One charge worth *n* units."""
        if self.work is not None:
            self.work(n)

    # -- structural helpers -------------------------------------------------

    def topo_order(self, members: set[int]) -> list[int]:
        """Members sorted topologically by distance-0 edges."""
        succ0 = self.succ0
        indegree = {m: 0 for m in members}
        for m in members:
            for s in succ0[m]:
                if s in members:
                    indegree[s] += 1
        ready = sorted(m for m in members if indegree[m] == 0)
        order: list[int] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for s in sorted(succ0[node]):
                if s in members:
                    indegree[s] -= 1
                    if indegree[s] == 0:
                        ready.append(s)
        return order if len(order) == len(members) else []

    def is_convex(self, members: set[int]) -> bool:
        """No distance-0 path exits and re-enters *members*.

        Charged one unit per out-edge scanned, walking from *members*
        over their outside descendants up to the first re-entry.
        """
        succ0 = self.succ0
        ticks = 0
        outside_reached: set[int] = set()
        frontier = []
        for m in members:
            succs = succ0[m]
            ticks += len(succs)
            for s in succs:
                if s not in members and s not in outside_reached:
                    outside_reached.add(s)
                    frontier.append(s)
        while frontier:
            node = frontier.pop()
            for s in succ0[node]:
                ticks += 1
                if s in members:
                    charge_run(self.work, ticks)
                    return False
                if s not in outside_reached:
                    outside_reached.add(s)
                    frontier.append(s)
        charge_run(self.work, ticks)
        return True

    # -- interface extraction ---------------------------------------------------

    def interface(self, members: set[int]) -> tuple[list[Reg], list[Reg]]:
        """Distinct external input and output registers of *members*.

        Charged one unit per source register and per out-edge scanned
        up to the first one that needs the op's result outside.
        """
        dests, pred0 = self._dests, self.pred0
        ticks = 0
        ordered = sorted(members, key=self._index.__getitem__)
        inputs: list[Reg] = []
        for m in ordered:
            srcs = self._srcs[m]
            ticks += len(srcs)
            for reg in srcs:
                if reg in inputs:
                    continue
                if not any(p in members and reg in dests[p]
                           for p in pred0[m]):
                    inputs.append(reg)
        outputs: list[Reg] = []
        for m in ordered:
            needed = False
            for scanned, (dst, flow, distance) in enumerate(self._outs[m], 1):
                if flow and (distance > 0 or dst not in members):
                    needed = True
                    ticks += scanned
                    break
            else:
                ticks += len(self._outs[m])
            if needed or self._live_out[m]:
                for d in dests[m]:
                    if d not in outputs:
                        outputs.append(d)
        charge_run(self.work, ticks)
        return inputs, outputs

    # -- placement-at-first-position safety ------------------------------------

    def placement_safe(self, members: set[int]) -> bool:
        """Collapsing *members* to the first member's position must not
        change any dependence distance (see module docstring).

        Charged one unit per edge scanned, up to the first that fails.
        """
        index = self._index
        pos_first = min(index[m] for m in members)
        ticks = 0
        for m in members:
            # Registers defined inside must be single-def in the body.
            if self._multi_def[m]:
                charge_run(self.work, ticks)
                return False
            for src, flow, distance, multi_def_feed in self._ins[m]:
                ticks += 1
                if not flow or src in members:
                    continue
                # An outside producer must come before the first member
                # and must not feed a register defined more than once.
                if (distance == 0 and index[src] >= pos_first) or \
                        multi_def_feed:
                    charge_run(self.work, ticks)
                    return False
            for dst, flow, distance in self._outs[m]:
                ticks += 1
                if not flow or dst in members:
                    continue
                if distance >= 1 and index[dst] > pos_first:
                    charge_run(self.work, ticks)
                    return False
        charge_run(self.work, ticks)
        return True

    # -- the recurrence rule -----------------------------------------------------

    def recurrence_ok(self, members: set[int]) -> bool:
        """Reject subgraphs that would lengthen a recurrence.

        All CCA-supported ops have unit latency, so absorbing ``k`` ops
        of a recurrence into a 2-cycle CCA changes that recurrence's
        length by ``2 - k``.  Absorbing a single recurrence op therefore
        lengthens the cycle (the ops 7+10 example of Section 4.1);
        absorbing two or more never does.
        """
        ticks = 0
        for scc in self._sccs:
            ticks += 1
            if len(scc & members) == 1:
                charge_run(self.work, ticks)
                return False
        charge_run(self.work, ticks)
        return True

    # -- full check -----------------------------------------------------------------

    def check(self, members: set[int],
              enforce_recurrence_rule: bool = True) -> Optional[Subgraph]:
        """Return the legal :class:`Subgraph` for *members*, or None.

        ``enforce_recurrence_rule=False`` is used during greedy growth:
        intermediate states may absorb a single recurrence op as long as
        the *final* accepted subgraph does not (the mapper re-checks at
        acceptance), matching the paper's walk-through where seed op 5
        sits alone on a recurrence before ops 8 and 6 join it.
        """
        if not members or not members <= self._eligible:
            return None
        order = self.topo_order(members)
        if not order:
            return None  # cycle through distance-0 edges cannot be atomic
        if not self.is_convex(members):
            return None
        inputs, outputs = self.interface(members)
        if len(inputs) > self.config.num_inputs:
            return None
        if len(outputs) > self.config.num_outputs:
            return None
        pred0 = self.pred0
        preds_within = {m: [p for p in pred0[m] if p in members]
                        for m in members}
        rows = assign_rows([self.loop.op(m) for m in order], preds_within,
                           self.config)
        self.charge(len(members))
        if rows is None:
            return None
        if enforce_recurrence_rule and not self.recurrence_ok(members):
            return None
        if not self.placement_safe(members):
            return None
        return Subgraph(opids=order, inputs=inputs, outputs=outputs, rows=rows)
