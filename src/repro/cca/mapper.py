"""Greedy CCA subgraph identification.

Section 4.1, "CCA Mapping": "CCA mapping begins by selecting a seed node
in the dataflow graph ... seed ops are examined in numerical order ...
This seed is then recursively grown along its dataflow edges to extend
the subgraph ... Once the subgraph cannot be grown further, those ops
are replaced with a new CCA instruction, and the process begins with a
new seed."

Optimal CCA utilisation is NP-complete [13]; this greedy pass "keeps
runtime overheads low" and selects each operation as a seed at most
once, growing it independent of the CCA architecture — which is why its
cost (about 20% of translation time, Figure 8) scales with loop size,
not machine size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.cca.model import CCAConfig, DEFAULT_CCA
from repro.cca.subgraph import Subgraph, SubgraphChecker
from repro.ir.dfg import DataflowGraph, build_dfg
from repro.ir.loop import Loop
from repro.ir.opcodes import Opcode
from repro.ir.ops import Operation
from repro.ir.work import charge_run


@dataclass
class CCAMapping:
    """Outcome of the CCA mapping pass.

    Attributes:
        loop: The rewritten loop with ``CCA_OP`` compound instructions.
        subgraphs: One entry per collapsed subgraph, keyed by the new
            compound op's id.
        collapsed_ops: Total RISC ops absorbed into compounds.
    """

    loop: Loop
    subgraphs: dict[int, Subgraph] = field(default_factory=dict)
    collapsed_ops: int = 0

    @property
    def num_subgraphs(self) -> int:
        return len(self.subgraphs)


def _grow(seed: int, checker: SubgraphChecker,
          mapped: set[int],
          respect_recurrences: bool = True) -> Optional[Subgraph]:
    """Grow *seed* along dataflow edges until no legal extension exists.

    The recurrence-lengthening rule is only applied to the final
    subgraph: a seed sitting alone on a recurrence (like op 5 of the
    Figure 5 example) may grow until its recurrence-mates join, but a
    finished subgraph that absorbs exactly one op of some recurrence
    (like the hypothetical 7+10 combination) is rejected outright.
    """
    members = {seed}
    if checker.check(members, enforce_recurrence_rule=False) is None:
        return None
    succ0, pred0 = checker.succ0, checker.pred0
    changed = True
    while changed:
        changed = False
        # The frontier scan charges one unit per neighbour it reads.
        ticks = 0
        frontier: set[int] = set()
        for m in members:
            ticks += len(succ0[m]) + len(pred0[m])
            frontier.update(succ0[m])
            frontier.update(pred0[m])
        charge_run(checker.work, ticks)
        frontier -= members
        frontier -= mapped
        frontier &= checker.candidates
        for n in sorted(frontier):
            if checker.check(members | {n},
                             enforce_recurrence_rule=False) is not None:
                members.add(n)
                changed = True
    if len(members) < 2:
        return None
    return checker.check(members,
                         enforce_recurrence_rule=respect_recurrences)


def _rewrite(loop: Loop, subgraphs: list[Subgraph]) -> tuple[Loop, dict[int, Subgraph]]:
    """Replace each subgraph with a compound op at its first position."""
    member_of: dict[int, int] = {}
    for gi, sg in enumerate(subgraphs):
        for opid in sg.opids:
            member_of[opid] = gi
    next_id = max(op.opid for op in loop.body) + 1
    placed: set[int] = set()
    new_body: list[Operation] = []
    id_map: dict[int, Subgraph] = {}
    for op in loop.body:
        gi = member_of.get(op.opid)
        if gi is None:
            new_body.append(op.copy())
            continue
        if gi in placed:
            continue
        placed.add(gi)
        sg = subgraphs[gi]
        inner = [loop.op(i).copy() for i in sg.opids]
        compound = Operation(
            opid=next_id, opcode=Opcode.CCA_OP,
            dests=list(sg.outputs), srcs=list(sg.inputs), inner=inner,
            comment="cca[" + ",".join(str(i) for i in sg.opids) + "]")
        id_map[next_id] = sg
        next_id += 1
        new_body.append(compound)
    new_loop = loop.rebuild(body=new_body)
    return new_loop, id_map


def apply_subgraphs(loop: Loop, subgraph_lists: list[list[int]],
                    dfg: Optional[DataflowGraph] = None,
                    config: CCAConfig = DEFAULT_CCA,
                    candidate_opids: Optional[set[int]] = None,
                    work: Optional[Callable[[int], None]] = None
                    ) -> CCAMapping:
    """Collapse statically identified subgraphs (Figure 9(b) recognition).

    Each statically encoded subgraph is *checked* against the CCA
    actually present — a cheap legality test, no search — and collapsed
    if it fits.  "If a statically identified subgraph cannot be executed
    as a single unit on available CCAs, the ops can still be executed
    independently on the remaining execution resources."
    """
    if dfg is None:
        dfg = build_dfg(loop, work=work)
    if candidate_opids is None:
        candidate_opids = {op.opid for op in loop.body
                           if not op.is_memory and not op.is_control}
    checker = SubgraphChecker(loop, dfg, config, candidate_opids, work=work)
    known = {op.opid for op in loop.body}
    accepted: list[Subgraph] = []
    used: set[int] = set()
    for opids in subgraph_lists:
        members = set(opids)
        checker.charge(len(members))
        if not members <= known or members & used:
            continue
        sg = checker.check(members)
        if sg is not None:
            accepted.append(sg)
            used |= members
    if not accepted:
        return CCAMapping(loop=loop, subgraphs={}, collapsed_ops=0)
    new_loop, id_map = _rewrite(loop, accepted)
    return CCAMapping(loop=new_loop, subgraphs=id_map,
                      collapsed_ops=sum(len(s) for s in accepted))


def map_cca(loop: Loop, dfg: Optional[DataflowGraph] = None,
            config: CCAConfig = DEFAULT_CCA,
            candidate_opids: Optional[set[int]] = None,
            work: Optional[Callable[[int], None]] = None,
            respect_recurrences: bool = True) -> CCAMapping:
    """Run greedy CCA identification over *loop*.

    Args:
        loop: The loop to map (in baseline-ISA form).
        dfg: Its dataflow graph (rebuilt if omitted).
        config: The target CCA shape.
        candidate_opids: Ops eligible for mapping — normally the compute
            partition, so address and control slices stay on their
            dedicated hardware.
        work: Translation cost-model callback.
        respect_recurrences: When False, disable the
            recurrence-lengthening rejection (Section 4.1's ops-7+10
            rule) — the ablation knob showing why the rule exists.
    """
    if dfg is None:
        dfg = build_dfg(loop, work=work)
    if candidate_opids is None:
        candidate_opids = {
            op.opid for op in loop.body
            if not op.is_memory and not op.is_control
        }
    checker = SubgraphChecker(loop, dfg, config, candidate_opids, work=work)
    mapped: set[int] = set()
    subgraphs: list[Subgraph] = []
    ticks = 0  # one unit per seed examined, reported before each growth
    for op in loop.body:  # numerical seed order
        ticks += 1
        if op.opid in mapped or op.opid not in candidate_opids:
            continue
        if not config.supports(op.opcode):
            continue
        charge_run(work, ticks)
        ticks = 0
        grown = _grow(op.opid, checker, mapped, respect_recurrences)
        if grown is not None:
            subgraphs.append(grown)
            mapped.update(grown.opids)
    charge_run(work, ticks)
    if not subgraphs:
        return CCAMapping(loop=loop, subgraphs={}, collapsed_ops=0)
    new_loop, id_map = _rewrite(loop, subgraphs)
    return CCAMapping(loop=new_loop, subgraphs=id_map,
                      collapsed_ops=sum(len(s) for s in subgraphs))
