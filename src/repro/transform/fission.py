"""Loop fission.

Section 3.1: "Another potential solution is to break the large loops up
into smaller loops using a technique such as loop fissioning.  This
would reduce the required number of streams for each individual loop but
increase memory traffic, as dividing the loop up typically creates
communication streams between the smaller loops."

Fission splits one loop into two: the SCC condensation of the dataflow
graph is walked in topological order and components are assigned to the
first loop until roughly half the FU pressure is placed; values flowing
across the cut are materialised through per-value scratch arrays (the
"communication streams").  Section 4.2 classifies this as a transform
too complex for the time-constrained dynamic environment — it runs in
the *static* compiler, which is why binaries compiled without it lose
most of the accelerator's benefit (Figure 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.partition import partition_loop
from repro.ir.dfg import build_dfg
from repro.ir.graphalgo import condensation
from repro.ir.loop import ArrayDecl, Loop
from repro.ir.opcodes import Opcode
from repro.ir.ops import Imm, Operation, Reg


class FissionError(ValueError):
    """The loop cannot be legally fissioned."""


def _fu_weight(op: Operation) -> int:
    """Rough FU pressure contribution used to balance the two halves."""
    if op.is_memory or op.is_control:
        return 0
    return 1


def fission_loop(loop: Loop, name_suffixes: tuple[str, str] = ("_p1", "_p2"),
                 balance: float = 0.5) -> tuple[Loop, Loop]:
    """Split *loop* into two dependence-legal halves.

    Raises :class:`FissionError` when any value would have to flow
    backwards across the cut at a loop-carried distance (a recurrence
    spanning the cut), which plain fission cannot express.

    Returns ``(first, second)``; running them back to back over the same
    memory is semantically equivalent to the original loop, which the
    transform tests check against the interpreter.
    """
    dfg = build_dfg(loop)
    part = partition_loop(loop, dfg)
    body_ids = [op.opid for op in loop.body]
    compute_ids = [i for i in body_ids if i in part.compute]
    if len(compute_ids) < 4:
        raise FissionError("loop too small to fission")

    # Condense the compute subgraph over ALL dependence distances so a
    # recurrence can never straddle the cut.
    allowed = set(compute_ids)

    def succs(n: int):
        return [e.dst for e in dfg.out_edges(n) if e.dst in allowed]

    sccs, comp_of, dag = condensation(compute_ids, succs)
    # Topological sort of the component DAG, breaking ties by program
    # order so the cut follows the textual flow of the loop.
    position = {opid: i for i, opid in enumerate(body_ids)}
    first_position = [min(position[m] for m in scc) for scc in sccs]
    indeg = [0] * len(sccs)
    for a in range(len(sccs)):
        for b_ in dag[a]:
            indeg[b_] += 1
    ready = sorted([c for c in range(len(sccs)) if indeg[c] == 0],
                   key=first_position.__getitem__)
    topo: list[int] = []
    while ready:
        c = ready.pop(0)
        topo.append(c)
        for d in sorted(dag[c]):
            indeg[d] -= 1
            if indeg[d] == 0:
                ready.append(d)
        ready.sort(key=first_position.__getitem__)
    if len(topo) != len(sccs):
        raise FissionError("compute condensation is not a DAG")

    total_weight = sum(_fu_weight(loop.op(i)) for i in compute_ids)

    def carried(e) -> list[Reg]:
        """The registers a distance-0 flow edge carries."""
        if e.kind != "flow" or e.distance != 0:
            return []
        reads = loop.op(e.dst).src_regs()
        return [d for d in loop.op(e.src).dests if d in reads]

    def cut_metrics():
        """Crossing-value count and weight fraction of the cut after
        each prefix of components, in one pass over the prefix: moving
        a component to side 1 retires the crossing edges into it and
        adds those out of it."""
        side: set[int] = set()
        crossing_edges: dict[Reg, int] = {}  # value -> edges carrying it
        weight = 0
        for prefix, c in enumerate(topo[:-1], 1):
            members = sccs[c]
            for m in members:
                weight += _fu_weight(loop.op(m))
                for e in dfg.in_edges(m):
                    if e.src in side:
                        for d in carried(e):
                            crossing_edges[d] -= 1
                            if not crossing_edges[d]:
                                del crossing_edges[d]
            side.update(members)
            for m in members:
                for e in dfg.out_edges(m):
                    if e.dst in allowed and e.dst not in side:
                        for d in carried(e):
                            crossing_edges[d] = crossing_edges.get(d, 0) + 1
            frac = weight / total_weight if total_weight else 0.0
            yield prefix, len(crossing_edges), frac

    # Choose the cut with the fewest communication streams among cuts
    # that are reasonably balanced — fission trades memory traffic for
    # per-loop resource pressure, so extra streams are the cost metric.
    best: Optional[tuple[int, float, int]] = None  # (crossing, skew, prefix)
    for prefix, crossing_n, frac in cut_metrics():
        if not 0.25 <= frac <= 0.75:
            continue
        skew = abs(frac - balance)
        key = (crossing_n, skew, prefix)
        if best is None or key < best:
            best = key
    if best is None:
        raise FissionError("could not find a balanced cut")
    side1 = {m for c in topo[:best[2]] for m in sccs[c]}
    side2 = allowed - side1

    # Legality: no dependence from side2 back into side1.
    for e in dfg.edges:
        if e.src in side2 and e.dst in side1:
            raise FissionError(
                f"dependence op{e.src}->op{e.dst} crosses the cut backwards")
    # Values crossing the cut at distance >= 1 would need prologue
    # initialisation of the scratch arrays; reject for simplicity.
    crossing: dict[Reg, int] = {}
    for e in dfg.edges:
        if e.src in side1 and e.dst in side2 and e.kind == "flow":
            if e.distance > 0:
                raise FissionError(
                    f"loop-carried value crosses the cut "
                    f"(op{e.src}->op{e.dst})")
            for d in loop.op(e.src).dests:
                if d in loop.op(e.dst).src_regs():
                    crossing[d] = e.src

    # Support ops (address and control slices) are cheap and offloaded;
    # each side receives the ones its ops depend on.
    support = part.address | part.control

    def backward_closure(seed: set[int]) -> set[int]:
        needed = set(seed)
        frontier = list(seed)
        while frontier:
            n = frontier.pop()
            for e in dfg.in_edges(n):
                if e.kind != "flow" or e.distance > 0:
                    continue
                if e.src in support and e.src not in needed:
                    needed.add(e.src)
                    frontier.append(e.src)
        return needed

    # The control slice (induction, compare, branch) goes to both sides.
    control_ids = part.control

    # Communication arrays are indexed by the raw induction value, which
    # advances by the induction step each iteration — size accordingly.
    iv_for_size = _induction_reg(loop)
    iv_step = 1
    for op in loop.body:
        if op.defines(iv_for_size) and op.opcode is Opcode.ADD and \
                len(op.srcs) == 2 and isinstance(op.srcs[1], Imm):
            iv_step = max(1, abs(int(op.srcs[1].value)))
    comm_length = loop.trip_count * iv_step + 8

    def build_side(member_ids: set[int], suffix: str,
                   comm_stores: dict[Reg, int],
                   comm_loads: list[Reg]) -> Loop:
        wanted = backward_closure(member_ids | control_ids) | member_ids \
            | control_ids
        body: list[Operation] = []
        next_id = max(body_ids) + 1
        # Communication loads go first (they feed everything).
        comm_arrays: list[ArrayDecl] = []
        iv = _induction_reg(loop)
        for reg in comm_loads:
            arr_name = f"fx_{reg.name}"
            comm_arrays.append(ArrayDecl(arr_name, comm_length,
                                         is_float=reg.space == "fp"))
            addr = Reg(f"fxa_{reg.name}")
            body.append(Operation(next_id, Opcode.ADD, [addr],
                                  [Reg(arr_name), iv],
                                  comment="fission comm addr"))
            opcode = Opcode.FLOAD if reg.space == "fp" else Opcode.LOAD
            body.append(Operation(next_id + 1, opcode, [reg],
                                  [addr, Imm(0)],
                                  comment="fission comm load"))
            next_id += 2
        # Compute and address ops in original order; the control tail
        # (induction update, compare, branch) is appended last so the
        # communication streams index with the pre-increment induction
        # value on both sides.
        for op in loop.body:
            if op.opid in wanted and op.opid not in control_ids and \
                    op.opcode is not Opcode.BR:
                body.append(op.copy())
        # Communication stores before the loop control tail.
        for reg, _src in comm_stores.items():
            arr_name = f"fx_{reg.name}"
            comm_arrays.append(ArrayDecl(arr_name, comm_length,
                                         is_float=reg.space == "fp"))
            addr = Reg(f"fxs_{reg.name}")
            body.append(Operation(next_id, Opcode.ADD, [addr],
                                  [Reg(arr_name), iv],
                                  comment="fission comm addr"))
            opcode = Opcode.FSTORE if reg.space == "fp" else Opcode.STORE
            body.append(Operation(next_id + 1, opcode, [],
                                  [addr, Imm(0), reg],
                                  comment="fission comm store"))
            next_id += 2
        # Control tail, preserving original order (IV update, cmp, br).
        tail = [op.copy() for op in loop.body
                if op.opid in control_ids or op.opcode is Opcode.BR]
        seen_tail = {op.opid for op in body}
        for op in tail:
            if op.opid not in seen_tail:
                body.append(op)
                seen_tail.add(op.opid)

        used_arrays = []
        referenced = {r.name for op in body for r in op.src_regs()}
        for arr in loop.arrays:
            if arr.name in referenced:
                used_arrays.append(arr)
        used_arrays.extend(a for a in comm_arrays
                           if a.name not in {x.name for x in used_arrays})
        new = Loop(
            name=loop.name + suffix,
            body=body,
            live_ins=[],
            live_outs=[r for r in loop.live_outs
                       if any(op.defines(r) for op in body)],
            arrays=used_arrays,
            trip_count=loop.trip_count,
            invocations=loop.invocations,
            annotations=dict(loop.annotations),
        )
        new.live_ins = sorted(new.compute_live_ins(),
                              key=lambda r: (r.space, r.name))
        return new

    first = build_side(side1, name_suffixes[0],
                       comm_stores=crossing, comm_loads=[])
    second = build_side(side2, name_suffixes[1],
                        comm_stores={}, comm_loads=sorted(
                            crossing, key=lambda r: (r.space, r.name)))
    return first, second


def _induction_reg(loop: Loop) -> Reg:
    """The register the loop-bound compare tests (the induction var)."""
    branch = loop.branch
    if branch is None:
        raise FissionError("loop has no branch")
    cond = branch.srcs[0]
    for op in loop.body:
        if isinstance(cond, Reg) and op.defines(cond):
            for src in op.srcs:
                if isinstance(src, Reg):
                    return src
    raise FissionError("could not identify the induction variable")
