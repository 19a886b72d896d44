"""Scheduling priority computation.

Two priority functions from the paper's evaluation (Section 4.2/4.3):

* **Swing priority** — the ordering phase of Swing Modulo Scheduling
  [Llosa et al.]: schedule the most critical recurrence first, then less
  critical recurrences (together with the nodes on paths connecting
  them), then the acyclic remainder; within each set, alternate
  top-down/bottom-up so every node is placed adjacent to already-placed
  neighbours.  This is the step that consumed 69% of translation time
  (Figure 8) and is the prime candidate for static encoding (Figure 9c).

* **Height-based priority** — Rau's iterative-modulo-scheduling priority
  [24]: order by decreasing height (longest II-weighted path to the end
  of the iteration).  Much cheaper to compute, but "using the
  height-based priority function in conjunction with the single-pass
  list scheduling often yielded sub-optimal schedules" — the "Fully
  Dynamic Height Priority" bars of Figure 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.ir.dfg import DataflowGraph, Edge
from repro.ir.work import charge_run, memoised
from repro.scheduler.mii import compute_rec_mii


@dataclass
class PriorityResult:
    """Scheduling order plus the analyses behind it.

    ``order`` is the list of opids in scheduling order; ``rank[opid]``
    is its position — the single number per op that static priority
    encoding places in the binary's data section (Figure 9(c)).
    """

    order: list[int]
    rank: dict[int, int]
    earliest: dict[int, int]
    latest: dict[int, int]
    height: dict[int, int]
    depth: dict[int, int]
    scc_miis: list[tuple[int, list[int]]] = field(default_factory=list)

    @classmethod
    def from_order(cls, order: list[int]) -> "PriorityResult":
        rank = {opid: i for i, opid in enumerate(order)}
        zeros = {opid: 0 for opid in order}
        return cls(order=order, rank=rank, earliest=dict(zeros),
                   latest=dict(zeros), height=dict(zeros), depth=dict(zeros))


def _sub_edges(dfg: DataflowGraph, nodes: set[int]) -> list[Edge]:
    return [e for e in dfg.edges
            if e.kind == "flow" and e.src in nodes and e.dst in nodes]


def _asap_alap(dfg: DataflowGraph, nodes: set[int], ii: int,
               work: Optional[Callable[[int], None]] = None
               ) -> tuple[dict[int, int], dict[int, int]]:
    """Earliest/latest start times at initiation interval *ii*.

    Longest-path fixpoints with edge weight ``latency - ii * distance``;
    converges because ii >= RecMII guarantees no positive cycles.  Each
    relaxation pass charges one unit per edge.
    """
    edges = [(e.src, e.dst, e.latency - ii * e.distance)
             for e in _sub_edges(dfg, nodes)]
    earliest = {n: 0 for n in nodes}
    for _ in range(len(nodes) + 1):
        charge_run(work, len(edges))
        changed = False
        for src, dst, weight in edges:
            t = earliest[src] + weight
            if t > earliest[dst]:
                earliest[dst] = t
                changed = True
        if not changed:
            break
    latency = dfg.latency
    end = max((earliest[n] + latency(n) for n in nodes), default=0)
    latest = {n: end - latency(n) for n in nodes}
    for _ in range(len(nodes) + 1):
        charge_run(work, len(edges))
        changed = False
        for src, dst, weight in edges:
            t = latest[dst] - weight
            if t < latest[src]:
                latest[src] = t
                changed = True
        if not changed:
            break
    return earliest, latest


def height_priority(dfg: DataflowGraph, schedulable: set[int], ii: int,
                    work: Optional[Callable[[int], None]] = None
                    ) -> PriorityResult:
    """Rau's height-based priority: decreasing height order."""
    earliest, latest = _asap_alap(dfg, schedulable, ii, work)
    end = max((earliest[n] + dfg.latency(n) for n in schedulable), default=0)
    height = {n: end - latest[n] for n in schedulable}
    depth = dict(earliest)
    order = sorted(schedulable, key=lambda n: (-height[n], earliest[n], n))
    if work is not None:
        work(len(order))
    rank = {opid: i for i, opid in enumerate(order)}
    return PriorityResult(order=order, rank=rank, earliest=earliest,
                          latest=latest, height=height, depth=depth)


def _reachable(dfg: DataflowGraph, sources: set[int], within: set[int],
               forward: bool,
               work: Optional[Callable[[int], None]] = None) -> set[int]:
    """Nodes of *within* reachable from *sources* along flow edges."""
    seen = set(sources)
    frontier = list(sources)
    units = 0
    while frontier:
        node = frontier.pop()
        neighbours = dfg.successors(node) if forward else dfg.predecessors(node)
        units += len(neighbours)
        for n in neighbours:
            if n in within and n not in seen:
                seen.add(n)
                frontier.append(n)
    charge_run(work, units)
    return seen


def _build_sets(dfg: DataflowGraph, schedulable: set[int],
                work: Optional[Callable[[int], None]] = None
                ) -> tuple[list[list[int]], list[tuple[int, list[int]]]]:
    """SMS node sets: recurrences by decreasing criticality, each
    augmented with the nodes on paths to previously chosen sets, then
    the acyclic remainder."""
    sccs = dfg.recurrence_components(work=work, restrict=schedulable)
    scored: list[tuple[int, list[int]]] = []
    for scc in sccs:
        mii = compute_rec_mii(dfg, set(scc), work=work)
        scored.append((mii, sorted(scc)))
    scored.sort(key=lambda item: (-item[0], item[1]))

    sets: list[list[int]] = []
    chosen: set[int] = set()
    for _, scc in scored:
        members = set(scc) - chosen
        if not members:
            continue
        if chosen:
            # Nodes on paths between already-chosen nodes and this SCC.
            down = _reachable(dfg, chosen, schedulable, True, work)
            up = _reachable(dfg, members, schedulable, False, work)
            bridge = (down & up) - chosen - members
            down2 = _reachable(dfg, members, schedulable, True, work)
            up2 = _reachable(dfg, chosen, schedulable, False, work)
            bridge |= (down2 & up2) - chosen - members
            members |= bridge
        sets.append(sorted(members))
        chosen |= members
    rest = schedulable - chosen
    if rest:
        sets.append(sorted(rest))
    return sets, scored


def swing_priority(dfg: DataflowGraph, schedulable: set[int], ii: int,
                   work: Optional[Callable[[int], None]] = None,
                   analyses: Optional[dict] = None) -> PriorityResult:
    """Swing Modulo Scheduling node ordering.

    Within each set the order alternates direction: top-down passes pick
    the node of maximum height among nodes with an ordered predecessor,
    bottom-up passes the node of maximum depth among nodes with an
    ordered successor, so every scheduled node has a placed neighbour —
    the property that lets the scheduler keep operand lifetimes short.

    *analyses* is the per-DFG memo of :func:`repro.ir.work.memoised`
    (None computes everything): the node sets do not depend on *ii*,
    so one computation serves every II.
    """
    earliest, latest = _asap_alap(dfg, schedulable, ii, work)
    end = max((earliest[n] + dfg.latency(n) for n in schedulable), default=0)
    height = {n: end - latest[n] for n in schedulable}
    depth = dict(earliest)
    mobility = {n: latest[n] - earliest[n] for n in schedulable}
    sets, scored = memoised(analyses, "sets", work,
                            lambda w: _build_sets(dfg, schedulable, w))

    flow_succs = {n: [e.dst for e in dfg.out_edges(n)
                      if e.kind == "flow" and e.dst in schedulable]
                  for n in schedulable}
    flow_preds = {n: [e.src for e in dfg.in_edges(n)
                      if e.kind == "flow" and e.src in schedulable]
                  for n in schedulable}

    order: list[int] = []
    placed: set[int] = set()
    for node_set in sets:
        unplaced = set(node_set) - placed
        while unplaced:
            with_pred = {v for v in unplaced
                         if not placed.isdisjoint(flow_preds[v])}
            with_succ = {v for v in unplaced
                         if not placed.isdisjoint(flow_succs[v])}
            if work is not None:
                work(len(unplaced))
            if with_pred and not with_succ:
                direction, ready = "down", with_pred
            elif with_succ and not with_pred:
                direction, ready = "up", with_succ
            elif with_pred:
                direction, ready = "down", with_pred
            else:
                # Nothing adjacent to placed nodes: start the set from
                # its most critical node, top-down.
                direction = "down"
                ready = {max(unplaced,
                             key=lambda v: (height[v], -mobility[v], -v))}
            while ready:
                if work is not None:
                    work(len(ready))
                if direction == "down":
                    v = max(ready, key=lambda u: (height[u], -mobility[u], -u))
                else:
                    v = max(ready, key=lambda u: (depth[u], -mobility[u], -u))
                order.append(v)
                placed.add(v)
                unplaced.discard(v)
                ready.discard(v)
                grow = flow_succs[v] if direction == "down" else flow_preds[v]
                for n in grow:
                    if n in unplaced:
                        ready.add(n)
            # Ready pool drained: swing to the other direction.
    rank = {opid: i for i, opid in enumerate(order)}
    return PriorityResult(order=order, rank=rank, earliest=earliest,
                          latest=latest, height=height, depth=depth,
                          scc_miis=scored)
