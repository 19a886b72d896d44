"""Strongly connected component computation (Tarjan's algorithm).

Loop identification — "finding strongly connected components of a control
flow graph" (paper Section 4.1) — and recurrence extraction in the
dataflow graph both reduce to SCCs.  This module provides an iterative
Tarjan implementation over plain adjacency mappings so it can serve both
the CFG and the DFG without depending on either.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence

from repro.ir.work import charge_run

Node = Hashable


def strongly_connected_components(
    nodes: Iterable[Node],
    successors: Callable[[Node], Iterable[Node]],
    work: Optional[Callable[[int], None]] = None,
) -> list[list[Node]]:
    """Return the SCCs of the directed graph, in reverse topological order.

    Args:
        nodes: All graph nodes.
        successors: Adjacency function.
        work: Optional callback charged one unit per root and per edge
            visit (one run, see :func:`repro.ir.work.charge_run`), used
            by the VM translation cost model to meter this linear-time
            pass.

    Tarjan's algorithm, implemented iteratively so deep dataflow graphs
    from aggressively inlined loops (Section 3.1 notes some loops are
    very large) cannot overflow Python's recursion limit.
    """
    nodes = list(nodes)
    index: dict[Node, int] = {}
    lowlink: dict[Node, int] = {}
    on_stack: set[Node] = set()
    stack: list[Node] = []
    sccs: list[list[Node]] = []
    counter = 0
    units = 0

    for root in nodes:
        if root in index:
            continue
        # Each frame: (node, iterator over its successors).
        call_stack: list[tuple[Node, Iterable[Node]]] = [(root, iter(successors(root)))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        units += 1
        while call_stack:
            node, succ_iter = call_stack[-1]
            advanced = False
            for succ in succ_iter:
                units += 1
                if succ not in index:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    call_stack.append((succ, iter(successors(succ))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            call_stack.pop()
            if call_stack:
                parent = call_stack[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: list[Node] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
    charge_run(work, units)
    return sccs


def nontrivial_sccs(
    nodes: Iterable[Node],
    successors: Callable[[Node], Iterable[Node]],
    work: Optional[Callable[[int], None]] = None,
) -> list[list[Node]]:
    """SCCs that contain a cycle: size > 1, or a single self-looping node."""
    result = []
    for scc in strongly_connected_components(nodes, successors, work):
        if len(scc) > 1:
            result.append(scc)
        else:
            node = scc[0]
            if node in set(successors(node)):
                result.append(scc)
    return result


def condensation(
    nodes: Sequence[Node],
    successors: Callable[[Node], Iterable[Node]],
) -> tuple[list[list[Node]], Mapping[Node, int], list[set[int]]]:
    """Condense the graph into its SCC DAG.

    Returns ``(sccs, component_of, dag_successors)`` where
    ``dag_successors[i]`` is the set of component indices reachable from
    component *i* by a single edge.
    """
    sccs = strongly_connected_components(nodes, successors)
    component_of: dict[Node, int] = {}
    for i, scc in enumerate(sccs):
        for node in scc:
            component_of[node] = i
    dag: list[set[int]] = [set() for _ in sccs]
    for node in nodes:
        for succ in successors(node):
            a, b = component_of[node], component_of[succ]
            if a != b:
                dag[a].add(b)
    return sccs, component_of, dag
