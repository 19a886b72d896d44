"""Affine memory dependence refinement.

:func:`repro.ir.dfg.build_dfg` must be conservative about memory: any
two same-region accesses with a store get ordering edges at distances
0 and 1, which can manufacture recurrences that do not exist (two
interleaved store streams into one array serialise at II >= 2).

Once stream analysis has proven both accesses affine, the classic 1-D
lattice test gives the *exact* dependence: accesses
``A(k) = C_a + s*k`` and ``B(k) = C_b + s*k`` with equal stride collide
iff ``(C_a - C_b)`` is a multiple of ``s``, and then at exactly one
iteration distance.  Refinement replaces the conservative edge pair
with that exact edge — or with nothing at all when the strides'
residues can never meet.

This mirrors the paper's decoupled-stream assumption from the other
side: instead of *declaring* streams mutually exclusive (Section 2.1's
option), the compiler proves it.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.streams import StreamAnalysis
from repro.ir.dfg import DataflowGraph, Edge
from repro.ir.loop import Loop


def _exact_dependence(pattern_a, pattern_b) -> Optional[tuple[bool, int]]:
    """Exact dependence between two affine access patterns.

    Returns ``None`` when the pair must stay conservative (different
    strides or symbolically different bases), ``(False, 0)`` when the
    accesses provably never touch the same address, and
    ``(True, delta)`` when they collide at iteration distance *delta*
    (B's iteration minus A's iteration).
    """
    if pattern_a is None or pattern_b is None:
        return None
    if pattern_a.stride != pattern_b.stride:
        return None  # 2-D lattice; leave to the conservative edges
    # ``base`` is the full affine address (element offset folded in);
    # identical symbols cancel, leaving the constant address gap.
    diff = pattern_a.base - pattern_b.base
    if not diff.is_constant:
        return None  # bases differ symbolically: cannot subtract
    stride = pattern_a.stride
    if stride == 0:
        # Both hit one fixed address each iteration.
        return (diff.const == 0, 0)
    if diff.const % stride != 0:
        return (False, 0)  # disjoint residue classes: never collide
    return (True, diff.const // stride)


def refine_memory_edges(loop: Loop, dfg: DataflowGraph,
                        streams: StreamAnalysis) -> DataflowGraph:
    """Replace conservative memory edges with exact affine dependences.

    Only edge *pairs* whose two endpoints both have proven stream
    patterns are refined; anything else (non-affine access, declared
    alias groups with differing bases, unequal strides) keeps its
    conservative ordering.  Semantics are preserved by construction —
    the exact edge orders every colliding pair of accesses — and the
    equivalence tests (sequential interpreter vs overlapped executor)
    check it end to end.
    """
    refined: list[Edge] = [e for e in dfg.edges if e.kind != "mem"]
    mem_ops = [op for op in loop.body if op.is_memory]
    index = {op.opid: i for i, op in enumerate(loop.body)}
    for i, a in enumerate(mem_ops):
        for b in mem_ops[i + 1:]:
            if not (a.is_store or b.is_store):
                continue
            had_edge = any(e.kind == "mem" and
                           {e.src, e.dst} == {a.opid, b.opid}
                           for e in dfg.edges)
            if not had_edge:
                continue
            exact = _exact_dependence(streams.patterns.get(a.opid),
                                      streams.patterns.get(b.opid))
            if exact is None:
                # Keep the conservative pair for this op pair.
                refined.extend(e for e in dfg.edges
                               if e.kind == "mem"
                               and {e.src, e.dst} == {a.opid, b.opid})
                continue
            collides, delta = exact
            if not collides:
                continue  # provably disjoint: no ordering needed
            # delta = iteration(b) - iteration(a) at the collision.
            if delta > 0:
                refined.append(Edge(a.opid, b.opid, 1, delta, kind="mem"))
            elif delta < 0:
                refined.append(Edge(b.opid, a.opid, 1, -delta, kind="mem"))
            else:
                # Same iteration: program order decides the direction.
                first, second = ((a, b) if index[a.opid] < index[b.opid]
                                 else (b, a))
                refined.append(Edge(first.opid, second.opid, 1, 0,
                                    kind="mem"))
    return dfg.with_edges(refined)
