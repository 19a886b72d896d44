"""Minimum initiation interval computation.

"The first step in modulo scheduling algorithms is to compute the
minimum II, which is a function of both the recurrences in the loop and
the resources available in the accelerator." (Section 4.1.)

* **ResMII**: for each resource class, ``ceil(ops / units)`` — "since
  there are 5 integer instructions in the loop and 2 integer units, II
  must be at least ceil(5/2)".
* **RecMII**: the maximum over recurrence cycles of
  ``ceil(latency(cycle) / distance(cycle))``, found by binary search on
  II with positive-cycle detection on edge weights
  ``latency - II * distance`` (a cycle with positive weight at candidate
  II means some recurrence cannot complete within its distance budget).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from repro.ir.dfg import DataflowGraph
from repro.ir.opcodes import Opcode, OpKind
from repro.ir.work import charge_run

#: Value used for "this resource has demand but zero units".
INFEASIBLE = 10 ** 9

#: Scheduler resource keys: integer units, FP units, the CCA, and the
#: load/store address generators that memory ops issue through.
INT_UNIT = "int"
FP_UNIT = "fp"
CCA_UNIT = "cca"
LOAD_GEN = "ldgen"
STORE_GEN = "stgen"


def sched_resource(op) -> str:
    """The accelerator resource pool *op* occupies for one cycle."""
    if op.opcode is Opcode.CCA_OP:
        return CCA_UNIT
    if op.is_load:
        return LOAD_GEN
    if op.is_store:
        return STORE_GEN
    if op.kind is OpKind.FLOAT:
        return FP_UNIT
    return INT_UNIT


@dataclass
class MIIResult:
    """Breakdown of the minimum II."""

    res_mii: int
    rec_mii: int
    per_resource: dict[str, int]

    @property
    def mii(self) -> int:
        return max(self.res_mii, self.rec_mii, 1)

    @property
    def feasible(self) -> bool:
        return self.res_mii < INFEASIBLE


def compute_res_mii(dfg: DataflowGraph, schedulable: set[int],
                    units: dict[str, int],
                    work: Optional[Callable[[int], None]] = None
                    ) -> tuple[int, dict[str, int]]:
    """Resource-constrained MII over the *schedulable* (compute) ops.

    Loads and stores are constrained by the load/store address
    generators they issue through; a class with zero available units and
    at least one op yields an infeasible ResMII (:data:`INFEASIBLE`).
    """
    charge_run(work, len(schedulable))
    counts: dict[str, int] = {}
    for opid in schedulable:
        rc = sched_resource(dfg.op(opid))
        counts[rc] = counts.get(rc, 0) + 1
    per_resource: dict[str, int] = {}
    res_mii = 1
    for rc, count in counts.items():
        available = units.get(rc, 0)
        if available <= 0:
            per_resource[rc] = INFEASIBLE
        else:
            per_resource[rc] = math.ceil(count / available)
        res_mii = max(res_mii, per_resource[rc])
    return res_mii, per_resource


def _has_positive_cycle(nodes: list[int],
                        edges: list[tuple[int, int, int, int]],
                        ii: int,
                        work: Optional[Callable[[int], None]] = None) -> bool:
    """Bellman-Ford longest-path relaxation; True if some cycle has
    positive weight ``latency - ii * distance``.  Each relaxation pass
    charges one unit per edge."""
    weighted = [(src, dst, latency - ii * distance)
                for src, dst, latency, distance in edges]
    dist = {n: 0 for n in nodes}
    for _ in range(len(nodes)):
        charge_run(work, len(weighted))
        changed = False
        for src, dst, w in weighted:
            if dist[src] + w > dist[dst]:
                dist[dst] = dist[src] + w
                changed = True
        if not changed:
            return False
    return True


def compute_rec_mii(dfg: DataflowGraph, schedulable: set[int],
                    work: Optional[Callable[[int], None]] = None,
                    ii_cap: int = 4096) -> int:
    """Recurrence-constrained MII over the *schedulable* ops.

    Only edges inside recurrence SCCs matter; acyclic spans cannot
    constrain II.  Binary search for the smallest II with no positive
    cycle.
    """
    sccs = dfg.recurrence_components(work=work, restrict=schedulable)
    rec_mii = 1
    for scc in sccs:
        members = set(scc)
        edges = [(e.src, e.dst, e.latency, e.distance)
                 for e in dfg.subgraph_edges(members)]
        lo, hi = 1, min(ii_cap, sum(max(e[2], 1) for e in edges) + 1)
        while lo < hi:
            mid = (lo + hi) // 2
            if _has_positive_cycle(list(members), edges, mid, work):
                lo = mid + 1
            else:
                hi = mid
        rec_mii = max(rec_mii, lo)
    return rec_mii


def compute_mii(dfg: DataflowGraph, schedulable: set[int],
                units: dict[str, int],
                work: Optional[Callable[[int], None]] = None) -> MIIResult:
    """Full minimum-II calculation (ResMII and RecMII)."""
    res_mii, per_resource = compute_res_mii(dfg, schedulable, units, work)
    rec_mii = compute_rec_mii(dfg, schedulable, work)
    return MIIResult(res_mii=res_mii, rec_mii=rec_mii,
                     per_resource=per_resource)
