"""In-order scalar pipeline timing model.

Models the baseline processors of the evaluation (Section 4.3):

* ``ARM11``-like single-issue core (the speedup baseline),
* ``Cortex-A8``-like dual-issue core (the "2-Issue" bar of Figure 10),
* a hypothetical quad-issue core (the "4-Issue" bar).

The model is an in-order scoreboard: operations issue in program order,
at most ``issue_width`` per cycle, stalling for operand readiness (RAW)
and for structural hazards on integer units, FP units and memory ports.
Loop timing is measured in steady state by simulating warm iterations,
so cross-iteration stalls through recurrences are captured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ir.loop import Loop
from repro.ir.opcodes import (
    DEFAULT_LATENCY,
    LatencyModel,
    Opcode,
    ResourceClass,
)
from repro.ir.ops import Reg


@dataclass(frozen=True)
class CPUConfig:
    """Scalar core parameters.

    ``taken_branch_penalty`` models pipeline refill on the loop-back
    branch; short for these cores because the loop branch is trivially
    predicted.
    """

    name: str
    issue_width: int
    int_units: int
    fp_units: int
    mem_ports: int
    taken_branch_penalty: int = 0
    area_mm2: float = 0.0

    def units_for(self, resource: ResourceClass) -> int:
        if resource is ResourceClass.FP:
            return self.fp_units
        if resource is ResourceClass.MEM:
            return self.mem_ports
        if resource is ResourceClass.BRANCH:
            return 1
        return self.int_units


#: Single-issue embedded core, 8-stage pipeline, no FPU in the real part;
#: we grant it one FP unit so FP benchmarks have a defined baseline
#: (documented substitution — see DESIGN.md).  4.34 mm^2 at 90 nm.
ARM11 = CPUConfig(name="ARM11", issue_width=1, int_units=1, fp_units=1,
                  mem_ports=1, taken_branch_penalty=1, area_mm2=4.34)

#: Dual-issue, 13-stage pipeline, 10.2 mm^2 at 90 nm.
CORTEX_A8 = CPUConfig(name="Cortex-A8", issue_width=2, int_units=2,
                      fp_units=1, mem_ports=1, taken_branch_penalty=1,
                      area_mm2=10.2)

#: Hypothetical quad-issue Cortex-A8 with larger L2 (Section 4.3);
#: 14.0 mm^2 at 90 nm.
QUAD_ISSUE = CPUConfig(name="4-Issue", issue_width=4, int_units=4,
                       fp_units=2, mem_ports=2, taken_branch_penalty=1,
                       area_mm2=14.0)


class InOrderPipeline:
    """Cycle-level timing of loops on an in-order scalar core."""

    def __init__(self, config: CPUConfig,
                 latency_model: LatencyModel = DEFAULT_LATENCY) -> None:
        self.config = config
        self.latency_model = latency_model

    # -- core issue model -------------------------------------------------

    def _simulate(self, loop: Loop, iterations: int) -> list[int]:
        """Issue *iterations* repetitions of the body in order.

        Returns the cycle at which each iteration's branch issued —
        differencing gives per-iteration cost.
        """
        cfg = self.config
        ready: dict[Reg, int] = {}
        # busy[cycle] tracks per-resource usage; dict keyed by cycle since
        # loop bodies are small and schedules sparse.
        issue_used: dict[int, int] = {}
        unit_used: dict[tuple[int, ResourceClass], int] = {}
        cycle = 0
        branch_cycles: list[int] = []
        for _ in range(iterations):
            for op in loop.body:
                resource = op.opcode.resource
                if resource is ResourceClass.CCA:
                    # Scalar cores execute the collapsed subgraph as its
                    # constituent RISC ops; callers should not time
                    # CCA-mapped loops on a CPU, but handle it sanely.
                    resource = ResourceClass.INT
                earliest = cycle
                for reg in op.src_regs():
                    earliest = max(earliest, ready.get(reg, 0))
                t = earliest
                while True:
                    if issue_used.get(t, 0) < cfg.issue_width and \
                            unit_used.get((t, resource), 0) < cfg.units_for(resource):
                        break
                    t += 1
                issue_used[t] = issue_used.get(t, 0) + 1
                unit_used[(t, resource)] = unit_used.get((t, resource), 0) + 1
                latency = self.latency_model.latency(op.opcode)
                for dest in op.dests:
                    ready[dest] = t + latency
                cycle = t  # in-order: later ops issue no earlier
                if op.opcode is Opcode.BR:
                    branch_cycles.append(t)
                    cycle = t + 1 + cfg.taken_branch_penalty
        return branch_cycles

    def _timing_key(self, loop: Loop, kind: str, extra) -> tuple:
        """Content-addressed identity of one timing query.

        The simulation is a pure function of (core config, latency
        model, loop body), so every ``InOrderPipeline`` instance in the
        process — one per :class:`~repro.vm.runtime.VirtualMachine`,
        i.e. one per (sweep point x benchmark) — can share results.
        """
        from repro.perf.digest import cpu_key, loop_digest
        return (cpu_key(self.config, self.latency_model),
                loop_digest(loop), kind, extra)

    def steady_cycles_per_iteration(self, loop: Loop,
                                    warm: int = 4, measure: int = 8) -> float:
        """Steady-state cycles per loop iteration."""
        from repro import perf
        key = None
        if perf.engine_enabled():
            key = self._timing_key(loop, "steady", (warm, measure))
            cached = perf.cycles_cache.lookup(key)
            if cached is not None:
                return cached
        branches = self._simulate(loop, warm + measure)
        if len(branches) < warm + measure:
            raise ValueError(f"loop {loop.name!r} has no loop-back branch")
        span = branches[warm + measure - 1] - branches[warm - 1]
        result = span / measure
        if key is not None:
            perf.cycles_cache.insert(key, result)
        return result

    def loop_cycles(self, loop: Loop, trip_count: Optional[int] = None) -> float:
        """Total cycles to run *loop* for *trip_count* iterations."""
        trips = loop.trips(trip_count)
        from repro import perf
        key = None
        if perf.engine_enabled():
            key = self._timing_key(loop, "loop", trips)
            cached = perf.cycles_cache.lookup(key)
            if cached is not None:
                return cached
        per_iter = self.steady_cycles_per_iteration(loop)
        # First iteration pays cold scheduling; approximate with one
        # extra body latency via a 1-iteration simulation.
        first = self._simulate(loop, 1)[0] + 1
        result = first + per_iter * (trips - 1)
        if key is not None:
            perf.cycles_cache.insert(key, result)
        return result
