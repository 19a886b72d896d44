"""Modulo schedule representation, validation and timing.

A modulo schedule assigns each compute op an absolute time within one
iteration's software pipeline.  ``stage = time // II`` and
``cycle = time mod II`` (Section 2.2); the schedule's *stage count* (SC)
bounds iteration latency while II bounds throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ir.dfg import DataflowGraph
from repro.ir.loop import check_trip_count
from repro.scheduler.mii import sched_resource


@dataclass
class ModuloSchedule:
    """A complete modulo schedule for one loop's compute partition.

    Attributes:
        ii: The initiation interval achieved.
        times: opid -> absolute schedule time (>= 0).
        units: The resource pools the schedule was built against.
        mii / res_mii / rec_mii: The bounds that constrained it.
    """

    ii: int
    times: dict[int, int]
    units: dict[str, int]
    mii: int = 1
    res_mii: int = 1
    rec_mii: int = 1

    def cycle(self, opid: int) -> int:
        return self.times[opid] % self.ii

    def stage(self, opid: int) -> int:
        return self.times[opid] // self.ii

    @property
    def stage_count(self) -> int:
        """Number of pipeline stages (SC)."""
        if not self.times:
            return 1
        return max(self.times.values()) // self.ii + 1

    def completion_time(self, dfg: DataflowGraph) -> int:
        """Cycles from an iteration's start until its last result."""
        if not self.times:
            return 0
        return max(t + dfg.latency(opid) for opid, t in self.times.items())

    def kernel_cycles(self, trip_count: int, dfg: DataflowGraph) -> int:
        """Total cycles to execute *trip_count* overlapped iterations.

        Iteration *k* starts at ``k * II``; the loop completes when the
        last iteration's last result retires: ``(N-1) * II + span``.
        Prologue and epilogue are inside this expression — no separate
        ramp accounting is needed.
        """
        check_trip_count(trip_count)
        if not self.times:
            return 0
        return (trip_count - 1) * self.ii + self.completion_time(dfg)

    def placements(self) -> dict[int, tuple[int, str]]:
        """opid -> (time, resource) map for MRT rendering."""
        return {opid: (t, "?") for opid, t in self.times.items()}


def validate_schedule(schedule: ModuloSchedule, dfg: DataflowGraph,
                      schedulable: set[int]) -> list[str]:
    """Check modulo-scheduling invariants; returns a list of violations.

    * Coverage: every schedulable op has a time, and nothing else does.
    * Dependences: for every edge within the schedulable set,
      ``t(dst) >= t(src) + latency - II * distance``.
    * Resources: at each kernel cycle, per-pool usage <= pool size.
    """
    problems: list[str] = []
    ii = schedule.ii
    timed = set(schedule.times)
    for opid in schedulable - timed:
        problems.append(f"op{opid} not scheduled")
    for opid in timed - schedulable:
        problems.append(f"op{opid} scheduled but not schedulable")
    for opid, t in schedule.times.items():
        if t < 0:
            problems.append(f"op{opid} scheduled at negative time {t}")
    for e in dfg.edges:
        if e.src in schedule.times and e.dst in schedule.times:
            lhs = schedule.times[e.dst]
            rhs = schedule.times[e.src] + e.latency - ii * e.distance
            if lhs < rhs:
                problems.append(
                    f"edge op{e.src}->op{e.dst} (lat {e.latency}, "
                    f"dist {e.distance}) violated: {lhs} < {rhs}")
    usage: dict[tuple[int, str], int] = {}
    for opid, t in schedule.times.items():
        rc = sched_resource(dfg.op(opid))
        key = (t % ii, rc)
        usage[key] = usage.get(key, 0) + 1
    for (cycle, rc), used in usage.items():
        if used > schedule.units.get(rc, 0):
            problems.append(
                f"cycle {cycle}: {used} ops on {rc!r} but only "
                f"{schedule.units.get(rc, 0)} units")
    return problems
