"""Swing modulo scheduling: the list scheduler.

Ops are placed in priority order into the modulo reservation table.
Each op's candidate window is derived from its already-placed
neighbours: placed predecessors give an earliest start, placed
successors a latest start, and the scan direction "swings" accordingly
(forward when pulled from above, backward when pulled from below) so
values live as briefly as possible.  A window is II cycles wide — if no
slot in II consecutive cycles is free, none ever will be, so the attempt
fails and II is incremented (Section 4.1's op-10 walk-through shows the
increment-on-conflict behaviour at fine grain).

Failed schedules are not silent: every attempt records *which* op could
not be placed and on what resource (or that its dependence window
closed), and the final :class:`ScheduleFailure` aggregates those into
the blocking resource/recurrence diagnosis the VM's blacklist and the
CLI surface.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import obs
from repro.ir.dfg import DataflowGraph
from repro.ir.work import charge_run, memoised
from repro.scheduler.mii import MIIResult, compute_mii, sched_resource
from repro.scheduler.mrt import ModuloReservationTable
from repro.scheduler.priority import PriorityResult, height_priority, swing_priority
from repro.scheduler.schedule import ModuloSchedule


@dataclass(frozen=True)
class AttemptDiagnostic:
    """Why one list-scheduling attempt at one II failed.

    ``cause`` is ``"window closed"`` when an op's dependence window was
    empty (latest start below earliest start — a recurrence squeeze) or
    ``"resource conflict"`` when every slot in the II-wide window was
    occupied on ``resource``.
    """

    ii: int
    order_kind: str
    failed_opid: Optional[int]
    resource: Optional[str]
    cause: str

    def describe(self) -> str:
        where = (f"op{self.failed_opid}" if self.failed_opid is not None
                 else "?")
        if self.cause == "resource conflict":
            return (f"II={self.ii} ({self.order_kind} order): {where} found "
                    f"no free {self.resource!r} slot")
        return (f"II={self.ii} ({self.order_kind} order): {where}'s "
                f"dependence window closed")


@dataclass
class ScheduleFailure:
    """Why a loop could not be modulo scheduled onto the target.

    Beyond the human-readable ``reason``, the failure carries the MII
    breakdown and every attempt's diagnostic so callers (the VM
    blacklist, the CLI's ``translate`` command) can report *which*
    resource or recurrence is to blame without re-running the scheduler.
    """

    reason: str
    mii: Optional[MIIResult] = None
    attempts: list[AttemptDiagnostic] = field(default_factory=list)

    @property
    def blocking_resource(self) -> Optional[str]:
        """The resource most often responsible across failed attempts."""
        resources = [a.resource for a in self.attempts
                     if a.resource is not None]
        if not resources:
            return None
        return Counter(resources).most_common(1)[0][0]

    @property
    def binding_constraint(self) -> Optional[str]:
        """Which MII component bound the schedule, when known."""
        if self.mii is None:
            return None
        if self.mii.rec_mii >= self.mii.res_mii:
            return f"recurrence (RecMII={self.mii.rec_mii})"
        binding = [rc for rc, v in self.mii.per_resource.items()
                   if v == self.mii.res_mii]
        name = binding[0] if binding else "resource"
        return f"resource {name!r} (ResMII={self.mii.res_mii})"

    def describe(self) -> str:
        """Multi-line diagnostic for logs and the CLI."""
        lines = [self.reason]
        if self.binding_constraint is not None:
            lines.append(f"  binding constraint: {self.binding_constraint}")
        if self.blocking_resource is not None:
            lines.append(f"  blocking resource: {self.blocking_resource!r}")
        for attempt in self.attempts[-4:]:
            lines.append(f"  {attempt.describe()}")
        return "\n".join(lines)


#: A scheduling order and its earliest-start hints (op id -> cycle; an
#: op without a hint starts its search at cycle 0).
Ordering = tuple[list[int], dict[int, int]]


@dataclass(frozen=True)
class _PlacementFailure:
    """Internal: one op's placement failing inside ``_try_schedule``."""

    failed_opid: Optional[int]
    resource: Optional[str]
    cause: str


def _try_schedule(dfg: DataflowGraph, order: list[int],
                  earliest_hint: dict[int, int], ii: int,
                  units: dict[str, int],
                  work: Optional[Callable[[int], None]] = None
                  ) -> dict[int, int] | _PlacementFailure:
    """One list-scheduling attempt at a fixed II.

    Charges one unit per edge inspected and per slot probed, as one run
    when the attempt ends.
    """
    mrt = ModuloReservationTable(ii, units)
    times: dict[int, int] = {}
    ticks = 0
    for opid in order:
        resource = sched_resource(dfg.op(opid))
        estart: Optional[int] = None
        lstart: Optional[int] = None
        in_edges = dfg.in_edges(opid)
        out_edges = dfg.out_edges(opid)
        ticks += len(in_edges) + len(out_edges)
        for e in in_edges:
            if e.src in times:
                bound = times[e.src] + e.latency - ii * e.distance
                estart = bound if estart is None else max(estart, bound)
        for e in out_edges:
            if e.dst in times:
                bound = times[e.dst] - dfg.latency(opid) + ii * e.distance
                lstart = bound if lstart is None else min(lstart, bound)
        # Schedule times may be negative during construction (bottom-up
        # placement below already-placed successors); the whole schedule
        # is normalised to start at 0 afterwards, which preserves both
        # the dependence inequalities and the mod-II resource pattern.
        if estart is None and lstart is None:
            base = earliest_hint.get(opid, 0)
            candidates = range(base, base + ii)
        elif lstart is None:
            candidates = range(estart, estart + ii)
        elif estart is None:
            candidates = range(lstart, lstart - ii, -1)
        else:
            top = min(lstart, estart + ii - 1)
            if top < estart:
                charge_run(work, ticks)
                return _PlacementFailure(opid, resource, "window closed")
            candidates = range(estart, top + 1)
        placed_at: Optional[int] = None
        for t in candidates:
            ticks += 1
            if mrt.available(t, resource):
                placed_at = t
                break
        if placed_at is None:
            charge_run(work, ticks)
            return _PlacementFailure(opid, resource, "resource conflict")
        mrt.reserve(placed_at, resource)
        times[opid] = placed_at
    charge_run(work, ticks)
    if times:
        low = min(times.values())
        if low != 0:
            times = {opid: t - low for opid, t in times.items()}
    return times


def modulo_schedule(dfg: DataflowGraph, schedulable: set[int],
                    units: dict[str, int], max_ii: int,
                    priority: Optional[PriorityResult] = None,
                    priority_kind: str = "swing",
                    work: Optional[Callable[[int], None]] = None,
                    mii_result: Optional[MIIResult] = None,
                    priority_work: Optional[Callable[[int], None]] = None,
                    analyses: Optional[dict] = None,
                    ) -> ModuloSchedule | ScheduleFailure:
    """Modulo schedule *schedulable* ops of *dfg* onto *units*.

    Args:
        dfg: The loop's dataflow graph (after CCA mapping).
        schedulable: The compute partition's opids.
        units: Resource pool sizes ("int", "fp", "cca", "ldgen", "stgen").
        max_ii: The accelerator's maximum supported II — "loops that
            cannot be scheduled at the maximum II will not be
            accelerated" (Section 3.1).
        priority: Precomputed ordering (the statically-encoded priority
            of Figure 9(c)); computed dynamically when None.
        priority_kind: "swing" or "height" for dynamic computation.
        work: Translation cost-model callback.
        mii_result: Precomputed MII (statically-encoded variant).
        analyses: The per-DFG memo of :func:`repro.ir.work.memoised`
            that the dynamic orderings are read from and filled into,
            keyed by ``(kind, ii)``; None computes them every time.
    """
    if not schedulable:
        return ScheduleFailure("no schedulable operations")
    if mii_result is None:
        mii_result = compute_mii(dfg, schedulable, units, work)
    if not mii_result.feasible:
        missing = [rc for rc, v in mii_result.per_resource.items()
                   if v >= 10 ** 9]
        return ScheduleFailure(
            "resource class required by the loop is absent"
            + (f" ({', '.join(sorted(missing))})" if missing else ""),
            mii_result)
    mii = mii_result.mii
    if mii > max_ii:
        return ScheduleFailure(
            f"MII {mii} exceeds accelerator maximum II {max_ii}", mii_result)
    static_priority = priority is not None

    def normalise(result: PriorityResult) -> Ordering:
        order = [opid for opid in result.order if opid in schedulable]
        missing = schedulable - set(order)
        return order + sorted(missing), result.earliest

    def dynamic(kind: str, ii: int, pwork) -> Ordering:
        """Priority *kind* at *ii*, memoised in the form an attempt reads
        (the order and its earliest-start hints, nothing else)."""
        def compute(w) -> Ordering:
            if kind == "swing":
                return normalise(
                    swing_priority(dfg, schedulable, ii, w, analyses))
            return normalise(height_priority(dfg, schedulable, ii, w))
        return memoised(analyses, (kind, ii), pwork, compute)

    def orders_for(ii: int) -> list[tuple[str, Ordering]]:
        """Candidate (kind, ordering) pairs for one II attempt.

        With a static encoding the order is fixed (that is the point of
        the encoding); a cheap program-order fallback still applies so a
        marginal loop degrades to a worse schedule rather than to the
        scalar core.  Dynamically, the priority is recomputed at each
        candidate II — E/L windows tighten as II grows, which is how the
        SMS algorithm itself iterates — with the height order as a
        secondary attempt.
        """
        pwork = priority_work if priority_work is not None else work
        if static_priority:
            assert priority is not None
            candidates = [("static", normalise(priority))]
        elif priority_kind in ("swing", "height"):
            kinds = (("swing", "height") if priority_kind == "swing"
                     else ("height",))
            candidates = [(kind, dynamic(kind, ii, pwork)) for kind in kinds]
        else:
            raise ValueError(f"unknown priority kind {priority_kind!r}")
        candidates.append(("program", (sorted(schedulable), {})))
        return candidates

    attempts: list[AttemptDiagnostic] = []
    for ii in range(mii, max_ii + 1):
        for order_kind, (order, earliest) in orders_for(ii):
            obs.inc("scheduler.attempts")
            outcome = _try_schedule(dfg, order, earliest, ii, units, work)
            if isinstance(outcome, _PlacementFailure):
                attempts.append(AttemptDiagnostic(
                    ii=ii, order_kind=order_kind,
                    failed_opid=outcome.failed_opid,
                    resource=outcome.resource, cause=outcome.cause))
                continue
            obs.inc("scheduler.schedules")
            obs.observe("scheduler.attempts_per_ii", ii - mii + 1)
            obs.observe("scheduler.ii", ii)
            return ModuloSchedule(ii=ii, times=outcome, units=dict(units),
                                  mii=mii, res_mii=mii_result.res_mii,
                                  rec_mii=mii_result.rec_mii)
    obs.inc("scheduler.exhaustions")
    return ScheduleFailure(
        f"no feasible schedule up to maximum II {max_ii}", mii_result,
        attempts)
