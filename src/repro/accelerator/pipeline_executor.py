"""Event-driven overlapped execution of a modulo schedule.

:meth:`~repro.accelerator.machine.LoopAccelerator.invoke` runs a loop
through the specialized kernel or the reference interpreter and derives
timing from the schedule — sound, because a validated schedule cannot
change dataflow values.  This module goes the other way: it executes
the software pipeline *as the hardware would*, issuing every scheduled
operation at its absolute cycle ``t(op) + k * II`` with values resolved
through per-iteration dataflow contexts (the executable form of modulo
variable expansion).  Memory operations commit in true global-time
order across overlapped iterations, and every address the datapath
computes is cross-checked against the address generator's prediction
(base + stride, Section 2.1), an end-to-end validation of the stream
analysis.

Running this executor and the scalar interpreter over the same data and
demanding bit-identical results (the differential guard,
:mod:`repro.vm.guard`) is the strongest correctness statement in the
repository: the schedule, the dependence distances, the memory-ordering
edges, the register rotation and the stream patterns all have to be
right simultaneously.

As a by-product the executor measures what a timing formula cannot: real
per-resource utilization of the kernel (how full Figure 5's reservation
table actually runs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from repro.accelerator.addrgen import ResolvedStream, resolve_pattern
from repro.accelerator.machine import AcceleratorFault, KernelImage
from repro.cpu.interpreter import Interpreter, effective_address
from repro.cpu.memory import Memory, Value
from repro.ir.loop import Loop
from repro.ir.opcodes import Opcode
from repro.ir.ops import Imm, Operation, Reg
from repro.scheduler.mii import sched_resource


@dataclass
class OverlappedRun:
    """Result of an overlapped (pipelined) execution."""

    iterations: int
    cycles: int
    live_outs: dict[Reg, Value]
    max_inflight_iterations: int
    utilization: dict[str, float] = field(default_factory=dict)


class _DataflowResolver:
    """Resolves register values across overlapped iteration contexts.

    ``value_of[(opid, k)]`` holds the register environment *delta* op
    ``opid`` produced in iteration ``k``.  Reads resolve through the
    loop's textual def-use structure: the nearest preceding definition in
    the same iteration, else the final definition one iteration back,
    else the live-in value.
    """

    def __init__(self, loop: Loop, live_ins: Mapping[Reg, Value]) -> None:
        self.loop = loop
        self.live_ins = dict(live_ins)
        self.values: dict[tuple[int, int], dict[Reg, Value]] = {}
        # producer[(position, reg)] = (producer_opid, distance)
        self._producer: dict[tuple[int, Reg], tuple[int, int]] = {}
        last_def: dict[Reg, int] = {}
        final_def: dict[Reg, int] = {}
        for op in loop.body:
            for d in op.dests:
                final_def[d] = op.opid
        for index, op in enumerate(loop.body):
            regs = set(op.src_regs())
            for reg in regs:
                if reg in last_def:
                    self._producer[(index, reg)] = (last_def[reg], 0)
                elif reg in final_def:
                    self._producer[(index, reg)] = (final_def[reg], 1)
            for d in op.dests:
                last_def[d] = op.opid
        self._index = {op.opid: i for i, op in enumerate(loop.body)}

    def read(self, position: int, reg: Reg, k: int) -> Value:
        """Value of *reg* as read at body *position* in iteration *k*."""
        producer = self._producer.get((position, reg))
        if producer is None:
            return self._live_in(reg)
        opid, distance = producer
        source_iter = k - distance
        if source_iter < 0:
            return self._live_in(reg)
        env = self.values.get((opid, source_iter))
        if env is None or reg not in env:
            raise AcceleratorFault(
                f"value of {reg} (op{opid}, iteration {source_iter}) read "
                f"before it was produced — schedule ordering bug")
        return env[reg]

    def _live_in(self, reg: Reg) -> Value:
        if reg in self.live_ins:
            return self.live_ins[reg]
        raise AcceleratorFault(f"register {reg} has no producer and no "
                               f"live-in value")

    def write(self, opid: int, k: int, reg: Reg, value: Value) -> None:
        self.values.setdefault((opid, k), {})[reg] = value

    def operand(self, position: int, operand, k: int) -> Value:
        if isinstance(operand, Imm):
            return operand.value
        return self.read(position, operand, k)


def _precompute_unscheduled(resolver: _DataflowResolver,
                            interp: Interpreter, loop: Loop,
                            schedule_times: dict[int, int],
                            trips: int) -> None:
    """Evaluate the control/address slices for every iteration upfront.

    These ops live on the dedicated hardware (address generators, loop
    control) with no schedule slot; their values are pure functions of
    iteration-start state — the affine-pattern guarantee means none of
    them ever reads an FU or memory result, so they can be rolled
    forward iteratively before the datapath events run.
    """
    unscheduled = [op for op in loop.body
                   if op.opid not in schedule_times
                   and op.opcode is not Opcode.BR]
    for k in range(trips):
        for op in unscheduled:
            position = resolver._index[op.opid]
            regs: dict[Reg, Value] = {}
            for reg in set(op.src_regs()):
                regs[reg] = resolver.read(position, reg, k)
            interp.execute_op(op, regs)
            resolver.values[(op.opid, k)] = {d: regs[d] for d in op.dests
                                             if d in regs}


def _resolve_streams(image: KernelImage,
                     live_in_values: Mapping[Reg, Value]
                     ) -> dict[int, ResolvedStream]:
    """Program the address generators: each memory op's stream, keyed
    by opid, with its base bound to the live-in values."""
    streams: dict[int, ResolvedStream] = {}
    for op in image.loop.body:
        if not op.is_memory:
            continue
        pattern = image.streams.patterns.get(op.opid)
        if pattern is None:
            raise AcceleratorFault(
                f"op{op.opid}: no stream pattern — loop should have "
                f"been rejected")
        try:
            streams[op.opid] = resolve_pattern(pattern, len(streams),
                                               live_in_values)
        except KeyError as exc:
            raise AcceleratorFault(f"op{op.opid}: {exc.args[0]}") from None
    return streams


def _fault_site(op: Operation) -> str:
    """Classify where a produced value physically lives for injection.

    CCA outputs come straight off the combined array, load results sit
    in the stream FIFOs, and every other FU result lands in the rotating
    register file.
    """
    if op.opcode is Opcode.CCA_OP:
        return "cca"
    if op.is_load:
        return "fifo"
    return "regfile"


def execute_overlapped(image: KernelImage, memory: Memory,
                       live_in_values: Mapping[Reg, Value],
                       trip_count: Optional[int] = None,
                       fault_hook: Optional[Callable[..., Value]] = None
                       ) -> OverlappedRun:
    """Execute *image* with true software-pipeline overlap.

    Restrictions: fixed-trip loops only (a speculative while-loop would
    need store buffering to undo over-fetched iterations, which this
    executor does not model).

    ``fault_hook`` is the fault-injection seam: when given, every value
    a scheduled op writes into machine state passes through
    ``fault_hook(site, op, iteration, reg, value)`` — ``site`` is
    ``"regfile"``, ``"fifo"`` or ``"cca"`` — and the (possibly
    corrupted) return value is what downstream consumers observe.  The
    differential guard (:mod:`repro.vm.guard`) exists to catch exactly
    these corruptions.
    """
    loop = image.loop
    schedule = image.schedule
    ii = schedule.ii
    trips = loop.trips(trip_count)

    streams = _resolve_streams(image, live_in_values)
    resolver = _DataflowResolver(loop, live_in_values)
    interp = Interpreter(memory)
    _precompute_unscheduled(resolver, interp, loop, schedule.times, trips)

    # Event list: every scheduled op of every iteration at its absolute
    # cycle, ordered by (cycle, iteration, body position) — the body
    # position tiebreak keeps same-cycle memory ops in program order,
    # which the distance-aware memory edges already guarantee is safe.
    events: list[tuple[int, int, int, Operation]] = []
    for op in loop.body:
        t = schedule.times.get(op.opid)
        if t is None:
            continue
        for k in range(trips):
            events.append((t + k * ii, k, resolver._index[op.opid], op))
    events.sort(key=lambda e: (e[0], e[1], e[2]))

    busy: dict[str, int] = {}
    last_completion = 0
    active: set[int] = set()
    max_inflight = 0
    iteration_last_event: dict[int, int] = {}
    for t, k, position, op in events:
        iteration_last_event[k] = max(iteration_last_event.get(k, 0), t)

    for t, k, position, op in events:
        active.add(k)
        active = {kk for kk in active if iteration_last_event[kk] >= t}
        max_inflight = max(max_inflight, len(active))
        regs: dict[Reg, Value] = {}
        for reg in set(op.src_regs()):
            regs[reg] = resolver.read(position, reg, k)
        if op.is_memory:
            expected = streams[op.opid].address(k)
            actual = effective_address(regs, op)
            if actual != expected:
                raise AcceleratorFault(
                    f"op{op.opid} iteration {k}: datapath address "
                    f"{actual} != address generator {expected}")
        interp.execute_op(op, regs)
        env: dict[Reg, Value] = {}
        for d in op.dests:
            if d in regs:
                env[d] = regs[d]
            else:
                # Squashed predicated op: the register keeps its prior
                # value — copy it through this context so later readers
                # resolve correctly.
                try:
                    env[d] = resolver.read(position, d, k)
                except AcceleratorFault:
                    pass  # never initialised and never read later
        if fault_hook is not None and env:
            site = _fault_site(op)
            for d in list(env):
                env[d] = fault_hook(site, op, k, d, env[d])
        resolver.values[(op.opid, k)] = env
        resource = sched_resource(op)
        busy[resource] = busy.get(resource, 0) + 1
        last_completion = max(last_completion,
                              t + image.dfg.latency(op.opid))

    # Live-outs come from the final iteration's (or live-in) values.
    live_outs: dict[Reg, Value] = {}
    for reg in loop.live_outs:
        producer = None
        for op in loop.body:
            if reg in op.dests:
                producer = op.opid
        if producer is None:
            if reg in resolver.live_ins:
                live_outs[reg] = resolver.live_ins[reg]
            continue
        env = resolver.values.get((producer, trips - 1), {})
        if reg in env:
            live_outs[reg] = env[reg]

    units = schedule.units
    utilization = {}
    total_cycles = max(last_completion, (trips - 1) * ii
                       + schedule.completion_time(image.dfg))
    for resource, count in busy.items():
        capacity = units.get(resource, 0) * ii * trips
        if capacity:
            utilization[resource] = count / capacity
    return OverlappedRun(iterations=trips, cycles=total_cycles,
                         live_outs=live_outs,
                         max_inflight_iterations=max_inflight,
                         utilization=utilization)
