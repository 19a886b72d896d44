"""The loop accelerator machine: admission, invocation and timing.

Runs a translated loop (a :class:`KernelImage`) against a
:class:`~repro.cpu.memory.Memory`:

* **Functionally** — :meth:`LoopAccelerator.invoke` runs the
  specialized kernel at engine tier 2 and the reference interpreter
  otherwise.  The software-pipelined overlap cannot change values
  because the schedule provably respects every dependence
  (``validate_schedule`` guarantees that); the event executor
  (:mod:`repro.accelerator.pipeline_executor`) runs the real modulo
  schedule, and the differential guard checks it end to end.
* **Cycle-level timing** — iteration *k* of the kernel launches at
  ``k * II``; the loop completes when the last iteration's last result
  retires, so ``kernel = (N - 1) * II + span``.  Invocation pays the
  memory-mapped register-file initialisation and two system-bus
  synchronisations (Section 3: "include synchronization overheads from
  copying results to and from the accelerator over a 10 cycle system
  bus").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro import perf
from repro.accelerator.config import LAConfig
from repro.analysis.partition import LoopPartition
from repro.analysis.streams import StreamAnalysis
from repro.cpu.interpreter import Interpreter
from repro.cpu.memory import Memory, Value
from repro.ir.dfg import DataflowGraph
from repro.ir.loop import Loop
from repro.ir.ops import Reg
from repro.perf.memo import RuntimeMemos
from repro.scheduler.regalloc import RegisterAssignment
from repro.scheduler.rotation import PhysicalAssignment
from repro.scheduler.schedule import ModuloSchedule


# Re-exported from the structured failure taxonomy; historically this
# class was defined here and importers still reach it via this module.
from repro.errors import AcceleratorFault  # noqa: E402  (re-export)


#: Per-image memo of :meth:`KernelImage.timing_constants`.
_TIMING_ATTR = "_veal_timing"


@dataclass
class KernelImage(RuntimeMemos):
    """Everything the VM installs into the code cache for one loop.

    Attributes:
        loop: The CCA-mapped loop body (compound ops included).
        dfg: Dataflow graph of that body.
        partition: control/address/compute classification.
        schedule: The modulo schedule of the compute partition.
        streams: Stream analysis (patterns per memory opid).
        registers: Operand mapping into the LA register files.
        config: The accelerator this image was compiled for.
        rotation: Physical placement of cross-stage values (modulo
            variable expansion); None for hand-built images.
        digest: The transcache content digest this image was cached
            under; the specialization tier (:mod:`repro.accelerator.jit`)
            keys its compiled-function cache on it so service workers
            and ``run_loop`` cache hints reuse one compilation.  None
            for hand-built or uncached images (the jit derives a
            content key itself).
    """

    loop: Loop
    dfg: DataflowGraph
    partition: LoopPartition
    schedule: ModuloSchedule
    streams: StreamAnalysis
    registers: RegisterAssignment
    config: LAConfig
    rotation: Optional[PhysicalAssignment] = None
    digest: Optional[str] = None

    def timing_constants(self) -> tuple[int, int]:
        """``(scalar live-ins mapped to the register files, completion
        time of one iteration)``: the per-image parts of an estimate.

        Memoised on the image, which is never mutated once built.
        """
        consts = self.__dict__.get(_TIMING_ATTR)
        if consts is None:
            live_ins = set(self.loop.live_ins)
            scalar_ins = sum(1 for reg in self.registers.mapping
                             if reg in live_ins)
            consts = self.__dict__[_TIMING_ATTR] = (
                scalar_ins, self.schedule.completion_time(self.dfg))
        return consts

    @property
    def ii(self) -> int:
        return self.schedule.ii

    @property
    def stage_count(self) -> int:
        return self.schedule.stage_count

    def control_words(self) -> int:
        """Size of the LA control image, in 32-bit words.

        Each FU needs one instruction slot per kernel cycle (Section
        3.1: maximum supported II determines the size of the control
        structure), plus per-stream configuration.
        """
        fu_count = (self.config.num_int_units + self.config.num_fp_units
                    + self.config.num_ccas)
        stream_count = (self.streams.num_load_streams
                        + self.streams.num_store_streams)
        return self.ii * fu_count + 3 * stream_count


@dataclass
class AcceleratorRun:
    """Result of one accelerator invocation."""

    iterations: int
    kernel_cycles: int
    overhead_cycles: int
    live_outs: dict[Reg, Value]

    @property
    def total_cycles(self) -> int:
        return self.kernel_cycles + self.overhead_cycles


class LoopAccelerator:
    """A loop accelerator instance attached to the system bus."""

    def __init__(self, config: LAConfig) -> None:
        self.config = config
        self.invocations = 0

    # -- admission ------------------------------------------------------------

    def admits(self, image: KernelImage) -> Optional[str]:
        """Why this accelerator cannot run *image*, or None if it can."""
        if image.ii > self.config.max_ii:
            return (f"II {image.ii} exceeds maximum supported II "
                    f"{self.config.max_ii}")
        if image.streams.num_load_streams > self.config.load_streams:
            return (f"{image.streams.num_load_streams} load streams exceed "
                    f"the {self.config.load_streams} supported")
        if image.streams.num_store_streams > self.config.store_streams:
            return (f"{image.streams.num_store_streams} store streams exceed "
                    f"the {self.config.store_streams} supported")
        if image.registers.int_regs > self.config.num_int_regs:
            return "integer register demand exceeds the register file"
        if image.registers.fp_regs > self.config.num_fp_regs:
            return "floating-point register demand exceeds the register file"
        return None

    # -- timing-only estimation ---------------------------------------------

    def estimate(self, image: KernelImage,
                 trip_count: Optional[int] = None) -> AcceleratorRun:
        """Cycle estimate without functional execution.

        Design-space sweeps translate thousands of (loop, config) pairs;
        the kernel timing is fully determined by the schedule, so the
        functional pass (which exists to prove correctness) can be
        skipped.  Produces the same cycle counts `invoke` reports.
        """
        reason = self.admits(image)
        if reason is not None:
            raise AcceleratorFault(reason)
        loop = image.loop
        trips = loop.trips(trip_count)
        scalar_ins, completion = image.timing_constants()
        schedule = image.schedule
        # ModuloSchedule.kernel_cycles, with the completion time recalled.
        kernel = ((trips - 1) * schedule.ii + completion
                  if schedule.times else 0)
        overhead = (2 * self.config.bus_latency + scalar_ins
                    + len(loop.live_outs))
        return AcceleratorRun(iterations=trips, kernel_cycles=kernel,
                              overhead_cycles=overhead, live_outs={})

    # -- invocation ------------------------------------------------------------

    def invoke(self, image: KernelImage, memory: Memory,
               live_in_values: Mapping[Reg, Value]) -> AcceleratorRun:
        """Run *image* to completion against *memory*.

        At engine tier 2 the specialized kernel runs; below it, for an
        image the JIT does not take (while-loops included) and for a
        declined call, the reference interpreter does.  A validated
        schedule cannot change dataflow values, so both give the
        loop's scalar results.  The invocation is atomic (Section 2.1):
        exceptions either wait or abort, so there is no mid-loop
        architectural state to model.
        """
        reason = self.admits(image)
        if reason is not None:
            raise AcceleratorFault(reason)
        self.invocations += 1
        loop = image.loop
        iterations = loop.trip_count
        ran = None
        if perf.engine_level() >= 2:
            from repro.accelerator import jit
            ran = jit.invoke_specialized(image, memory, live_in_values,
                                         iterations)
        if ran is None:
            result = Interpreter(memory).run_loop(loop, live_in_values)
            iterations, live_outs = result.iterations, result.live_outs
        else:
            live_outs = ran[1]
        scalar_ins = sum(1 for reg in image.registers.mapping
                         if reg in live_in_values)
        return AcceleratorRun(
            iterations=iterations,
            kernel_cycles=image.schedule.kernel_cycles(iterations, image.dfg),
            overhead_cycles=(2 * self.config.bus_latency + scalar_ins
                             + len(loop.live_outs)),
            live_outs=live_outs)
