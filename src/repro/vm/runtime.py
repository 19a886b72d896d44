"""The co-designed virtual machine runtime.

Ties everything together: monitors a program, identifies its loops
(dynamically — "Loop detection remains dynamic, as it is a low-overhead
process to perform in the VM", Section 4.2), translates hot loops for
whatever accelerator is present, caches translations in the software
code cache, and accounts whole-application cycles including translation
overhead — the quantity behind Figures 6, 7 and 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro import obs
from repro.accelerator.config import LAConfig
from repro.accelerator.machine import LoopAccelerator
from repro.cpu.interpreter import standard_live_ins
from repro.cpu.memory import Memory
from repro.cpu.pipeline import ARM11, CPUConfig, InOrderPipeline
from repro.ir.cfg import Program, identify_loops, linear_program
from repro.ir.loop import Loop
from repro.errors import AcceleratorFault
from repro.vm.codecache import CodeCache
from repro.vm.costmodel import translation_cycles
from repro.vm.guard import GuardConfig, differential_check
from repro.vm.translator import (
    TranslationOptions,
    TranslationResult,
    invalidate_translation,
    translate_loop,
)


@dataclass(frozen=True)
class VMConfig:
    """One system configuration of the evaluation.

    ``translation_overhead_override`` replaces measured per-loop
    translation cost with a fixed cycle count (the Figure 6 sweep);
    ``miss_rate_override`` replaces code-cache simulation with an
    analytic retranslation frequency (Figure 6's line family).
    ``charge_translation=False`` models the "No Translation Penalty" /
    statically-compiled-binary bars.
    """

    cpu: CPUConfig = ARM11
    accelerator: Optional[LAConfig] = None
    options: TranslationOptions = TranslationOptions()
    charge_translation: bool = True
    translation_overhead_override: Optional[float] = None
    miss_rate_override: Optional[float] = None
    #: When False, accelerator cycle counts come from the schedule's
    #: timing alone (no functional execution) — used by design-space
    #: sweeps where thousands of (loop, config) points are evaluated.
    functional: bool = True
    #: When False, the application binary was compiled WITHOUT the
    #: static loop transformations (aggressive inlining, if-conversion,
    #: fission, unrolling adjustment) — loops whose shape depends on
    #: them cannot be retargeted at runtime (Figure 7).
    static_transforms_applied: bool = True
    #: Hot-loop profiling threshold: loops whose total scalar time
    #: (cycles/invocation x invocations) falls below this are never
    #: translated — "the VM operates by observing an application's
    #: execution and dynamically optimizing portions that benefit"
    #: (Section 4.2).  0 translates everything.
    hot_loop_min_cycles: float = 0.0
    #: Multicore translation offload (Section 4.2: "one processor can
    #: run the application in parallel with the translation").  The
    #: first translation of each loop is still on the critical path
    #: (the loop cannot launch until its control exists), but
    #: code-cache-miss retranslations overlap with continued scalar
    #: execution and cost nothing here.
    parallel_translation: bool = False
    #: Guarded-execution policy.  In ``"checked"`` mode every functional
    #: accelerator invocation is differentially verified against the
    #: scalar interpreter; a divergence (or a structural accelerator
    #: fault) deoptimizes the loop back to scalar execution instead of
    #: propagating wrong results — the virtualised never-change-semantics
    #: contract, enforced dynamically.
    guard: GuardConfig = GuardConfig()

    @property
    def code_cache_entries(self) -> int:
        if self.accelerator is None:
            return 16
        return self.accelerator.code_cache_entries


@dataclass
class LoopOutcome:
    """Per-loop result of running under one VM configuration."""

    name: str
    accelerated: bool
    reason: Optional[str]
    invocations: int
    trip_count: int
    scalar_cycles_per_invocation: float
    accel_cycles_per_invocation: Optional[float]
    translation_instructions: float
    translations_performed: int
    ii: Optional[int] = None
    stage_count: Optional[int] = None
    #: Stable machine-readable tag of the translation failure (from the
    #: :mod:`repro.errors` taxonomy); None when translation succeeded or
    #: never ran.
    failure_kind: Optional[str] = None
    #: True when the differential guard verified this loop's execution.
    guard_checked: bool = False
    #: True when the guard observed a divergence and fell back to scalar.
    deoptimized: bool = False

    @property
    def loop_speedup(self) -> float:
        if not self.accelerated or not self.accel_cycles_per_invocation:
            return 1.0
        return self.scalar_cycles_per_invocation / self.accel_cycles_per_invocation


@dataclass
class AppRun:
    """Whole-application cycle accounting for one benchmark."""

    benchmark: str
    acyclic_cycles: float
    scalar_loop_cycles: float
    accel_loop_cycles: float
    translation_cycle_total: float
    outcomes: list[LoopOutcome] = field(default_factory=list)
    cache_hit_rate: float = 1.0

    @property
    def total_cycles(self) -> float:
        return (self.acyclic_cycles + self.scalar_loop_cycles
                + self.accel_loop_cycles + self.translation_cycle_total)


def _prepare_memory(loop: Loop, seed: int) -> Memory:
    """Fresh memory with every array allocated and seeded with data."""
    memory = Memory()
    memory.allocate_arrays(loop.arrays)
    rng = np.random.default_rng(seed ^ hash(loop.name) % (2 ** 31))
    for arr in loop.arrays:
        if arr.is_float:
            memory.write_array(arr.name,
                               list(rng.uniform(-64.0, 64.0, arr.length)))
        else:
            memory.write_array(
                arr.name, rng.integers(-128, 128, arr.length).tolist())
    return memory


class VirtualMachine:
    """Executes benchmarks under a system configuration."""

    def __init__(self, config: VMConfig) -> None:
        self.config = config
        self.pipeline = InOrderPipeline(config.cpu,
                                        config.options.latency_model)
        self.accelerator = (LoopAccelerator(config.accelerator)
                            if config.accelerator is not None else None)
        self.code_cache: CodeCache = CodeCache(config.code_cache_entries)
        self._translations: dict[str, TranslationResult] = {}

    # -- translation ---------------------------------------------------------

    def translate(self, loop: Loop) -> TranslationResult:
        """Translate (memoised — retranslation costs are charged via the
        code-cache model, the work itself is deterministic)."""
        if loop.name not in self._translations:
            assert self.config.accelerator is not None
            self._translations[loop.name] = translate_loop(
                loop, self.config.accelerator, self.config.options)
        return self._translations[loop.name]

    # -- per-loop execution -----------------------------------------------------

    def run_loop(self, loop: Loop, scalars: Optional[dict] = None,
                 seed: int = 1234) -> LoopOutcome:
        """Measure one loop under this configuration.

        The loop executes functionally on the accelerator (when
        translation succeeds) so cycle counts come from real schedules
        over real data, not closed-form estimates.
        """
        obs.inc("vm.loops")
        scalar_per_inv = self.pipeline.loop_cycles(loop)
        outcome = LoopOutcome(
            name=loop.name, accelerated=False, reason=None,
            invocations=loop.invocations, trip_count=loop.trip_count,
            scalar_cycles_per_invocation=scalar_per_inv,
            accel_cycles_per_invocation=None,
            translation_instructions=0.0, translations_performed=0)
        if self.accelerator is None:
            outcome.reason = "no accelerator in system"
            return outcome
        if self.config.hot_loop_min_cycles > 0 and \
                scalar_per_inv * loop.invocations < \
                self.config.hot_loop_min_cycles:
            outcome.reason = "below the hot-loop profiling threshold"
            return outcome
        if not self.config.static_transforms_applied and \
                loop.annotations.get("static_transforms"):
            needed = ", ".join(loop.annotations["static_transforms"])
            outcome.reason = (f"loop shape requires static transforms "
                              f"({needed}) the binary lacks")
            return outcome
        result = self.translate(loop)
        outcome.translation_instructions = result.instructions
        if not result.ok:
            outcome.reason = result.failure
            outcome.failure_kind = result.failure_kind
            return outcome
        image = result.image
        assert image is not None
        admit = self.accelerator.admits(image)
        if admit is not None:
            outcome.reason = admit
            return outcome
        if self.config.functional:
            memory = _prepare_memory(image.loop, seed)
            live_ins = standard_live_ins(image.loop, memory, scalars)
            if self.config.guard.checked:
                deopt = self._guarded_invoke(loop, image, memory, live_ins,
                                             outcome)
                if deopt:
                    return outcome
            try:
                run = None
                if not loop.annotations.get("while_loop"):
                    # Engine tier 2: the specialized kernel stands in
                    # for the iteration-by-iteration machine; None
                    # means unsupported and falls through to reference.
                    from repro.accelerator import jit
                    run = jit.invoke_specialized(self.accelerator, image,
                                                 memory, live_ins)
                if run is None:
                    run = self.accelerator.invoke(image, memory, live_ins)
            except AcceleratorFault as exc:
                # A structural invariant tripped mid-invocation; the
                # atomic-invocation contract (Section 2.1) means no
                # partial state escaped — deoptimize to scalar.
                self._deoptimize(loop, outcome,
                                 f"accelerator fault: {exc}")
                return outcome
        else:
            run = self.accelerator.estimate(image)
        outcome.accel_cycles_per_invocation = run.total_cycles
        outcome.ii = image.ii
        outcome.stage_count = image.stage_count
        if run.total_cycles < scalar_per_inv:
            outcome.accelerated = True
            obs.inc("vm.accelerated")
        else:
            outcome.reason = "acceleration not profitable"
        return outcome

    # -- guarded execution ---------------------------------------------------

    def _deoptimize(self, loop: Loop, outcome: LoopOutcome,
                    reason: str) -> None:
        """Fall back to scalar: drop the translation, record why."""
        obs.inc("guard.deopts")
        obs.inc("vm.deopt")
        self._translations.pop(loop.name, None)
        self.code_cache.invalidate(loop.name)
        from repro.accelerator import jit
        jit.invalidate_loop(loop.name)
        if self.config.accelerator is not None:
            # A translation observed to misbehave must not be re-served
            # from the shared content-addressed cache (or its disk layer).
            invalidate_translation(loop, self.config.accelerator,
                                   self.config.options)
        outcome.accelerated = False
        outcome.deoptimized = True
        outcome.accel_cycles_per_invocation = None
        outcome.reason = reason

    def _guarded_invoke(self, loop: Loop, image, memory, live_ins,
                        outcome: LoopOutcome) -> bool:
        """Differentially verify *image*; True means deoptimized.

        Runs accelerated and scalar executions on private clones and
        compares live-outs and touched memory bit-for-bit; *memory*
        itself is left untouched for the subsequent timed invocation.
        """
        if loop.annotations.get("while_loop"):
            # The reference pipeline executor models fixed-trip loops
            # only; speculative while-loops run unchecked.
            return False
        outcome.guard_checked = True
        obs.inc("guard.checks")
        check = differential_check(
            image, memory, live_ins,
            cross_check_interpreter=self.config.guard.cross_check_interpreter)
        if check.verdict.ok:
            return False
        self._deoptimize(loop, outcome,
                         f"deoptimized: {check.verdict.describe()}")
        return True

    # -- code cache model ----------------------------------------------------------

    def _count_translations(self, outcomes: list[LoopOutcome]) -> None:
        """Simulate the invocation stream through the LRU code cache.

        Benchmarks interleave their hot loops round-robin (outer loop
        over phases, inner over kernels), the access pattern that made
        the paper's 16-entry cache hit "very close to 100%".
        """
        accelerated = [o for o in outcomes if o.accelerated]
        if not accelerated:
            return
        if self.config.miss_rate_override is not None:
            rate = self.config.miss_rate_override
            for o in accelerated:
                o.translations_performed = max(
                    1, int(round(rate * o.invocations)))
            return
        remaining = {o.name: o.invocations for o in accelerated}
        translations = {o.name: 0 for o in accelerated}
        while any(v > 0 for v in remaining.values()):
            for o in accelerated:
                if remaining[o.name] <= 0:
                    continue
                remaining[o.name] -= 1
                if self.code_cache.lookup(o.name) is None:
                    self.code_cache.insert(o.name, o.name)
                    translations[o.name] += 1
        for o in accelerated:
            o.translations_performed = translations[o.name]

    # -- whole application -------------------------------------------------------------

    def run_benchmark(self, benchmark) -> AppRun:
        """Run a :class:`~repro.workloads.suite.Benchmark` end to end."""
        accel = self.config.accelerator
        with obs.span("run_benchmark", component="vm",
                      benchmark=benchmark.name,
                      config=accel.name if accel is not None
                      else "scalar") as sp:
            run = self._run_benchmark(benchmark)
            if sp:
                sp.set(accelerated=sum(1 for o in run.outcomes
                                       if o.accelerated),
                       loops=len(run.outcomes))
            return run

    def _run_benchmark(self, benchmark) -> AppRun:
        kernels = (benchmark.kernels if self.config.static_transforms_applied
                   else benchmark.untransformed())
        program: Program = linear_program(benchmark.name, kernels)
        identified = identify_loops(program.entry_function().cfg)
        loops = [il.loop for il in identified if il.loop is not None]

        outcomes: list[LoopOutcome] = []
        for loop in loops:
            outcomes.append(self.run_loop(loop, scalars=benchmark.scalars,
                                          seed=benchmark.data_seed))
        self._count_translations(outcomes)

        scalar_cycles = 0.0
        accel_cycles = 0.0
        translation_total = 0.0
        for o in outcomes:
            if o.accelerated and o.accel_cycles_per_invocation is not None:
                accel_cycles += o.accel_cycles_per_invocation * o.invocations
                if self.config.charge_translation:
                    per_loop = (self.config.translation_overhead_override
                                if self.config.translation_overhead_override
                                is not None
                                else translation_cycles(
                                    o.translation_instructions))
                    charged = max(o.translations_performed, 1)
                    if self.config.parallel_translation:
                        charged = 1  # retranslations hide behind execution
                    translation_total += per_loop * charged
            else:
                scalar_cycles += o.scalar_cycles_per_invocation * o.invocations

        acyclic = benchmark.acyclic_cycles(self.pipeline)
        hit_rate = self.code_cache.stats.hit_rate
        return AppRun(
            benchmark=benchmark.name,
            acyclic_cycles=acyclic,
            scalar_loop_cycles=scalar_cycles,
            accel_loop_cycles=accel_cycles,
            translation_cycle_total=translation_total,
            outcomes=outcomes,
            cache_hit_rate=hit_rate,
        )
