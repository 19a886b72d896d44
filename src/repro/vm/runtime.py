"""The co-designed virtual machine runtime.

Ties everything together: monitors a program, identifies its loops
(dynamically — "Loop detection remains dynamic, as it is a low-overhead
process to perform in the VM", Section 4.2), translates hot loops for
whatever accelerator is present, caches translations in the software
code cache, and accounts whole-application cycles including translation
overhead — the quantity behind Figures 6, 7 and 10.
"""

from __future__ import annotations

import zlib
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
from repro.perf.codecache import CodeCache
from repro.perf.memo import memo_table
from repro.vm.costmodel import translation_cycles
from repro.vm.guard import GuardConfig, GuardedExecutor
from repro.vm.translator import (
    TranslationOptions,
    TranslationResult,
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
    #: accelerator invocation runs through one
    #: :class:`~repro.vm.guard.GuardedExecutor`, which differentially
    #: verifies it against the scalar interpreter; a divergence (or a
    #: structural accelerator fault) deoptimizes the loop back to scalar
    #: execution and benches it instead of propagating wrong results —
    #: the virtualised never-change-semantics contract, enforced
    #: dynamically.
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
    # crc32, not hash(): every process must seed the same data.
    rng = np.random.default_rng(seed ^ zlib.crc32(loop.name.encode()))
    return Memory.seeded(loop.arrays, rng, ints=(-128, 128),
                         floats=(-64.0, 64.0))


#: Per-benchmark memo of :func:`_identified_loops`:
#: ``tuple(id(k) for k in kernels)`` -> (kernels, loops).
_LOOPS_ATTR = "_veal_loops"


def _identified_loops(benchmark, kernels: list[Loop]) -> list[Loop]:
    """The loops dynamic identification finds in *benchmark*'s program
    built from *kernels*, in identification order.

    Memoised on the benchmark, keyed by the identity of the kernel
    objects (not of the list), so an in-place edit of the kernel list
    misses and is identified afresh.  The entry holds the kernels,
    keeping their ids from being reused; ``Benchmark.__getstate__``
    keeps the memo out of pickles.
    """
    memo = memo_table(benchmark, _LOOPS_ATTR)
    key = tuple(map(id, kernels))
    hit = memo.get(key)
    if hit is not None:
        return hit[1]
    program: Program = linear_program(benchmark.name, kernels)
    identified = identify_loops(program.entry_function().cfg)
    loops = [il.loop for il in identified if il.loop is not None]
    memo[key] = (tuple(kernels), loops)
    return loops


class VirtualMachine:
    """Executes benchmarks under a system configuration."""

    def __init__(self, config: VMConfig) -> None:
        self.config = config
        self.pipeline = InOrderPipeline(config.cpu,
                                        config.options.latency_model)
        self.accelerator = (LoopAccelerator(config.accelerator)
                            if config.accelerator is not None else None)
        self.code_cache: CodeCache = CodeCache(config.code_cache_entries)
        #: id(loop) -> (loop, its translation).  Keyed by the loop
        #: object, not its name: two different loops may share a name.
        self._translations: dict[int, tuple[Loop, TranslationResult]] = {}
        #: The guarded runtime of checked mode; unchecked VMs build none.
        self.executor = (GuardedExecutor(config.accelerator, config.guard,
                                         config.options)
                         if config.guard.checked
                         and config.accelerator is not None else None)

    # -- translation ---------------------------------------------------------

    def translate(self, loop: Loop) -> TranslationResult:
        """Translate (memoised — retranslation costs are charged via the
        code-cache model, the work itself is deterministic)."""
        hit = self._translations.get(id(loop))
        if hit is None:
            assert self.config.accelerator is not None
            hit = self._translations[id(loop)] = (loop, translate_loop(
                loop, self.config.accelerator, self.config.options))
        return hit[1]

    # -- per-loop execution -----------------------------------------------------

    def run_loop(self, loop: Loop, scalars: Optional[dict] = None,
                 seed: int = 1234) -> LoopOutcome:
        """Measure one loop under this configuration.

        The loop executes functionally on the accelerator (when
        translation succeeds) so cycle counts come from real schedules
        over real data, not closed-form estimates.  In checked mode the
        execution runs through the guarded executor, which commits
        correct memory whatever the accelerator did, and the cycles are
        the schedule's (:meth:`LoopAccelerator.estimate`, equal to what
        ``invoke`` reports).
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
            if self.executor is not None:
                guarded = self.executor.run(loop, memory, live_ins,
                                            translation=result)
                outcome.guard_checked = guarded.verdict is not None
                outcome.deoptimized = guarded.detected
                if guarded.source == "scalar":
                    outcome.reason = guarded.reason
                    return outcome
                run = self.accelerator.estimate(image)
            else:
                run = self.accelerator.invoke(image, memory, live_ins)
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

    # -- code cache model ----------------------------------------------------------

    def _count_translations(self, outcomes: list[LoopOutcome]) -> None:
        """Simulate the invocation stream through the LRU code cache.

        Benchmarks interleave their hot loops round-robin (outer loop
        over phases, inner over kernels), the access pattern that made
        the paper's 16-entry cache hit "very close to 100%".  Round *r*
        invokes, in order, every accelerated loop with at least *r*
        invocations, so consecutive rounds between two distinct
        invocation counts replay one fixed sequence of distinct keys.

        Those rounds are not replayed one by one.  After one round of a
        sequence the cache holds the sequence's last ``capacity`` keys
        in order — or, for a shorter sequence, all of its keys in order
        above whatever older entries sat below — and a second round of
        the same sequence leaves exactly that state again (every key
        misses and is re-inserted in turn, or every key hits).  So all
        rounds after the first start and end in one state and count
        alike: each group runs rounds 1 and 2 through the real
        :class:`CodeCache` and adds round 2's hits, misses, evictions
        and per-loop translations once per further round.  The result
        equals the per-invocation replay, including the final
        ``keys()`` order and a cache that starts non-empty.  (Loop
        names are the cache keys and are distinct within a benchmark.)
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
        cache = self.code_cache
        stats = cache.stats
        translations = {o.name: 0 for o in accelerated}

        def one_round(names: list[str]) -> None:
            for name in names:
                if cache.lookup(name) is None:
                    cache.insert(name, name)
                    translations[name] += 1

        done = 0
        for count in sorted({o.invocations for o in accelerated}):
            if count <= done:
                continue
            rounds, done = count - done, count
            names = [o.name for o in accelerated if o.invocations >= count]
            one_round(names)
            if rounds == 1:
                continue
            hits, misses, evictions = stats.hits, stats.misses, stats.evictions
            before = [translations[name] for name in names]
            one_round(names)
            rest = rounds - 2
            stats.hits += (stats.hits - hits) * rest
            stats.misses += (stats.misses - misses) * rest
            stats.evictions += (stats.evictions - evictions) * rest
            for name, prior in zip(names, before):
                translations[name] += (translations[name] - prior) * rest
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
        loops = _identified_loops(benchmark, kernels)

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
