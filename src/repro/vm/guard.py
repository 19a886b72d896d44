"""Guarded execution: differential verification and deoptimization.

The virtualised contract (Section 4.1) says acceleration may never
change program semantics.  The schedulability check enforces that
*statically*; this module enforces it *dynamically*: in "checked" mode
every accelerated invocation also runs on the scalar interpreter over a
clone of memory, and the two executions' live-outs and touched memory
cells must be bit-identical before the accelerated results are
committed.  On divergence the guard **deoptimizes** — the code-cache
entry is invalidated, the loop is blacklisted with exponential backoff
(and permanently after ``max_failures`` strikes), the scalar results are
committed, and the application keeps running with correct values.

This is the ILA-style discipline of checking accelerator execution
against an instruction-level reference, combined with the conservative
bail-out paths production dynamic translators pair with optimisation.
The fault-injection harness (:mod:`repro.faults`) drives bit flips
through this layer to prove the guard actually catches corrupted
execution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from repro import obs
from repro.accelerator.config import LAConfig
from repro.accelerator.machine import KernelImage
from repro.accelerator.pipeline_executor import OverlappedRun, execute_overlapped
from repro.cpu.interpreter import ExecResult, Interpreter
from repro.cpu.memory import Memory, Value
from repro.errors import AcceleratorFault, GuardViolation
from repro.ir.loop import Loop
from repro.ir.ops import Reg
from repro.vm.codecache import CodeCache
from repro.vm.translator import (
    TranslationOptions,
    TranslationResult,
    translate_loop,
    translation_key,
)

#: Signature of a fault hook: ``(site, op, iteration, reg, value) -> value``.
FaultHook = Callable[..., Value]


@dataclass(frozen=True)
class GuardConfig:
    """Policy knobs for the guarded runtime.

    ``mode`` is ``"off"`` (trust the translator — the paper's stance) or
    ``"checked"`` (differentially verify every accelerated invocation).
    After a divergence the loop is benched for ``backoff_invocations``
    invocations, doubling per strike; at ``max_failures`` strikes the
    loop falls back to scalar execution permanently.
    """

    mode: str = "off"
    max_failures: int = 3
    backoff_invocations: int = 8
    #: Also differentially verify the *interpreter's* compiled fast path
    #: (:mod:`repro.cpu.compiled`) against the reference op-by-op
    #: semantics on every check — guards the performance engine itself,
    #: not just the accelerator.
    cross_check_interpreter: bool = False

    @property
    def checked(self) -> bool:
        return self.mode == "checked"

    @staticmethod
    def checked_mode(max_failures: int = 3,
                     backoff_invocations: int = 8,
                     cross_check_interpreter: bool = False) -> "GuardConfig":
        return GuardConfig(mode="checked", max_failures=max_failures,
                           backoff_invocations=backoff_invocations,
                           cross_check_interpreter=cross_check_interpreter)


@dataclass(frozen=True)
class GuardMismatch:
    """One observed divergence between accelerated and scalar execution."""

    kind: str  # "live-out" | "memory" | "fault"
    detail: str


@dataclass
class GuardVerdict:
    """Outcome of one differential check."""

    ok: bool
    mismatches: list[GuardMismatch] = field(default_factory=list)

    def describe(self) -> str:
        if self.ok:
            return "verified: accelerated execution matches scalar reference"
        head = self.mismatches[:3]
        lines = [f"{m.kind}: {m.detail}" for m in head]
        extra = len(self.mismatches) - len(head)
        if extra > 0:
            lines.append(f"... and {extra} more mismatches")
        return "; ".join(lines)

    def to_violation(self, loop_name: str) -> GuardViolation:
        return GuardViolation(
            f"guard violation in {loop_name!r}: {self.describe()}",
            loop_name=loop_name, mismatches=list(self.mismatches))


def _values_equal(a: Value, b: Value) -> bool:
    """Value identity; NaN equals NaN so only real divergences flag."""
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, float) and isinstance(b, float) \
                and math.isnan(a) and math.isnan(b):
            return True
        return a == b and type(a) is type(b)
    return a == b


@dataclass
class DifferentialOutcome:
    """Everything one differential check produced.

    Both executions run on private clones of the pre-invocation memory;
    the caller decides which clone to commit (accelerated on a clean
    verdict, scalar on divergence — that commit *is* the recovery).
    """

    verdict: GuardVerdict
    scalar_memory: Memory
    accel_memory: Memory
    scalar_result: ExecResult
    accel_run: Optional[OverlappedRun]


def interpreter_cross_check(loop: Loop, memory: Memory,
                            live_ins: Mapping[Reg, Value]
                            ) -> list[GuardMismatch]:
    """Run *loop* through both interpreter modes and diff everything.

    The compiled fast path (:mod:`repro.cpu.compiled`) must be
    bit-identical to the reference op-by-op interpreter on registers,
    live-outs, touched memory, trip count and dynamic-op count; each
    divergence (or a trap raised by only one side) becomes a
    ``kind="interpreter"`` mismatch.  Both runs use private memory
    clones, so *memory* is untouched.
    """
    from repro.cpu.interpreter import TrapError

    results = {}
    memories = {}
    traps = {}
    for mode in ("reference", "compiled"):
        mem = memory.clone()
        memories[mode] = mem
        try:
            results[mode] = Interpreter(mem, mode=mode).run_loop(
                loop, dict(live_ins))
        except TrapError as exc:
            traps[mode] = str(exc)
    mismatches: list[GuardMismatch] = []
    if traps.get("reference") != traps.get("compiled"):
        mismatches.append(GuardMismatch(
            "interpreter",
            f"trap divergence: reference {traps.get('reference')!r} != "
            f"compiled {traps.get('compiled')!r}"))
        return mismatches
    if traps:  # both trapped identically — nothing further to compare
        return mismatches
    ref, fast = results["reference"], results["compiled"]
    for label, a, b in (("iterations", ref.iterations, fast.iterations),
                        ("dynamic_ops", ref.dynamic_ops, fast.dynamic_ops)):
        if a != b:
            mismatches.append(GuardMismatch(
                "interpreter", f"{label}: reference {a} != compiled {b}"))
    for reg in sorted(set(ref.regs) | set(fast.regs), key=str):
        a, b = ref.regs.get(reg), fast.regs.get(reg)
        if a is None or b is None or not _values_equal(a, b):
            mismatches.append(GuardMismatch(
                "interpreter",
                f"{reg}: reference {a!r} != compiled {b!r}"))
    ref_cells = memories["reference"].snapshot()
    fast_cells = memories["compiled"].snapshot()
    for addr in sorted(set(ref_cells) | set(fast_cells)):
        a, b = ref_cells.get(addr), fast_cells.get(addr)
        if a is None or b is None or not _values_equal(a, b):
            mismatches.append(GuardMismatch(
                "interpreter",
                f"[{addr:#x}]: reference {a!r} != compiled {b!r}"))
    return mismatches


def differential_check(image: KernelImage, memory: Memory,
                       live_ins: Mapping[Reg, Value],
                       trip_count: Optional[int] = None,
                       fault_hook: Optional[FaultHook] = None,
                       cross_check_interpreter: bool = False
                       ) -> DifferentialOutcome:
    """Execute *image* both ways and compare observable state.

    The scalar interpreter runs ``image.loop`` (the CCA-mapped body —
    compound ops execute their inner ops atomically, so semantics equal
    the original loop) as the reference; the overlapped pipeline
    executor is the device-faithful model under test, optionally with a
    fault hook corrupting its datapath.  With
    ``cross_check_interpreter=True`` the interpreter's own compiled
    fast path is additionally verified against the reference op-by-op
    semantics (see :func:`interpreter_cross_check`).
    """
    obs.inc("guard.diff_checks")
    mismatches: list[GuardMismatch] = []
    if cross_check_interpreter:
        mismatches.extend(interpreter_cross_check(image.loop, memory,
                                                  live_ins))
    scalar_mem = memory.clone()
    scalar_result = Interpreter(scalar_mem).run_loop(image.loop,
                                                    dict(live_ins))
    accel_mem = memory.clone()
    accel_run: Optional[OverlappedRun] = None
    try:
        # Tier-aware: at engine level >= 2 this runs the specialized
        # kernel, so the cross-check verifies the generated code itself
        # against the scalar reference.
        from repro.accelerator.jit import execute_pipelined
        accel_run = execute_pipelined(image, accel_mem, live_ins,
                                      trip_count=trip_count,
                                      fault_hook=fault_hook)
    except AcceleratorFault as exc:
        mismatches.append(GuardMismatch("fault", str(exc)))
    else:
        for reg in sorted(image.loop.live_outs, key=str):
            ref = scalar_result.live_outs.get(reg)
            got = accel_run.live_outs.get(reg)
            if ref is None and got is None:
                continue
            if ref is None or got is None or not _values_equal(ref, got):
                mismatches.append(GuardMismatch(
                    "live-out", f"{reg}: accelerator {got!r} != scalar "
                                f"{ref!r}"))
        ref_cells = scalar_mem.snapshot()
        got_cells = accel_mem.snapshot()
        for addr in sorted(set(ref_cells) | set(got_cells)):
            ref_v = ref_cells.get(addr)
            got_v = got_cells.get(addr)
            if ref_v is None or got_v is None \
                    or not _values_equal(ref_v, got_v):
                mismatches.append(GuardMismatch(
                    "memory", f"[{addr:#x}]: accelerator {got_v!r} != "
                              f"scalar {ref_v!r}"))
    if mismatches:
        obs.inc("guard.divergences")
    return DifferentialOutcome(
        verdict=GuardVerdict(ok=not mismatches, mismatches=mismatches),
        scalar_memory=scalar_mem, accel_memory=accel_mem,
        scalar_result=scalar_result, accel_run=accel_run)


# -- blacklist ----------------------------------------------------------------

@dataclass
class BlacklistEntry:
    """Deoptimization record for one loop."""

    failures: int = 0
    release_at: Optional[int] = None
    permanent: bool = False
    last_reason: str = ""


class LoopBlacklist:
    """Retry/backoff policy over deoptimized loops.

    Strike *n* benches the loop for ``backoff * 2**(n-1)`` invocations;
    strike ``max_failures`` benches it forever.  Deterministic
    translation failures go straight to permanent (retrying cannot
    change the outcome)."""

    def __init__(self, max_failures: int = 3,
                 backoff_invocations: int = 8) -> None:
        self.max_failures = max_failures
        self.backoff_invocations = backoff_invocations
        self.entries: dict[str, BlacklistEntry] = {}

    def note_failure(self, name: str, now: int,
                     reason: str) -> BlacklistEntry:
        entry = self.entries.setdefault(name, BlacklistEntry())
        entry.failures += 1
        entry.last_reason = reason
        if entry.failures >= self.max_failures:
            entry.permanent = True
            entry.release_at = None
        else:
            backoff = self.backoff_invocations * 2 ** (entry.failures - 1)
            entry.release_at = now + backoff
        return entry

    def ban(self, name: str, reason: str) -> BlacklistEntry:
        entry = self.entries.setdefault(name, BlacklistEntry())
        entry.failures += 1
        entry.permanent = True
        entry.release_at = None
        entry.last_reason = reason
        return entry

    def blocked(self, name: str, now: int) -> bool:
        entry = self.entries.get(name)
        if entry is None:
            return False
        if entry.permanent:
            return True
        return entry.release_at is not None and now < entry.release_at

    def reason_for(self, name: str) -> str:
        entry = self.entries.get(name)
        return entry.last_reason if entry is not None else ""

    def permanently_blocked(self, name: str) -> bool:
        entry = self.entries.get(name)
        return entry is not None and entry.permanent


# -- guarded executor ---------------------------------------------------------

@dataclass
class GuardStats:
    """Aggregate accounting across a guarded executor's lifetime."""

    invocations: int = 0
    accelerated: int = 0
    scalar_runs: int = 0
    checked: int = 0
    mismatches: int = 0
    deopts: int = 0
    blacklist_skips: int = 0
    translations: int = 0
    cache_hits: int = 0
    faults_caught: int = 0


@dataclass
class GuardedRun:
    """Result of one guarded invocation."""

    loop_name: str
    source: str  # "accelerator" | "scalar"
    detected: bool
    verdict: Optional[GuardVerdict]
    live_outs: dict[Reg, Value]
    reason: Optional[str] = None
    cycles: Optional[int] = None


class GuardedExecutor:
    """Translate-cache-verify-recover loop driver.

    Owns a code cache of :class:`KernelImage`, the blacklist, and the
    guard policy; every :meth:`run` call services one loop invocation
    end to end, always leaving *memory* in the semantically correct
    post-loop state regardless of what the accelerator did.
    """

    def __init__(self, la_config: LAConfig,
                 guard: GuardConfig = GuardConfig(),
                 options: TranslationOptions = TranslationOptions(),
                 cache_entries: Optional[int] = None) -> None:
        self.la_config = la_config
        self.guard = guard
        self.options = options
        entries = (cache_entries if cache_entries is not None
                   else la_config.code_cache_entries)
        #: Slots are named by loop and hold (translation key, image):
        #: another loop under the same name misses instead of aliasing.
        self.cache: CodeCache[tuple[str, KernelImage]] = CodeCache(entries)
        self.blacklist = LoopBlacklist(guard.max_failures,
                                       guard.backoff_invocations)
        self.stats = GuardStats()
        self.invocations = 0

    # -- helpers -----------------------------------------------------------

    def _scalar(self, loop: Loop, memory: Memory,
                live_ins: Mapping[Reg, Value],
                reason: Optional[str], detected: bool = False) -> GuardedRun:
        result = Interpreter(memory).run_loop(loop, dict(live_ins))
        self.stats.scalar_runs += 1
        return GuardedRun(loop.name, "scalar", detected, None,
                          result.live_outs, reason=reason)

    def _image_for(self, loop: Loop) -> TranslationResult | KernelImage:
        key = translation_key(loop, self.la_config, self.options)
        cached = self.cache.lookup(loop.name)
        if cached is not None and cached[0] == key:
            self.stats.cache_hits += 1
            return cached[1]
        result = translate_loop(loop, self.la_config, self.options)
        self.stats.translations += 1
        if result.ok:
            assert result.image is not None
            self.cache.insert(loop.name, (key, result.image))
            return result.image
        return result

    def deoptimize(self, name: str, reason: str) -> BlacklistEntry:
        """Invalidate the cached kernel and strike the blacklist."""
        self.cache.invalidate(name)
        from repro.accelerator import jit
        jit.invalidate_loop(name)
        obs.inc("vm.deopt")
        self.stats.deopts += 1
        return self.blacklist.note_failure(name, self.invocations, reason)

    # -- the main entry point ---------------------------------------------

    def run(self, loop: Loop, memory: Memory,
            live_ins: Mapping[Reg, Value],
            fault_hook: Optional[FaultHook] = None,
            trip_count: Optional[int] = None) -> GuardedRun:
        """Service one invocation of *loop*, mutating *memory* correctly."""
        self.invocations += 1
        self.stats.invocations += 1
        name = loop.name

        if self.blacklist.blocked(name, self.invocations):
            self.stats.blacklist_skips += 1
            return self._scalar(
                loop, memory, live_ins,
                reason=f"blacklisted: {self.blacklist.reason_for(name)}")

        image = self._image_for(loop)
        if isinstance(image, TranslationResult):
            # Translation is deterministic — retrying cannot succeed.
            self.blacklist.ban(name, image.failure or "translation failed")
            return self._scalar(loop, memory, live_ins,
                                reason=image.failure)

        if not self.guard.checked:
            accel_mem = memory.clone()
            try:
                from repro.accelerator.jit import execute_pipelined
                run = execute_pipelined(image, accel_mem, live_ins,
                                        trip_count=trip_count,
                                        fault_hook=fault_hook)
            except AcceleratorFault as exc:
                # Structural faults trip even unguarded; recover anyway.
                self.stats.faults_caught += 1
                self.deoptimize(name, str(exc))
                return self._scalar(loop, memory, live_ins,
                                    reason=f"accelerator fault: {exc}",
                                    detected=True)
            memory.restore_from(accel_mem)
            self.stats.accelerated += 1
            return GuardedRun(name, "accelerator", False, None,
                              run.live_outs, cycles=run.cycles)

        outcome = differential_check(
            image, memory, live_ins, trip_count=trip_count,
            fault_hook=fault_hook,
            cross_check_interpreter=self.guard.cross_check_interpreter)
        self.stats.checked += 1
        if outcome.verdict.ok:
            memory.restore_from(outcome.accel_memory)
            self.stats.accelerated += 1
            assert outcome.accel_run is not None
            return GuardedRun(name, "accelerator", False, outcome.verdict,
                              outcome.accel_run.live_outs,
                              cycles=outcome.accel_run.cycles)

        # Divergence: deoptimize and commit the scalar reference.
        self.stats.mismatches += 1
        if any(m.kind == "fault" for m in outcome.verdict.mismatches):
            self.stats.faults_caught += 1
        entry = self.deoptimize(name, outcome.verdict.describe())
        memory.restore_from(outcome.scalar_memory)
        self.stats.scalar_runs += 1
        state = ("permanent scalar fallback" if entry.permanent else
                 f"benched until invocation {entry.release_at}")
        return GuardedRun(
            name, "scalar", True, outcome.verdict,
            outcome.scalar_result.live_outs,
            reason=f"deoptimized ({entry.failures} strikes, {state}): "
                   f"{outcome.verdict.describe()}")


__all__ = [
    "BlacklistEntry",
    "DifferentialOutcome",
    "GuardConfig",
    "GuardMismatch",
    "GuardStats",
    "GuardVerdict",
    "GuardedExecutor",
    "GuardedRun",
    "LoopBlacklist",
    "differential_check",
    "interpreter_cross_check",
]
