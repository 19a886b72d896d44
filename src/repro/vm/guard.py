"""Guarded execution: differential verification and deoptimization.

The virtualised contract (Section 4.1) says acceleration may never
change program semantics.  The schedulability check enforces that
*statically*; this module enforces it *dynamically*: in "checked" mode
every accelerated invocation also runs on the scalar interpreter over a
clone of memory, and the two executions' live-outs and touched memory
cells must be bit-identical before the accelerated results are
committed.  On divergence the guard **deoptimizes** — the code-cache
entry, the compiled kernels and the shared translation-cache entry are
dropped, the loop is blacklisted with capped exponential backoff (and
permanently after ``max_failures`` strikes), the scalar results are
committed, and the application keeps running with correct values.

This is the ILA-style discipline of checking accelerator execution
against an instruction-level reference, combined with the conservative
bail-out paths production dynamic translators pair with optimisation.
Every deoptimization is logged as a ``guard-violation`` incident
(:meth:`GuardedExecutor.deoptimize`), on the same surface as
infrastructure faults.  :class:`GuardedExecutor` is the one guarded
runtime: the VM's checked mode and the ``faults`` campaign both run
through it.
The ``faults`` campaign (:mod:`repro.resilience.faults`) drives bit
flips through this layer and checks each detection against that log,
to prove the guard actually catches corrupted execution.
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
from repro.resilience.incidents import record_incident
from repro.vm.codecache import CodeCache
from repro.vm.translator import (
    TranslationOptions,
    TranslationResult,
    invalidate_translation,
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
    invocations, doubling per strike up to ``2**MAX_BACKOFF_DOUBLINGS``
    times that; at ``max_failures`` strikes the loop falls back to
    scalar execution permanently.
    """

    mode: str = "off"
    max_failures: int = 3
    backoff_invocations: int = 8

    @property
    def checked(self) -> bool:
        return self.mode == "checked"

    @staticmethod
    def checked_mode(max_failures: int = 3,
                     backoff_invocations: int = 8) -> "GuardConfig":
        return GuardConfig(mode="checked", max_failures=max_failures,
                           backoff_invocations=backoff_invocations)


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


def differential_check(image: KernelImage, memory: Memory,
                       live_ins: Mapping[Reg, Value],
                       trip_count: Optional[int] = None,
                       fault_hook: Optional[FaultHook] = None
                       ) -> DifferentialOutcome:
    """Execute *image* both ways and compare observable state.

    The scalar interpreter runs ``image.loop`` (the CCA-mapped body —
    compound ops execute their inner ops atomically, so semantics equal
    the original loop) as the reference; the overlapped pipeline
    executor is the device-faithful model under test, optionally with a
    fault hook corrupting its datapath.
    """
    obs.inc("guard.diff_checks")
    mismatches: list[GuardMismatch] = []
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

#: Strikes past the fourth bench no longer than the fourth: the backoff
#: stops doubling after this many doublings, so a loop that keeps
#: failing costs a bounded number of scalar runs per strike.
MAX_BACKOFF_DOUBLINGS = 3


@dataclass
class BlacklistEntry:
    """Deoptimization record for one loop."""

    failures: int = 0
    release_at: Optional[int] = None
    permanent: bool = False
    last_reason: str = ""


class LoopBlacklist:
    """Retry/backoff policy over deoptimized loops.

    Entries are keyed by translation key
    (:meth:`GuardedExecutor.key_for`), so a strike against one loop
    never benches another loop that shares its name.  Strike *n*
    benches the loop for ``backoff * 2**min(n-1, MAX_BACKOFF_DOUBLINGS)``
    invocations; strike ``max_failures`` benches it forever.
    Deterministic translation failures go straight to permanent
    (retrying cannot change the outcome)."""

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
            doublings = min(entry.failures - 1, MAX_BACKOFF_DOUBLINGS)
            backoff = self.backoff_invocations * 2 ** doublings
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

    def key_for(self, loop: Loop) -> str:
        """The translation key naming *loop*'s blacklist entry."""
        return translation_key(loop, self.la_config, self.options)

    def _image_for(self, loop: Loop, key: Optional[str] = None,
                   translation: Optional[TranslationResult] = None
                   ) -> TranslationResult | KernelImage:
        if key is None:
            key = self.key_for(loop)
        cached = self.cache.lookup(loop.name)
        if cached is not None and cached[0] == key:
            self.stats.cache_hits += 1
            return cached[1]
        result = (translation if translation is not None else
                  translate_loop(loop, self.la_config, self.options))
        self.stats.translations += 1
        if result.ok:
            assert result.image is not None
            self.cache.insert(loop.name, (key, result.image))
            return result.image
        return result

    def deoptimize(self, loop: Loop, key: str, image: KernelImage,
                   reason: str) -> BlacklistEntry:
        """Every side effect of one deoptimization, once: drop the
        code-cache slot, the image's compiled kernels and the shared
        translation-cache entry (a translation seen to diverge is not
        re-served), count it, log a ``guard-violation`` incident whose
        ``verdict`` is *reason*, and strike the blacklist entry of
        *key*."""
        self.cache.invalidate(loop.name)
        from repro.accelerator import jit
        jit.invalidate_image(image)
        invalidate_translation(loop, self.la_config, self.options)
        obs.inc("vm.deopt")
        self.stats.deopts += 1
        record_incident(GuardViolation.kind, "guard",
                        f"deoptimized {loop.name!r}", loop=loop.name,
                        key=key, verdict=reason)
        return self.blacklist.note_failure(key, self.invocations, reason)

    # -- the main entry point ---------------------------------------------

    def run(self, loop: Loop, memory: Memory,
            live_ins: Mapping[Reg, Value],
            fault_hook: Optional[FaultHook] = None,
            trip_count: Optional[int] = None,
            translation: Optional[TranslationResult] = None) -> GuardedRun:
        """Service one invocation of *loop*, mutating *memory* correctly.

        *translation* is the caller's own translation of *loop* for this
        executor's config and options; a code-cache miss uses it instead
        of translating again (the VM passes the one it times).
        """
        self.invocations += 1
        self.stats.invocations += 1
        name = loop.name
        key = self.key_for(loop)

        if self.blacklist.blocked(key, self.invocations):
            self.stats.blacklist_skips += 1
            return self._scalar(
                loop, memory, live_ins,
                reason=f"blacklisted: {self.blacklist.reason_for(key)}")

        image = self._image_for(loop, key, translation)
        if isinstance(image, TranslationResult):
            # Translation is deterministic — retrying cannot succeed.
            self.blacklist.ban(key, image.failure or "translation failed")
            return self._scalar(loop, memory, live_ins,
                                reason=image.failure)

        if loop.annotations.get("while_loop"):
            # The pipeline executors model fixed-trip loops only: a
            # speculative while-loop runs unchecked, on the reference
            # interpreter, as LoopAccelerator.invoke runs it.
            result = Interpreter(memory).run_loop(image.loop, dict(live_ins))
            self.stats.accelerated += 1
            return GuardedRun(name, "accelerator", False, None,
                              result.live_outs)

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
                self.deoptimize(loop, key, image, str(exc))
                return self._scalar(loop, memory, live_ins,
                                    reason=f"accelerator fault: {exc}",
                                    detected=True)
            memory.restore_from(accel_mem)
            self.stats.accelerated += 1
            return GuardedRun(name, "accelerator", False, None,
                              run.live_outs)

        outcome = differential_check(
            image, memory, live_ins, trip_count=trip_count,
            fault_hook=fault_hook)
        self.stats.checked += 1
        if outcome.verdict.ok:
            memory.restore_from(outcome.accel_memory)
            self.stats.accelerated += 1
            assert outcome.accel_run is not None
            return GuardedRun(name, "accelerator", False, outcome.verdict,
                              outcome.accel_run.live_outs)

        # Divergence: deoptimize and commit the scalar reference.
        self.stats.mismatches += 1
        if any(m.kind == "fault" for m in outcome.verdict.mismatches):
            self.stats.faults_caught += 1
        entry = self.deoptimize(loop, key, image,
                                outcome.verdict.describe())
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
    "MAX_BACKOFF_DOUBLINGS",
    "differential_check",
]
