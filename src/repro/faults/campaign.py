"""Seeded fault-injection campaigns against the guarded runtime.

A campaign repeatedly invokes translated kernels through a
:class:`~repro.vm.guard.GuardedExecutor` while an injector flips one bit
per run in the register file, a stream FIFO, or a CCA output of the
overlapped pipeline executor.  For every run the final architectural
state (live-outs + touched memory) is compared against a fault-free
scalar execution of the same loop over the same data; the campaign
proves two properties:

* **No silent corruption**: every injected fault either produces final
  state bit-identical to the fault-free run (the flip landed on a dead
  or masked value — *benign*) or is detected by the differential guard,
  which deoptimizes the loop and recovers through the scalar path.
* **Full recovery**: regardless of detection, the state the application
  observes after every invocation equals the fault-free scalar run.

Campaigns are fully deterministic in their seed, so a failure
reproduces exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.accelerator import PROPOSED_LA
from repro.accelerator.config import LAConfig
from repro.cpu.interpreter import Interpreter, standard_live_ins
from repro.cpu.memory import Memory
from repro.faults.injector import FaultInjector, FaultSite, FaultSpec, SiteProfiler
from repro.ir.loop import Loop
from repro.vm.guard import GuardConfig, GuardedExecutor, differential_check
from repro.workloads import kernels as K
from repro.workloads.suite import DEFAULT_SCALARS


def default_campaign_kernels() -> list[Loop]:
    """Fixed-trip kernels that translate cleanly on the proposed LA."""
    trip = 24
    return [
        K.fir_filter(taps=6, trip_count=trip),
        K.daxpy(trip_count=trip),
        K.sad_16(trip_count=trip),
        K.adpcm_decode(trip_count=trip),
        K.quantize(trip_count=trip),
        K.checksum(trip_count=trip),
        K.upsample(trip_count=trip),
        K.stencil5(trip_count=trip),
        K.color_convert(trip_count=trip),
        K.viterbi_acs(trip_count=trip),
    ]


@dataclass(frozen=True)
class CampaignConfig:
    """One seeded fault-injection campaign.

    ``max_failures`` defaults high so kernels keep re-entering
    accelerated execution after their backoff expires (re-translation
    after deopt is part of what the campaign exercises); lower it to
    study permanent-fallback behaviour instead.
    """

    injections: int = 120
    seed: int = 2008
    accelerator: LAConfig = PROPOSED_LA
    guard: GuardConfig = GuardConfig(mode="checked", max_failures=10_000,
                                     backoff_invocations=2)


@dataclass
class InjectionRun:
    """Outcome of one injection attempt."""

    kernel: str
    spec: FaultSpec
    fired: bool
    detected: bool
    final_identical: bool
    source: str
    detail: Optional[str] = None

    @property
    def benign(self) -> bool:
        """Fault fired but never reached observable state."""
        return self.fired and not self.detected and self.final_identical

    @property
    def silent_corruption(self) -> bool:
        """The failure mode the guard exists to rule out."""
        return self.fired and not self.detected and not self.final_identical


@dataclass
class CampaignReport:
    """Aggregated campaign results, plus the executor's own stats."""

    config: CampaignConfig
    runs: list[InjectionRun] = field(default_factory=list)
    blacklist_skips: int = 0
    deopts: int = 0
    translations: int = 0
    cache_invalidations: int = 0

    @property
    def injected(self) -> int:
        return sum(1 for r in self.runs if r.fired)

    @property
    def detected(self) -> int:
        return sum(1 for r in self.runs if r.fired and r.detected)

    @property
    def benign(self) -> int:
        return sum(1 for r in self.runs if r.benign)

    @property
    def recovered(self) -> int:
        return sum(1 for r in self.runs if r.fired and r.final_identical)

    @property
    def silent_corruptions(self) -> int:
        return sum(1 for r in self.runs if r.silent_corruption)

    @property
    def ok(self) -> bool:
        """The guarantee held for every injection — and at least one
        fault actually fired (an empty campaign proves nothing)."""
        return (self.injected > 0
                and self.silent_corruptions == 0
                and self.recovered == self.injected)

    def by_site(self) -> dict[str, tuple[int, int, int]]:
        """site -> (injected, detected, benign)."""
        table: dict[str, list[int]] = {}
        for r in self.runs:
            if not r.fired:
                continue
            row = table.setdefault(r.spec.site.value, [0, 0, 0])
            row[0] += 1
            if r.detected:
                row[1] += 1
            if r.benign:
                row[2] += 1
        return {site: tuple(row) for site, row in sorted(table.items())}


def _prepare(loop: Loop, rng: np.random.Generator) -> Memory:
    """Fresh memory with every array seeded from the campaign RNG."""
    return Memory.seeded(loop.arrays, rng, ints=(-100, 100),
                         floats=(-8.0, 8.0))


def run_campaign(config: CampaignConfig = CampaignConfig(),
                 kernels: Optional[list[Loop]] = None,
                 progress: Optional[Callable[[str], None]] = None
                 ) -> CampaignReport:
    """Drive one campaign to its injection target.

    Attempts that land on a benched (blacklisted) loop run scalar
    without consuming injection budget — they are the backoff machinery
    working — and are tallied separately.
    """
    loops = kernels if kernels is not None else default_campaign_kernels()
    rng = np.random.default_rng(config.seed)
    executor = GuardedExecutor(config.accelerator, config.guard)
    report = CampaignReport(config=config)

    # Dry run every kernel once: verifies a clean translation + guard
    # pass and profiles how many injectable events each site offers.
    profiles: dict[str, dict[str, int]] = {}
    usable: list[Loop] = []
    for loop in loops:
        image = executor._image_for(loop)
        if not hasattr(image, "schedule"):
            if progress is not None:
                progress(f"skipping {loop.name}: {image.failure}")
            continue
        profiler = SiteProfiler()
        memory = _prepare(loop, np.random.default_rng(config.seed))
        live_ins = standard_live_ins(image.loop, memory, DEFAULT_SCALARS)
        outcome = differential_check(image, memory, live_ins,
                                     fault_hook=profiler)
        if not outcome.verdict.ok:
            raise AssertionError(
                f"{loop.name}: guard mismatch with no fault injected: "
                f"{outcome.verdict.describe()}")
        profiles[loop.name] = dict(profiler.site_events)
        usable.append(loop)
    if not usable:
        raise ValueError("no usable kernels for the campaign")

    attempts = 0
    max_attempts = config.injections * 20
    while len(report.runs) < config.injections and attempts < max_attempts:
        attempts += 1
        loop = usable[int(rng.integers(0, len(usable)))]
        if executor.blacklist.blocked(executor.key_for(loop),
                                      executor.invocations + 1):
            # Backoff in action: the loop runs scalar this invocation.
            memory = _prepare(loop, rng)
            live_ins = standard_live_ins(loop, memory, DEFAULT_SCALARS)
            executor.run(loop, memory, live_ins)
            report.blacklist_skips += 1
            continue
        profile = profiles[loop.name]
        sites = [s for s in ("regfile", "fifo", "cca") if profile.get(s, 0)]
        site = sites[int(rng.integers(0, len(sites)))]
        spec = FaultSpec(
            site=FaultSite(site),
            target_index=int(rng.integers(0, profile[site])),
            bit=int(rng.integers(0, 64)))
        injector = FaultInjector(spec)

        memory = _prepare(loop, rng)
        reference_mem = memory.clone()
        ref_live_ins = standard_live_ins(loop, reference_mem,
                                         DEFAULT_SCALARS)
        reference = Interpreter(reference_mem).run_loop(loop,
                                                        dict(ref_live_ins))

        live_ins = standard_live_ins(loop, memory, DEFAULT_SCALARS)
        run = executor.run(loop, memory, live_ins, fault_hook=injector)

        final_identical = (
            memory.snapshot() == reference_mem.snapshot()
            and run.live_outs == reference.live_outs)
        record = InjectionRun(
            kernel=loop.name, spec=spec, fired=injector.fired,
            detected=run.detected, final_identical=final_identical,
            source=run.source,
            detail=injector.corrupted_detail or run.reason)
        report.runs.append(record)
        if progress is not None and len(report.runs) % 25 == 0:
            progress(f"{len(report.runs)}/{config.injections} injections")

    report.deopts = executor.stats.deopts
    report.translations = executor.stats.translations
    report.cache_invalidations = executor.cache.stats.invalidations
    return report


def format_campaign(report: CampaignReport) -> str:
    """Human-readable campaign summary."""
    lines = [
        "Fault-injection campaign "
        f"(seed {report.config.seed}, guard mode "
        f"{report.config.guard.mode!r})",
        "=" * 66,
        f"  injections attempted : {len(report.runs)}",
        f"  faults fired         : {report.injected}",
        f"  detected by guard    : {report.detected}",
        f"  benign (masked/dead) : {report.benign}",
        f"  silent corruptions   : {report.silent_corruptions}",
        f"  recovered bit-exact  : {report.recovered}/{report.injected}",
        "",
        f"  deoptimizations      : {report.deopts}",
        f"  cache invalidations  : {report.cache_invalidations}",
        f"  (re)translations     : {report.translations}",
        f"  blacklist fallbacks  : {report.blacklist_skips}",
        "",
        "  per-site breakdown (injected / detected / benign):",
    ]
    for site, (inj, det, ben) in report.by_site().items():
        lines.append(f"    {site:8s} {inj:4d} / {det:4d} / {ben:4d}")
    lines.append("")
    if report.ok:
        verdict = "PASS — no silent corruption, full recovery"
    elif report.injected == 0:
        verdict = "FAIL — no faults fired (empty campaign proves nothing)"
    else:
        verdict = "FAIL — guarded-execution guarantee violated"
    lines.append("  verdict: " + verdict)
    return "\n".join(lines)
