"""Figure 8: the measured translation penalty per loop.

Translates every loop of the suite against the proposed accelerator and
reports modelled instructions per phase.  Paper anchors: ~99,716
instructions per loop on average — 69% priority calculation, 20% CCA
mapping, ResMII+RecMII ~1,250, scheduling+register assignment ~9,650
with scheduling below 3% of the total.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import obs
from repro.accelerator.config import PROPOSED_LA, LAConfig
from repro.experiments.common import format_table, fmt, sweep_point
from repro.vm.costmodel import PHASES
from repro.vm.translator import TranslationOptions, translate_loop
from repro.workloads.suite import Benchmark, media_fp_benchmarks


@dataclass
class TranslationProfile:
    """Per-benchmark average translation cost with phase breakdown.

    ``skipped`` tallies untranslatable loops by their typed failure kind
    (the :mod:`repro.errors` taxonomy) so the profile reports *why*
    coverage is incomplete, not just that it is.  A benchmark whose
    every loop failed translation still yields a profile — with
    ``loops=0``, all-zero phase data and its ``skipped`` tally intact —
    rather than vanishing from the report with its failure counts.

    ``phase_totals`` keeps the *unrounded* per-phase instruction sums in
    loop order: the translate spans in a trace file carry the same
    per-loop values, so a trace reconciles with the figure exactly (the
    default phase weights are integral, making every value and sum an
    exactly-representable float).
    """

    benchmark: str
    loops: int
    avg_instructions: float
    phase_instructions: dict[str, float] = field(default_factory=dict)
    skipped: dict[str, int] = field(default_factory=dict)
    phase_totals: dict[str, float] = field(default_factory=dict)


def _profile_one_benchmark(bench: Benchmark, config: LAConfig,
                           options: TranslationOptions
                           ) -> TranslationProfile:
    """Translate one benchmark's loops.

    Consumes the translator's own ``translate`` spans — captured
    in-process via :func:`repro.obs.collect`, no file sink needed —
    instead of reading meters directly, so the figure is built from the
    same records a trace file would carry.
    """
    totals = {p: 0.0 for p in PHASES}
    count = 0
    skipped: dict[str, int] = {}
    with obs.span("profile_benchmark", component="fig8",
                  benchmark=bench.name) as bsp:
        for loop in bench.kernels:
            with obs.collect() as log:
                translate_loop(loop, config, options)
            details = log.latest(name="translate",
                                 component="translator")["details"]
            if not details["attrs"].get("ok"):
                kind = details["attrs"].get("failure_kind") or "unknown"
                skipped[kind] = skipped.get(kind, 0) + 1
                continue
            count += 1
            for phase, instrs in details.get("instructions", {}).items():
                totals[phase] += instrs
        if bsp:
            bsp.set(loops=count, skipped=sum(skipped.values()))
    return TranslationProfile(
        benchmark=bench.name, loops=count,
        avg_instructions=sum(totals.values()) / count if count else 0.0,
        phase_instructions={p: (v / count if count else 0.0)
                            for p, v in totals.items()},
        skipped=skipped,
        phase_totals=dict(totals),
    )


def run_translation_profile(
        benchmarks: Optional[list[Benchmark]] = None,
        config: LAConfig = PROPOSED_LA,
        options: TranslationOptions = TranslationOptions(),
) -> list[TranslationProfile]:
    benches = media_fp_benchmarks() if benchmarks is None else benchmarks
    profiles = []
    for index, bench in enumerate(benches):
        with sweep_point(bench.name, index):
            profiles.append(_profile_one_benchmark(bench, config, options))
    return profiles


def suite_average(profiles: list[TranslationProfile]) -> dict[str, float]:
    """Loop-weighted suite-wide phase averages (instructions/loop)."""
    totals = {p: 0.0 for p in PHASES}
    loops = 0
    for prof in profiles:
        loops += prof.loops
        for p in PHASES:
            totals[p] += prof.phase_instructions[p] * prof.loops
    return {p: totals[p] / max(loops, 1) for p in PHASES}


def format_translation(profiles: list[TranslationProfile]) -> str:
    headers = ["benchmark", "loops", "avg instr"] + list(PHASES)
    rows = []
    for prof in profiles:
        rows.append([prof.benchmark, prof.loops,
                     f"{prof.avg_instructions:,.0f}"]
                    + [f"{prof.phase_instructions[p]:,.0f}" for p in PHASES])
    avg = suite_average(profiles)
    total = sum(avg.values())
    rows.append(["AVERAGE", "", f"{total:,.0f}"]
                + [f"{avg[p]:,.0f}" for p in PHASES])
    if total > 0:
        shares = (
            f"\npriority share {fmt(100 * avg['priority'] / total, 1)}% "
            f"(paper 69%), CCA share {fmt(100 * avg['cca'] / total, 1)}% "
            f"(paper 20%), ResMII+RecMII "
            f"{avg['resmii'] + avg['recmii']:,.0f} (paper ~1,250), "
            f"scheduling+regalloc "
            f"{avg['scheduling'] + avg['regalloc']:,.0f} (paper ~9,650)")
    else:
        shares = "\nno loops translated"
    skipped: dict[str, int] = {}
    for prof in profiles:
        for kind, n in prof.skipped.items():
            skipped[kind] = skipped.get(kind, 0) + n
    if skipped:
        shares += ("\nuntranslated loops by failure kind: "
                   + ", ".join(f"{kind}={n}"
                               for kind, n in sorted(skipped.items())))
    return format_table(headers, rows,
                        title="Figure 8: translation penalty per loop "
                              "(modelled instructions)") + shares
