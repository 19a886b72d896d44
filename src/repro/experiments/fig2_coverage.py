"""Figure 2: percent of execution time spent in various types of code.

For each benchmark, baseline (ARM11) cycles are attributed to four
categories: modulo-schedulable loops, loops needing speculation support
(while-loops / side exits), loops with non-inlinable subroutine calls,
and acyclic code.  Media and FP applications should land mostly in the
first category; the SPECint controls mostly in the others — exactly the
left/right split of the paper's Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.schedulability import LoopCategory, check_schedulability
from repro.cpu.pipeline import ARM11, InOrderPipeline
from repro.experiments.common import format_table, fmt
from repro.workloads.suite import Benchmark, all_benchmarks


@dataclass
class CoverageRow:
    """One benchmark's Figure 2 bar."""

    benchmark: str
    suite: str
    modulo: float
    speculation: float
    subroutine: float
    acyclic: float


def run_coverage(benchmarks: list[Benchmark] | None = None
                 ) -> list[CoverageRow]:
    """Classify every benchmark's baseline time per Figure 2."""
    benches = all_benchmarks() if benchmarks is None else benchmarks
    pipe = InOrderPipeline(ARM11)
    rows: list[CoverageRow] = []
    for bench in benches:
        per_cat = {LoopCategory.MODULO: 0.0, LoopCategory.SPECULATION: 0.0,
                   LoopCategory.SUBROUTINE: 0.0}
        for loop in bench.kernels:
            report = check_schedulability(loop)
            category = report.category
            if category is LoopCategory.MALFORMED:
                category = LoopCategory.SPECULATION
            cycles = pipe.loop_cycles(loop) * loop.invocations
            per_cat[category] = per_cat.get(category, 0.0) + cycles
        acyclic = bench.acyclic_arm11_cycles()
        total = sum(per_cat.values()) + acyclic
        rows.append(CoverageRow(
            benchmark=bench.name,
            suite=bench.suite,
            modulo=per_cat[LoopCategory.MODULO] / total,
            speculation=per_cat[LoopCategory.SPECULATION] / total,
            subroutine=per_cat[LoopCategory.SUBROUTINE] / total,
            acyclic=acyclic / total,
        ))
    return rows


def format_coverage(rows: list[CoverageRow]) -> str:
    table_rows = [(r.benchmark, r.suite, fmt(100 * r.modulo, 1),
                   fmt(100 * r.speculation, 1), fmt(100 * r.subroutine, 1),
                   fmt(100 * r.acyclic, 1)) for r in rows]
    media = [r.modulo for r in rows if r.suite in ("mediabench", "specfp")]
    control = [r.modulo for r in rows if r.suite == "specint"]
    summary = (
        f"\nmean modulo-schedulable time: media/FP "
        f"{fmt(100 * sum(media) / max(len(media), 1), 1)}%  vs  SPECint "
        f"{fmt(100 * sum(control) / max(len(control), 1), 1)}%")
    return format_table(
        ["benchmark", "suite", "modulo%", "speculation%", "subroutine%",
         "acyclic%"],
        table_rows,
        title="Figure 2: execution-time coverage by loop category",
    ) + summary
