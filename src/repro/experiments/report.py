"""One-shot full reproduction report.

Runs every experiment in the repository and concatenates the formatted
outputs into a single document — the programmatic equivalent of
``pytest benchmarks/ --benchmark-only -s``, usable as a library call or
via ``python -m repro all``.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

SECTIONS: list[tuple[str, Callable[[], str]]] = []


def _section(title: str):
    def wrap(fn: Callable[[], str]):
        SECTIONS.append((title, fn))
        return fn
    return wrap


@_section("Figure 2")
def _fig2() -> str:
    from repro.experiments.fig2_coverage import format_coverage, run_coverage
    return format_coverage(run_coverage())


@_section("Figure 3(a)")
def _fig3a() -> str:
    from repro.experiments.sweeps import format_series, run_fu_sweep
    return format_series("Figure 3(a): function unit sweep", run_fu_sweep())


@_section("Figure 3(b)")
def _fig3b() -> str:
    from repro.experiments.sweeps import format_series, run_register_sweep
    return format_series("Figure 3(b): register sweep",
                         run_register_sweep())


@_section("Figure 4(a)")
def _fig4a() -> str:
    from repro.experiments.sweeps import format_series, run_stream_sweep
    return format_series("Figure 4(a): memory stream sweep",
                         run_stream_sweep())


@_section("Figure 4(b)")
def _fig4b() -> str:
    from repro.experiments.sweeps import format_series, run_max_ii_sweep
    return format_series("Figure 4(b): maximum II sweep",
                         run_max_ii_sweep())


@_section("Section 3.2 design point")
def _design() -> str:
    from repro.experiments.design_point import (
        format_area_table,
        format_design_point,
        run_area_table,
        run_design_point,
    )
    return (format_design_point(run_design_point()) + "\n\n"
            + format_area_table(run_area_table()))


@_section("Figure 6")
def _fig6() -> str:
    from repro.experiments.fig6_overhead import (
        format_overhead,
        run_overhead_sweep,
    )
    return format_overhead(run_overhead_sweep())


@_section("Figure 7")
def _fig7() -> str:
    from repro.experiments.fig7_transforms import (
        format_transforms,
        run_transform_comparison,
    )
    return format_transforms(run_transform_comparison())


@_section("Figure 8")
def _fig8() -> str:
    from repro.experiments.fig8_translation import (
        format_translation,
        run_translation_profile,
    )
    return format_translation(run_translation_profile())


@_section("Figure 10")
def _fig10() -> str:
    from repro.experiments.fig10_speedup import (
        format_speedup_matrix,
        run_speedup_matrix,
    )
    return format_speedup_matrix(run_speedup_matrix())


@_section("Static MII tradeoff (Section 4.2)")
def _static_mii() -> str:
    from repro.experiments.static_tradeoffs import (
        format_static_mii,
        run_static_mii_study,
    )
    return format_static_mii(run_static_mii_study())


@_section("Footnote 3 (priority under latency drift)")
def _footnote3() -> str:
    from repro.experiments.static_tradeoffs import (
        format_footnote3,
        run_footnote3_study,
    )
    return format_footnote3(run_footnote3_study())


@_section("Speculation support (Section 2.2's road not taken)")
def _speculation() -> str:
    from repro.experiments.speculation import (
        format_speculation,
        run_speculation_study,
    )
    return format_speculation(run_speculation_study())


@_section("Kernel utilization (overlapped execution)")
def _utilization() -> str:
    from repro.experiments.utilization import (
        format_utilization,
        run_utilization,
    )
    return format_utilization(run_utilization())


@_section("Amortization (bus latency & trip-count crossover)")
def _amortization() -> str:
    from repro.experiments.amortization import (
        format_amortization,
        run_bus_sweep,
        run_trip_crossover,
    )
    return format_amortization(run_bus_sweep(), run_trip_crossover())


def full_report(progress: Optional[Callable[[str], None]] = None) -> str:
    """Run every experiment and return one formatted document.

    *progress* gets each section's title as it starts and, once done,
    the title with its elapsed seconds; the document itself carries no
    timing, so two runs return identical text.
    """
    banner = ("VEAL: Virtualized Execution Accelerator for Loops "
              "(ISCA 2008) — full reproduction report")
    parts = [banner, "=" * len(banner)]
    for title, fn in SECTIONS:
        if progress is not None:
            progress(title)
        started = time.time()
        body = fn()
        if progress is not None:
            progress(f"{title}  [{time.time() - started:.1f}s]")
        rule = "-" * 72
        parts.append(f"{rule}\n{title}\n{rule}\n{body}")
    return "\n\n".join(parts) + "\n"
