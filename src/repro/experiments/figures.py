"""Registry of every paper figure/table the reproduction can emit.

Maps figure name -> :class:`Figure`: a description, a thunk returning
the figure's formatted text, and the figure's section title in the full
report.  Lives in :mod:`repro.experiments` (not the CLI) so every
driver — ``python -m repro <figure>``, ``python -m repro all``
(:func:`repro.experiments.report.full_report`), the service layer's
figure requests, :func:`repro.api.run_figure`, the ``xp`` runner and
the chaos harnesses — dispatches through one registry and produces
byte-identical text.  Experiment modules are imported lazily inside
each thunk: listing figures must stay instant.
"""

from __future__ import annotations

import sys
from typing import Callable, NamedTuple, Optional


class Figure(NamedTuple):
    """One registered figure."""

    description: str
    fn: Callable[[], str]
    #: Section title in the full report, in registration order; None
    #: keeps the entry out of the report.
    section: Optional[str] = None


FIGURES: dict[str, Figure] = {}

#: The Figure 3/4 design-space sweeps.
SWEEP_FIGURES = ("fig3a", "fig3b", "fig4a", "fig4b")


def _register(name: str, description: str,
              section: Optional[str] = None):
    def wrap(fn: Callable[[], str]):
        FIGURES[name] = Figure(description, fn, section)
        return fn
    return wrap


@_register("fig2", "Figure 2: execution-time coverage by loop category",
           "Figure 2")
def _fig2() -> str:
    from repro.experiments.fig2_coverage import format_coverage, run_coverage
    return format_coverage(run_coverage())


@_register("fig3a", "Figure 3(a): function-unit design-space sweep",
           "Figure 3(a)")
def _fig3a() -> str:
    from repro.experiments.sweeps import format_series, run_fu_sweep
    return format_series("Figure 3(a): function unit sweep", run_fu_sweep())


@_register("fig3b", "Figure 3(b): register design-space sweep",
           "Figure 3(b)")
def _fig3b() -> str:
    from repro.experiments.sweeps import format_series, run_register_sweep
    return format_series("Figure 3(b): register sweep", run_register_sweep())


@_register("fig4a", "Figure 4(a): memory-stream design-space sweep",
           "Figure 4(a)")
def _fig4a() -> str:
    from repro.experiments.sweeps import format_series, run_stream_sweep
    return format_series("Figure 4(a): memory stream sweep",
                         run_stream_sweep())


@_register("fig4b", "Figure 4(b): maximum-II design-space sweep",
           "Figure 4(b)")
def _fig4b() -> str:
    from repro.experiments.sweeps import format_series, run_max_ii_sweep
    return format_series("Figure 4(b): maximum II sweep",
                         run_max_ii_sweep())


@_register("design", "Section 3.2: proposed design point + area table",
           "Section 3.2 design point")
def _design() -> str:
    from repro.experiments.design_point import (
        format_area_table,
        format_design_point,
        run_area_table,
        run_design_point,
    )
    return (format_design_point(run_design_point()) + "\n\n"
            + format_area_table(run_area_table()))


@_register("fig6", "Figure 6: speedup vs translation overhead",
           "Figure 6")
def _fig6() -> str:
    from repro.experiments.fig6_overhead import (
        format_overhead,
        run_overhead_sweep,
    )
    return format_overhead(run_overhead_sweep())


@_register("fig7", "Figure 7: impact of static loop transformations",
           "Figure 7")
def _fig7() -> str:
    from repro.experiments.fig7_transforms import (
        format_transforms,
        run_transform_comparison,
    )
    return format_transforms(run_transform_comparison())


@_register("fig8", "Figure 8: translation penalty per loop",
           "Figure 8")
def _fig8() -> str:
    from repro.experiments.fig8_translation import (
        format_translation,
        run_translation_profile,
    )
    return format_translation(run_translation_profile())


@_register("fig10", "Figure 10: static/dynamic tradeoff speedups",
           "Figure 10")
def _fig10() -> str:
    from repro.experiments.fig10_speedup import (
        format_speedup_matrix,
        run_speedup_matrix,
    )
    return format_speedup_matrix(run_speedup_matrix())


@_register("static-mii", "Section 4.2: rejected static MII encoding",
           "Static MII tradeoff (Section 4.2)")
def _static_mii() -> str:
    from repro.experiments.static_tradeoffs import (
        format_static_mii,
        run_static_mii_study,
    )
    return format_static_mii(run_static_mii_study())


@_register("footnote3", "Footnote 3: static priority under latency drift",
           "Footnote 3 (priority under latency drift)")
def _footnote3() -> str:
    from repro.experiments.static_tradeoffs import (
        format_footnote3,
        run_footnote3_study,
    )
    return format_footnote3(run_footnote3_study())


@_register("speculation", "Section 2.2 extension: speculative memory support",
           "Speculation support (Section 2.2's road not taken)")
def _speculation() -> str:
    from repro.experiments.speculation import (
        format_speculation,
        run_speculation_study,
    )
    return format_speculation(run_speculation_study())


@_register("utilization", "measured kernel utilization (overlapped executor)",
           "Kernel utilization (overlapped execution)")
def _utilization() -> str:
    from repro.experiments.utilization import (
        format_utilization,
        run_utilization,
    )
    return format_utilization(run_utilization())


@_register("amortization", "Bus-latency sensitivity + trip-count crossover",
           "Amortization (bus latency & trip-count crossover)")
def _amortization() -> str:
    from repro.experiments.amortization import (
        format_amortization,
        run_bus_sweep,
        run_trip_crossover,
    )
    return format_amortization(run_bus_sweep(), run_trip_crossover())


@_register("all", "run every experiment and print one full report")
def _all() -> str:
    from repro.experiments.report import full_report
    return full_report(progress=lambda title: print(f"... {title}",
                                                    file=sys.stderr))


def benchable_figures() -> dict[str, Callable[[], str]]:
    """The figures a benchmark run may time: every registered figure
    except the ``all`` meta-entry (it is a report over the others, not
    a design point).  The one registry — a figure registered above is
    automatically benchable."""
    return {name: figure.fn for name, figure in FIGURES.items()
            if name != "all"}
