"""Registry of every paper figure/table the reproduction can emit.

Maps figure name -> ``(description, thunk)`` where the thunk returns
the figure's formatted text.  Lives in :mod:`repro.experiments` (not
the CLI) so every driver — ``python -m repro <figure>``, the service
layer's figure requests, :func:`repro.api.run_figure`, the ``xp``
runner and the chaos harnesses — dispatches through one registry and produces
byte-identical text.  Experiment modules are imported lazily inside
each thunk: listing figures must stay instant.
"""

from __future__ import annotations

import sys
from typing import Callable

FIGURES: dict[str, tuple[str, Callable[[], str]]] = {}


def _register(name: str, description: str):
    def wrap(fn: Callable[[], str]):
        FIGURES[name] = (description, fn)
        return fn
    return wrap


@_register("fig2", "Figure 2: execution-time coverage by loop category")
def _fig2() -> str:
    from repro.experiments.fig2_coverage import format_coverage, run_coverage
    return format_coverage(run_coverage())


@_register("fig3a", "Figure 3(a): function-unit design-space sweep")
def _fig3a() -> str:
    from repro.experiments.sweeps import format_series, run_fu_sweep
    return format_series("Figure 3(a): function unit sweep", run_fu_sweep())


@_register("fig3b", "Figure 3(b): register design-space sweep")
def _fig3b() -> str:
    from repro.experiments.sweeps import format_series, run_register_sweep
    return format_series("Figure 3(b): register sweep", run_register_sweep())


@_register("fig4a", "Figure 4(a): memory-stream design-space sweep")
def _fig4a() -> str:
    from repro.experiments.sweeps import format_series, run_stream_sweep
    return format_series("Figure 4(a): memory stream sweep",
                         run_stream_sweep())


@_register("fig4b", "Figure 4(b): maximum-II design-space sweep")
def _fig4b() -> str:
    from repro.experiments.sweeps import format_series, run_max_ii_sweep
    return format_series("Figure 4(b): maximum II sweep",
                         run_max_ii_sweep())


@_register("design", "Section 3.2: proposed design point + area table")
def _design() -> str:
    from repro.experiments.design_point import (
        format_area_table,
        format_design_point,
        run_area_table,
        run_design_point,
    )
    return (format_design_point(run_design_point()) + "\n\n"
            + format_area_table(run_area_table()))


@_register("fig6", "Figure 6: speedup vs translation overhead")
def _fig6() -> str:
    from repro.experiments.fig6_overhead import (
        format_overhead,
        run_overhead_sweep,
    )
    return format_overhead(run_overhead_sweep())


@_register("fig7", "Figure 7: impact of static loop transformations")
def _fig7() -> str:
    from repro.experiments.fig7_transforms import (
        format_transforms,
        run_transform_comparison,
    )
    return format_transforms(run_transform_comparison())


@_register("fig8", "Figure 8: translation penalty per loop")
def _fig8() -> str:
    from repro.experiments.fig8_translation import (
        format_translation,
        run_translation_profile,
    )
    return format_translation(run_translation_profile())


@_register("fig10", "Figure 10: static/dynamic tradeoff speedups")
def _fig10() -> str:
    from repro.experiments.fig10_speedup import (
        format_speedup_matrix,
        run_speedup_matrix,
    )
    return format_speedup_matrix(run_speedup_matrix())


@_register("static-mii", "Section 4.2: rejected static MII encoding")
def _static_mii() -> str:
    from repro.experiments.static_tradeoffs import (
        format_static_mii,
        run_static_mii_study,
    )
    return format_static_mii(run_static_mii_study())


@_register("footnote3", "Footnote 3: static priority under latency drift")
def _footnote3() -> str:
    from repro.experiments.static_tradeoffs import (
        format_footnote3,
        run_footnote3_study,
    )
    return format_footnote3(run_footnote3_study())


@_register("amortization", "Bus-latency sensitivity + trip-count crossover")
def _amortization() -> str:
    from repro.experiments.amortization import (
        format_amortization,
        run_bus_sweep,
        run_trip_crossover,
    )
    return format_amortization(run_bus_sweep(), run_trip_crossover())


@_register("speculation", "Section 2.2 extension: speculative memory support")
def _speculation() -> str:
    from repro.experiments.speculation import (
        format_speculation,
        run_speculation_study,
    )
    return format_speculation(run_speculation_study())


@_register("utilization", "measured kernel utilization (overlapped executor)")
def _utilization() -> str:
    from repro.experiments.utilization import (
        format_utilization,
        run_utilization,
    )
    return format_utilization(run_utilization())


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
    return {name: fn for name, (_description, fn) in FIGURES.items()
            if name != "all"}
