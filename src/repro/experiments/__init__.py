"""Paper-reproduction experiments — one module per figure/table.

| Paper artifact | Module |
|---|---|
| Figure 2 (coverage)            | :mod:`repro.experiments.fig2_coverage` |
| Figure 3(a)/(b), 4(a)/(b)      | :mod:`repro.experiments.sweeps` |
| Section 3.2 design point/area  | :mod:`repro.experiments.design_point` |
| Figure 6 (overhead sweep)      | :mod:`repro.experiments.fig6_overhead` |
| Figure 7 (static transforms)   | :mod:`repro.experiments.fig7_transforms` |
| Figure 8 (translation cost)    | :mod:`repro.experiments.fig8_translation` |
| Figure 10 (speedup tradeoffs)  | :mod:`repro.experiments.fig10_speedup` |
"""

from repro.experiments.common import (
    annotate_benchmark,
    arithmetic_mean,
    baseline_runs,
    format_table,
    geometric_mean,
    speedups,
)

__all__ = [
    "annotate_benchmark", "arithmetic_mean", "baseline_runs",
    "format_table", "geometric_mean", "speedups",
]
