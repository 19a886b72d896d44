"""Design-space exploration sweeps (Figures 3 and 4, Section 3.1).

"The baseline architecture in our design space exploration assumes a
hypothetical LA with infinite resources ... Architectural parameters
were then individually varied to determine what fraction of the
infinite-resources speedup was attainable using finite resources."

Each sweep point produces the mean (over the media/FP suite) of
``app_speedup(point) / app_speedup(infinite)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.accelerator.config import INFINITE_LA, LAConfig
from repro.cca.model import DEFAULT_CCA
from repro.cpu.pipeline import ARM11
from repro.experiments.common import (
    _run_suite,
    arithmetic_mean,
    baseline_runs,
    format_table,
    fmt,
    speedups,
    sweep_point,
)
from repro.vm.runtime import VMConfig
from repro.workloads.suite import Benchmark, media_fp_benchmarks


@dataclass
class SweepSeries:
    """One line of a design-space figure."""

    label: str
    xs: list[int]
    fractions: list[float]


def _config_vm(config: LAConfig) -> VMConfig:
    return VMConfig(cpu=ARM11, accelerator=config, charge_translation=False,
                    functional=False)


def _baseline_and_infinite(benches: list[Benchmark]) -> tuple[dict, dict]:
    """Baseline runs + infinite-resource speedups for *benches*.

    Memoised process-wide under the suite's content digest
    (:func:`~repro.experiments.common.suite_digest`) — every sweep
    series normalising against the same suite shares one computation,
    and the key cannot alias the way an ``id()``-based one could.
    """
    from repro import perf
    from repro.experiments.common import suite_digest
    key = suite_digest(benches)
    cached = perf.baseline_cache.get(key)
    if cached is None:
        base = baseline_runs(benches)
        infinite = speedups(
            base, _run_suite(_config_vm(INFINITE_LA), benchmarks=benches))
        cached = (base, infinite)
        perf.baseline_cache[key] = cached
    return cached


def _mean_fraction(config: LAConfig, benches: list[Benchmark],
                   base: dict, infinite: dict) -> float:
    """One design point's mean fraction of the infinite speedup."""
    point = speedups(base, _run_suite(_config_vm(config), benchmarks=benches))
    fractions = []
    for name in point:
        # The paper's metric: what fraction of the infinite-resource
        # speedup does the finite design attain (speedup ratio).
        fractions.append(max(0.0, min(point[name] / infinite[name], 1.0)))
    return arithmetic_mean(fractions)


def _fraction_of_infinite(config: LAConfig,
                          benchmarks: Optional[list[Benchmark]] = None
                          ) -> float:
    """Mean fraction of infinite-resource speedup under *config*."""
    benches = media_fp_benchmarks() if benchmarks is None else benchmarks
    base, infinite = _baseline_and_infinite(benches)
    return _mean_fraction(config, benches, base, infinite)


def _sweep(label: str, xs: list[int],
           make_config: Callable[[int], LAConfig],
           benchmarks: Optional[list[Benchmark]] = None) -> SweepSeries:
    """Evaluate ``make_config(x)`` for every x, in x order.

    A failing point is never silently swallowed: it surfaces as a
    typed :class:`~repro.errors.WorkerTaskError` naming the series and
    the x value that produced it (``"IEx (1 CCA)[x=8]"``).
    """
    benches = media_fp_benchmarks() if benchmarks is None else benchmarks
    base, infinite = _baseline_and_infinite(benches)
    fractions = []
    for index, x in enumerate(xs):
        with sweep_point(f"{label}[x={x}]", index):
            fractions.append(
                _mean_fraction(make_config(x), benches, base, infinite))
    return SweepSeries(label=label, xs=xs, fractions=fractions)


# -- Figure 3(a): function units ---------------------------------------------

INT_UNIT_POINTS = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32]
FP_UNIT_POINTS = [1, 2, 3, 4, 6, 8]


def run_fu_sweep(benchmarks: Optional[list[Benchmark]] = None
                 ) -> list[SweepSeries]:
    """Integer units (with and without a CCA) and FP units."""
    series = [
        _sweep("IEx (no CCA)", INT_UNIT_POINTS,
              lambda k: INFINITE_LA.with_(num_int_units=k, num_ccas=0),
              benchmarks),
        _sweep("IEx (1 CCA)", INT_UNIT_POINTS,
              lambda k: INFINITE_LA.with_(num_int_units=k, num_ccas=1,
                                          cca=DEFAULT_CCA),
              benchmarks),
        _sweep("FEx", FP_UNIT_POINTS,
              lambda k: INFINITE_LA.with_(num_fp_units=k), benchmarks),
    ]
    return series


# -- Figure 3(b): registers ------------------------------------------------------

REGISTER_POINTS = [1, 2, 4, 8, 12, 16, 24, 32, 64]


def run_register_sweep(benchmarks: Optional[list[Benchmark]] = None
                       ) -> list[SweepSeries]:
    return [
        _sweep("integer registers", REGISTER_POINTS,
              lambda k: INFINITE_LA.with_(num_int_regs=k), benchmarks),
        _sweep("floating-point registers", REGISTER_POINTS,
              lambda k: INFINITE_LA.with_(num_fp_regs=k), benchmarks),
    ]


# -- Figure 4(a): memory streams ----------------------------------------------------

LOAD_STREAM_POINTS = [1, 2, 4, 6, 8, 12, 16, 24, 32]
STORE_STREAM_POINTS = [0, 1, 2, 4, 6, 8, 12, 16]


def run_stream_sweep(benchmarks: Optional[list[Benchmark]] = None
                     ) -> list[SweepSeries]:
    return [
        _sweep("load streams", LOAD_STREAM_POINTS,
              lambda k: INFINITE_LA.with_(load_streams=k), benchmarks),
        _sweep("store streams", STORE_STREAM_POINTS,
              lambda k: INFINITE_LA.with_(store_streams=k), benchmarks),
    ]


# -- Figure 4(b): maximum II ----------------------------------------------------------

MAX_II_POINTS = [2, 4, 6, 8, 12, 16, 24, 32, 64]


def run_max_ii_sweep(benchmarks: Optional[list[Benchmark]] = None
                     ) -> list[SweepSeries]:
    return [
        _sweep("maximum II", MAX_II_POINTS,
              lambda k: INFINITE_LA.with_(max_ii=k), benchmarks),
    ]


def format_series(title: str, series: list[SweepSeries]) -> str:
    from repro.experiments.plot import Series, ascii_chart
    blocks = [title]
    for s in series:
        rows = [(x, fmt(f, 3)) for x, f in zip(s.xs, s.fractions)]
        blocks.append(format_table([s.label, "fraction of infinite"],
                                   rows))
    chart = ascii_chart(
        [Series(s.label, s.xs, s.fractions) for s in series],
        y_label="fraction of infinite-resource speedup",
        x_label=series[0].label.split(" (")[0] if series else "")
    blocks.append(chart)
    return "\n\n".join(blocks)
