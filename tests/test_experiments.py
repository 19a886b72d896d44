"""Experiment modules: reduced-suite smoke tests with shape assertions.

Full-suite numbers live in the benchmark harness (``benchmarks/``);
these tests run each experiment on a 4-benchmark subset and assert the
qualitative claims the paper makes.
"""

import pytest

from repro import perf
from repro.accelerator import INFINITE_LA, PROPOSED_LA
from repro.api import fraction_of_infinite, sweep
from repro.errors import WorkerTaskError
from repro.experiments.common import (
    annotate_benchmark,
    arithmetic_mean,
    baseline_runs,
    format_table,
    geometric_mean,
    speedups,
    sweep_point,
)
from repro.experiments.design_point import run_area_table, run_design_point
from repro.experiments.fig2_coverage import format_coverage, run_coverage
from repro.experiments.fig6_overhead import OVERHEAD_POINTS, run_overhead_sweep
from repro.experiments.fig7_transforms import run_transform_comparison
from repro.experiments.fig8_translation import (
    run_translation_profile,
    suite_average,
)
from repro.experiments.fig10_speedup import run_speedup_matrix
from repro.workloads.suite import (
    all_benchmarks,
    benchmark_by_name,
    control_benchmarks,
    media_fp_benchmarks,
)


@pytest.fixture(scope="module")
def subset():
    names = ["rawdaudio", "g721enc", "pegwitenc", "171.swim"]
    return [benchmark_by_name(n) for n in names]


# -- common helpers ---------------------------------------------------------------

def test_means():
    assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
    assert arithmetic_mean([1.0, 3.0]) == 2.0
    assert geometric_mean([]) == 0.0


def test_format_table_alignment():
    text = format_table(["a", "bbbb"], [(1, 2), (333, 4)], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bbbb" in lines[1]


def test_speedups_and_baseline(subset):
    base = baseline_runs(subset)
    assert set(base) == {b.name for b in subset}
    same = speedups(base, base)
    assert all(v == pytest.approx(1.0) for v in same.values())


def test_annotate_benchmark_copies(subset):
    bench = subset[0]
    annotated = annotate_benchmark(bench)
    assert annotated is not bench
    from repro.isa import STATIC_PRIORITY_KEY
    assert all(STATIC_PRIORITY_KEY in k.annotations
               for k in annotated.kernels)
    assert all(STATIC_PRIORITY_KEY not in k.annotations
               for k in bench.kernels)


# -- Figure 2 ----------------------------------------------------------------------

def test_coverage_rows_sum_to_one():
    for row in run_coverage():
        total = row.modulo + row.speculation + row.subroutine + row.acyclic
        assert total == pytest.approx(1.0)


def test_coverage_media_vs_specint_split():
    rows = run_coverage()
    media = [r.modulo for r in rows if r.suite in ("mediabench", "specfp")]
    spec = [r.modulo for r in rows if r.suite == "specint"]
    # The paper's headline: media/FP mostly modulo schedulable; the
    # SPECint controls mostly not.
    assert arithmetic_mean(media) > 0.75
    assert arithmetic_mean(spec) < 0.30


def test_coverage_formatting():
    text = format_coverage(run_coverage(control_benchmarks()))
    assert "modulo%" in text and "164.gzip" in text


# -- sweeps ------------------------------------------------------------------------

def test_fraction_of_infinite_bounds(subset):
    frac = fraction_of_infinite(PROPOSED_LA, subset)
    assert 0.0 < frac <= 1.0
    assert fraction_of_infinite(INFINITE_LA, subset) == pytest.approx(
        1.0, abs=1e-6)


def test_int_unit_sweep_monotone(subset):
    series = sweep("IEx", [1, 2, 4, 8],
                   lambda k: INFINITE_LA.with_(num_int_units=k), subset)
    for earlier, later in zip(series.fractions, series.fractions[1:]):
        assert later >= earlier - 1e-9


def test_cca_reduces_int_unit_requirement(subset):
    # Figure 3(a)'s key claim: adding one CCA raises the fraction
    # achieved at a small integer-unit count.
    without = fraction_of_infinite(
        INFINITE_LA.with_(num_int_units=2, num_ccas=0), subset)
    with_cca = fraction_of_infinite(
        INFINITE_LA.with_(num_int_units=2, num_ccas=1), subset)
    assert with_cca > without


def test_register_sweep_saturates(subset):
    few = fraction_of_infinite(INFINITE_LA.with_(num_int_regs=2), subset)
    many = fraction_of_infinite(INFINITE_LA.with_(num_int_regs=64), subset)
    assert many >= few
    assert many == pytest.approx(1.0, abs=1e-6)


def test_max_ii_sweep_monotone(subset):
    series = sweep("maxII", [2, 4, 8, 16],
                   lambda k: INFINITE_LA.with_(max_ii=k), subset)
    for earlier, later in zip(series.fractions, series.fractions[1:]):
        assert later >= earlier - 1e-9


# -- design point -----------------------------------------------------------------------

def test_design_point_in_paper_ballpark():
    result = run_design_point()
    # Paper: 83% of infinite-resource speedup; we accept the same
    # qualitative region.
    assert 0.6 <= result.fraction_of_infinite <= 0.95
    assert result.la_area_mm2 == pytest.approx(3.8, abs=0.2)


def test_area_table_orders_designs():
    rows = dict(run_area_table())
    la = float(rows["loop accelerator (proposed)"])
    arm = float(rows["ARM11 (1-issue baseline)"])
    a8 = float(rows["Cortex-A8 (2-issue)"])
    # "the loop accelerator could be added ... for less than the cost
    # of a second simple core".
    assert la < arm < a8
    assert la + arm < a8 + arm


# -- Figure 6 ----------------------------------------------------------------------------

def test_overhead_sweep_monotone_decreasing(subset):
    series = run_overhead_sweep(subset)
    for line in series:
        for earlier, later in zip(line.mean_speedups,
                                  line.mean_speedups[1:]):
            assert later <= earlier + 1e-9


def test_higher_miss_rate_hurts_more(subset):
    series = {s.miss_rate: s for s in run_overhead_sweep(subset)}
    idx = OVERHEAD_POINTS.index(100_000)
    assert series[0.10].mean_speedups[idx] < \
        series[0.0].mean_speedups[idx]


# -- Figure 7 -----------------------------------------------------------------------------

def test_transforms_matter(subset):
    rows = run_transform_comparison(subset)
    mean_frac = arithmetic_mean([r.fraction for r in rows])
    # "not performing loop transformations reduced speedup attained by
    # the accelerator by 75%" — we assert the direction and rough size.
    assert mean_frac < 0.5
    for row in rows:
        assert row.speedup_without <= row.speedup_with + 1e-9


# -- Figure 8 ------------------------------------------------------------------------------

def test_translation_profile_distribution():
    # The phase distribution is calibrated over the FULL suite
    # (Figure 8: priority ~69%, CCA ~20%, scheduling < 3%).
    profiles = run_translation_profile()
    avg = suite_average(profiles)
    total = sum(avg.values())
    assert avg["priority"] / total == pytest.approx(0.69, abs=0.05)
    assert avg["cca"] / total == pytest.approx(0.20, abs=0.05)
    assert avg["scheduling"] / total < 0.05


def test_translation_average_near_100k():
    profiles = run_translation_profile()
    avg = suite_average(profiles)
    assert sum(avg.values()) == pytest.approx(100_000, rel=0.15)


# -- Figure 10 ------------------------------------------------------------------------------

def test_speedup_matrix_mode_ordering(subset):
    matrix = run_speedup_matrix(subset)
    assert matrix.mean("no_penalty") >= matrix.mean("static")
    assert matrix.mean("static") >= matrix.mean("height")
    assert matrix.mean("height") >= matrix.mean("fully_dynamic") - 0.05
    assert matrix.mean("no_penalty") > matrix.mean("issue2")
    assert matrix.mean("no_penalty") > matrix.mean("issue4")


def test_speedup_matrix_complete(subset):
    matrix = run_speedup_matrix(subset)
    for mode in ("no_penalty", "fully_dynamic", "height", "static",
                 "issue2", "issue4"):
        assert set(matrix.by_mode[mode]) == {b.name for b in subset}


# -- consolidated report ---------------------------------------------------------

def test_report_sections_registered():
    from repro.experiments.figures import FIGURES
    sections = [f for f in FIGURES.values() if f.section is not None]
    titles = [f.section for f in sections]
    assert "Figure 2" in titles and "Figure 10" in titles
    assert len(sections) >= 12


def test_full_report_text_is_identical_between_runs(monkeypatch):
    """Section timings go to *progress*, never into the document."""
    from repro.experiments import report
    from repro.experiments.figures import Figure
    clock = iter(range(0, 1000, 7))
    monkeypatch.setattr(report.time, "time", lambda: float(next(clock)))
    monkeypatch.setattr(report.figures, "FIGURES", {
        "first": Figure("d1", lambda: "one", "First"),
        "unreported": Figure("d2", lambda: "never"),
        "second": Figure("d3", lambda: "two\nlines", "Second")})
    messages: list[str] = []
    first = report.full_report(progress=messages.append)
    second = report.full_report()
    assert first == second
    assert "[" not in first and "one" in first and "two\nlines" in first
    assert "never" not in first
    assert messages == ["First", "First  [7.0s]", "Second",
                        "Second  [7.0s]"]


def test_sweep_failure_names_the_originating_point():
    """A failing sweep point surfaces typed with the series label and x
    value attached, never silently swallowed."""
    perf.clear_caches()
    try:
        with pytest.raises(WorkerTaskError) as info:
            # A nonsense config blows up deep inside the VM; the error
            # must climb out with every sweep level's coordinates.
            sweep("IEx demo", [1], lambda x: object(),
                  benchmarks=media_fp_benchmarks()[:1])
    finally:
        perf.clear_caches()
    assert info.value.kind == "worker-task"
    assert info.value.point == "IEx demo[x=1]"
    # The inner level (run_suite) contributed the benchmark name.
    inner = info.value.__cause__
    assert isinstance(inner, WorkerTaskError)
    assert inner.point.startswith("benchmark ")


def test_sweep_point_raises_typed_failures():
    """A failure inside a sweep point surfaces as WorkerTaskError with
    the point's index and label attached and the real exception
    chained."""
    with pytest.raises(WorkerTaskError) as info:
        for index, x in enumerate([1, 0]):
            with sweep_point(f"recip[x={x}]", index):
                1 // x
    assert isinstance(info.value.__cause__, ZeroDivisionError)
    assert info.value.item_index == 1
    assert info.value.point == "recip[x=0]"
    assert info.value.kind == "worker-task"
    assert "[ZeroDivisionError]" in str(info.value)
