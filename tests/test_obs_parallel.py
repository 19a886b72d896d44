"""Deterministic metrics across repeat runs of one figure pass.

Translation counts and per-phase unit totals are exact: every benchmark
is profiled once per run, and cached translations replay their meter
charges exactly.  So two cold runs of the Figure 8 profile must report
identical counters, and two traced runs identical trace-file spans.
"""

from __future__ import annotations

from repro import obs, perf
from repro.obs.stats import load_trace, phase_totals, span_records
from repro.vm.costmodel import PHASES
from repro.workloads.suite import media_fp_benchmarks

#: Counters whose totals are fixed by the work done.  (transcache.*
#: hit/miss counters are deliberately absent — they describe the cache,
#: not the work.)
DETERMINISTIC = ("translator.translations", "translator.ok",
                 *(f"translator.units.{p}" for p in PHASES))


def _run_profile() -> dict:
    from repro.experiments.fig8_translation import run_translation_profile
    obs.reset_metrics()
    perf.clear_caches()
    run_translation_profile(benchmarks=media_fp_benchmarks()[:6])
    return obs.metrics_snapshot()


def test_counters_reproducible_across_repeat_runs():
    first = _run_profile()
    second = _run_profile()
    for name in DETERMINISTIC:
        assert first["counters"].get(name) == \
            second["counters"].get(name), name
    assert first["counters"]["translator.translations"] > 0


def test_trace_file_spans_deterministic_across_job_counts(tmp_path):
    # There is one job count now; two traced cold runs of the same
    # profile must carry the same span population and phase totals.
    from repro.experiments.fig8_translation import run_translation_profile

    def traced(path: str):
        obs.reset_metrics()
        perf.clear_caches()
        obs.start_trace(path)
        try:
            run_translation_profile(benchmarks=media_fp_benchmarks()[:6])
        finally:
            obs.stop_trace()
        return load_trace(path)

    first = traced(str(tmp_path / "first.jsonl"))
    second = traced(str(tmp_path / "second.jsonl"))
    # One translate span per kernel in each trace file.
    kernels = sum(len(b.kernels) for b in media_fp_benchmarks()[:6])
    for records in (first, second):
        spans = span_records(records, name="translate",
                             component="translator")
        assert len(spans) == kernels
    # And identical exact per-phase totals.
    assert phase_totals(first) == phase_totals(second)
