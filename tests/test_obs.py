"""The observability layer: metrics registry, spans, trace files.

Covers the core contracts: near-zero-cost no-op spans when tracing is
off, exact meter-unit attribution on spans, incident-log-compatible
JSONL export, schema validation, and — the load-bearing guarantee —
figure text byte-identical with tracing on or off, with the trace's
per-phase totals reconciling exactly with the figure's.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.accelerator.config import PROPOSED_LA
from repro.obs.schema import validate_record, validate_trace_file
from repro.obs.stats import (
    format_trace_stats,
    load_trace,
    phase_totals,
    span_records,
)
from repro.vm.costmodel import TranslationMeter
from repro.vm.translator import translate_loop
from repro.workloads import kernels as K
from repro.workloads.suite import media_fp_benchmarks


# -- metrics registry ---------------------------------------------------------

class TestMetricsRegistry:
    def test_counters_accumulate(self):
        obs.inc("x")
        obs.inc("x", 4)
        assert obs.metrics_snapshot()["counters"]["x"] == 5

    def test_histograms_keep_exact_values(self):
        for value in (3, 3, 7):
            obs.observe("h", value)
        assert obs.metrics_snapshot()["histograms"]["h"] == {3: 2, 7: 1}
        assert obs.metrics().summary("h") == {
            "count": 3, "sum": 13, "min": 3, "max": 7, "mean": 13 / 3}

    def test_ms_bucket_bounds_a_duration_histogram(self):
        """200 distinct durations from 10 us to about half an hour keep at
        most 21 keys: each lands in its power-of-two millisecond
        bucket, from 1 up to 2**20."""
        durations = [0.01 * 1.1 ** i for i in range(200)]
        assert len(set(durations)) == 200 and durations[-1] > 2 ** 20
        for elapsed_ms in durations:
            obs.observe("jit.compile_ms", obs.ms_bucket(elapsed_ms))
        buckets = obs.metrics_snapshot()["histograms"]["jit.compile_ms"]
        assert len(buckets) <= 21
        assert sum(buckets.values()) == 200
        assert min(buckets) == 1 and max(buckets) == 1 << 20
        assert [obs.ms_bucket(ms) for ms in (0.2, 1.0, 1.5, 64.0, 65.0)] \
            == [1, 1, 2, 64, 128]

    def test_delta_counts_increments_since_snapshot(self):
        obs.inc("a", 2)
        before = obs.metrics_snapshot()
        obs.inc("a", 3)
        obs.inc("b")
        obs.observe("h", 5)
        delta = obs.metrics_delta(before)
        assert delta == {"counters": {"a": 3, "b": 1},
                         "histograms": {"h": {5: 1}}}

    def test_delta_drops_zero_entries_and_gauges(self):
        obs.set_gauge("g", 1.5)
        before = obs.metrics_snapshot()
        obs.set_gauge("g", 2.5)
        delta = obs.metrics_delta(before)
        assert delta == {"counters": {}, "histograms": {}}


# -- spans --------------------------------------------------------------------

class TestSpans:
    def test_span_is_noop_when_tracing_off(self):
        sp = obs.span("anything", component="test")
        assert sp is obs.NULL_SPAN
        assert not sp
        with sp:
            sp.set(expensive="payload")  # no-op, no error

    def test_collect_records_spans_with_nesting(self):
        with obs.collect() as log:
            with obs.span("outer", component="test", key="v") as outer:
                assert outer  # truthy: a real span
                with obs.span("inner", component="test"):
                    pass
        assert len(log.spans()) == 2
        inner, outer = log.records  # inner exits (and records) first
        assert inner["details"]["name"] == "inner"
        assert inner["details"]["parent"] == outer["details"]["span"]
        assert outer["details"]["parent"] is None
        assert outer["details"]["attrs"] == {"key": "v"}

    def test_span_attributes_meter_units(self):
        meter = TranslationMeter()
        meter.charge("priority", 2)
        with obs.collect() as log:
            with obs.span("work", component="test", meter=meter):
                meter.charge("priority", 5)
                meter.charge("cca", 3)
        record = log.latest(name="work")
        # Only the units charged *inside* the span are attributed.
        assert record["details"]["units"] == {"priority": 5, "cca": 3}

    def test_span_records_error_attribute(self):
        with obs.collect() as log:
            with pytest.raises(ValueError):
                with obs.span("broken", component="test"):
                    raise ValueError("boom")
        record = log.latest(name="broken")
        assert record["details"]["attrs"]["error"] == "ValueError"

    def test_tracing_off_after_collect_exits(self):
        with obs.collect():
            assert obs.tracing_active()
        assert not obs.tracing_active()
        assert obs.span("post") is obs.NULL_SPAN


# -- trace files --------------------------------------------------------------

class TestTraceFiles:
    def test_start_trace_writes_schema_valid_jsonl(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        obs.start_trace(path)
        try:
            translate_loop(K.fir_filter(taps=8), PROPOSED_LA)
            obs.write_metrics_record()
        finally:
            obs.stop_trace()
        count, errors = validate_trace_file(path)
        assert errors == []
        assert count > 1
        records = load_trace(path)
        kinds = {r["kind"] for r in records}
        assert kinds == {"span", "metrics"}

    def test_start_trace_exports_env_for_workers(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        obs.start_trace(path)
        assert os.environ[obs.TRACE_ENV] == path
        obs.stop_trace()
        assert obs.TRACE_ENV not in os.environ

    def test_trace_interleaves_with_incident_records(self, tmp_path):
        # Spans share the incident-log envelope: one file, one reader.
        from repro.resilience.incidents import incident_log, read_jsonl
        path = str(tmp_path / "mixed.jsonl")
        obs.start_trace(path)
        incident_log().configure_sink(path, export_env=False)
        try:
            with obs.span("event", component="test"):
                pass
            incident_log().record("io-error", "test", "synthetic")
        finally:
            incident_log().configure_sink(None, export_env=False)
            obs.stop_trace()
        records = read_jsonl(path)
        assert {r["kind"] for r in records} == {"span", "io-error"}
        for record in records:
            assert validate_record(record) == []

    def test_lenient_reader_skips_torn_lines(self, tmp_path):
        path = str(tmp_path / "torn.jsonl")
        obs.start_trace(path, export_env=False)
        try:
            with obs.span("ok", component="test"):
                pass
        finally:
            obs.stop_trace()
        with open(path, "a") as handle:
            handle.write('{"seq": 1, "ts": 2, "kind": "span", "comp')
        assert len(load_trace(path)) == 1
        count, errors = validate_trace_file(path)  # strict mode objects
        assert count == 1
        assert len(errors) == 1 and "invalid JSON" in errors[0]


# -- schema validation --------------------------------------------------------

class TestSchema:
    def _span_record(self, **overrides):
        details = {"name": "x", "pid": 1, "span": 0, "parent": None,
                   "dur_s": 0.5, "attrs": {}}
        details.update(overrides)
        return {"seq": 0, "ts": 1.0, "kind": "span", "component": "c",
                "message": "m", "details": details}

    def test_valid_span_record(self):
        assert validate_record(self._span_record()) == []

    def test_missing_envelope_field(self):
        record = self._span_record()
        del record["seq"]
        assert any("seq" in e for e in validate_record(record))

    def test_bool_is_not_a_number(self):
        record = self._span_record(dur_s=True)
        assert any("dur_s" in e for e in validate_record(record))

    def test_parent_field_required_even_when_null(self):
        record = self._span_record()
        del record["details"]["parent"]
        assert any("parent" in e for e in validate_record(record))

    def test_units_must_be_integral(self):
        record = self._span_record(units={"priority": 1.5})
        assert any("units" in e for e in validate_record(record))

    def test_unknown_kind_checks_envelope_only(self):
        record = {"seq": 0, "ts": 1.0, "kind": "io-error",
                  "component": "transcache", "message": "m", "details": {}}
        assert validate_record(record) == []


# -- the byte-identical figure guarantee --------------------------------------

class TestFigureInvariance:
    BENCHES = None  # computed once; a small subset keeps this fast

    def _fig8_text(self):
        from repro.experiments.fig8_translation import (
            format_translation,
            run_translation_profile,
        )
        benches = media_fp_benchmarks()[:4]
        return format_translation(run_translation_profile(
            benchmarks=benches))

    def test_fig8_text_identical_with_tracing_on(self, tmp_path):
        baseline = self._fig8_text()
        path = str(tmp_path / "trace.jsonl")
        obs.start_trace(path)
        try:
            traced = self._fig8_text()
            obs.write_metrics_record()
        finally:
            obs.stop_trace()
        assert traced == baseline
        count, errors = validate_trace_file(path)
        assert errors == []
        assert count > 0

    def test_trace_phase_totals_reconcile_exactly(self, tmp_path):
        from repro.experiments.fig8_translation import (
            run_translation_profile,
        )
        from repro.vm.costmodel import PHASES
        path = str(tmp_path / "trace.jsonl")
        benches = media_fp_benchmarks()[:4]
        obs.start_trace(path)
        try:
            profiles = run_translation_profile(benchmarks=benches)
        finally:
            obs.stop_trace()
        records = load_trace(path)
        # One translate span per kernel in the trace file.
        assert len(span_records(records, name="translate",
                                component="translator")) == \
            sum(len(b.kernels) for b in benches)
        _units, instructions = phase_totals(records)
        expected = {p: 0.0 for p in PHASES}
        for prof in profiles:
            for p in PHASES:
                expected[p] += prof.phase_totals[p]
        # Exact equality, not approx: integral weights make every
        # addend an exactly-representable float in any summation order.
        assert instructions == expected

    def test_stats_report_renders(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        obs.start_trace(path)
        try:
            translate_loop(K.fir_filter(taps=8), PROPOSED_LA)
            obs.write_metrics_record()
        finally:
            obs.stop_trace()
        text = format_trace_stats(load_trace(path), source=path)
        assert "Spans" in text
        assert "Translation phases" in text
        assert "Metrics: counters" in text
        assert "translator" in text

    def test_stats_surfaces_service_tier_counters(self, tmp_path):
        # Client retry behaviour, admission decisions and cluster
        # health counters get their own grouped table ahead of the
        # alphabetical dump — the failure-handling story at a glance.
        path = str(tmp_path / "trace.jsonl")
        obs.start_trace(path)
        try:
            obs.inc("net.client.retries", 3)
            obs.inc("service.admission.saturated", 2)
            obs.inc("cluster.shard_restarts")
            obs.inc("cluster.client.failovers", 4)
            obs.write_metrics_record()
        finally:
            obs.stop_trace()
        text = format_trace_stats(load_trace(path), source=path)
        assert "Service tier: client / admission / cluster" in text
        tier = text.split("Service tier")[1].split("\n\n")[0]
        assert "net.client.retries" in tier
        assert "service.admission.saturated" in tier
        assert "cluster.shard_restarts" in tier
        assert "cluster.client.failovers" in tier
