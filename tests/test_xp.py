"""The experiment manager: configs, run store, aggregation, the gate."""

from __future__ import annotations

import json
import os

import pytest

import repro
import repro.xp as xp
from repro.api import Settings
from repro.errors import SettingsError
from repro.xp import store
from repro.xp.aggregate import aggregate_records, quantile, summarize
from repro.xp.compare import compare_aggregate
from repro.xp.config import Config


def fake_registry():
    return {"f1": lambda: "text-one", "f2": lambda: "text-two"}


def run_fake(tmp_path, name="case", repeat=3, registry=None,
             figures=("f1", "f2"), **axes):
    config = Config(name=name, figures=figures, **axes)
    return xp.run_config(config, repeat=repeat, directory=str(tmp_path),
                         registry=registry or fake_registry())


# -- Config -------------------------------------------------------------------

class TestConfig:
    def test_hash_and_digest_stability(self):
        a = Config(name="x", figures=("f1",), jobs=2)
        b = Config(name="x", figures=("f1",), jobs=2)
        assert a == b and hash(a) == hash(b)
        assert xp.config_digest(a) == xp.config_digest(b)

    def test_digest_changes_with_any_axis(self):
        base = Config(name="x", figures=("f1",))
        for changed in (base.with_(jobs=2), base.with_(engine=1),
                        base.with_(cache="disk"), base.with_(trace=True),
                        base.with_(figures=("f1", "f2")),
                        base.with_(name="y")):
            assert xp.config_digest(changed) != xp.config_digest(base)

    def test_description_excluded_from_identity(self):
        a = Config(name="x", figures=("f1",), description="one")
        b = Config(name="x", figures=("f1",), description="two")
        assert a == b
        assert xp.config_digest(a) == xp.config_digest(b)

    def test_round_trip_through_json(self):
        config = Config(name="x", kind="service", workers=(1, 2),
                        shards=(2,), clients=4)
        data = json.loads(json.dumps(config.asdict()))
        rebuilt = Config(**{**data,
                            "figures": tuple(data["figures"]),
                            "workers": tuple(data["workers"]),
                            "shards": tuple(data["shards"])})
        assert rebuilt == config
        assert xp.config_digest(rebuilt) == xp.config_digest(config)

    def test_from_settings_bridges_the_env_knobs(self):
        settings = Settings(jobs=4, engine=1, cache_dir="/tmp/c",
                            trace_path="/tmp/t.jsonl")
        config = Config.from_settings(settings, name="bridged",
                                      figures=("f1",))
        assert (config.jobs, config.engine) == (4, 1)
        assert config.cache == "disk" and config.trace
        assert config.figures == ("f1",)

    def test_unknown_preset_is_a_settings_error(self):
        with pytest.raises(SettingsError, match="unknown benchmark preset"):
            xp.preset("definitely-not-registered")

    @pytest.mark.parametrize("axes,match", [
        (dict(engine=3), "engine"),
        (dict(jobs=0), "jobs"),
        (dict(cache="floppy"), "cache"),
        (dict(kind="nope"), "kind"),
        (dict(figures=()), "figures"),
        (dict(engine=0, skip_reference=True), "skip_reference"),
    ])
    def test_validate_rejects_bad_axes(self, axes, match):
        config = Config(name="bad", **{"figures": ("f1",), **axes})
        with pytest.raises(SettingsError, match=match):
            xp.validate(config, figure_names=fake_registry())

    def test_validate_rejects_unknown_figures(self):
        config = Config(name="bad", figures=("f1", "ghost"))
        with pytest.raises(SettingsError, match="unknown figures: ghost"):
            xp.validate(config, figure_names=fake_registry())

    def test_validate_service_needs_a_series(self):
        with pytest.raises(SettingsError, match="workers or shards"):
            xp.validate(Config(name="svc", kind="service"))
        with pytest.raises(SettingsError, match="integers >= 1"):
            xp.validate(Config(name="svc", kind="service", workers=(0,)))

    def test_presets_validate_against_the_real_registry(self):
        for config in xp.PRESETS.values():
            if config.kind == "figures":
                xp.validate(config)


# -- the run store ------------------------------------------------------------

class TestStore:
    def test_append_never_overwrite(self, tmp_path):
        config = Config(name="x", figures=("f1",))
        first = store.RunWriter(config, directory=str(tmp_path),
                                stamp="20260101T000000Z")
        first.record({"rows": []})
        first.close()
        # Same frozen timestamp: the second writer must bump, not clobber.
        second = store.RunWriter(config, directory=str(tmp_path),
                                 stamp="20260101T000000Z")
        second.record({"rows": []})
        second.close()
        assert first.path != second.path
        assert os.path.exists(first.path) and os.path.exists(second.path)
        assert second.run_id.endswith(".1")

    def test_records_are_stamped(self, tmp_path):
        run = run_fake(tmp_path, repeat=1)
        record = run.records[0]
        assert record["schema"] == store.RECORD_SCHEMA
        assert record["run_id"] == run.run_id
        assert record["git_sha"]
        assert set(record["machine"]) >= {"host", "cpus", "platform"}
        assert record["started_utc"].endswith("Z")

    def test_load_records_filters_and_sorts(self, tmp_path):
        run_fake(tmp_path, name="a", repeat=2)
        run_fake(tmp_path, name="b", repeat=1)
        assert len(store.load_records(directory=str(tmp_path))) == 3
        only_a = store.load_records("a", directory=str(tmp_path))
        assert len(only_a) == 2
        assert [r["repeat_index"] for r in only_a] == [0, 1]

    def test_latest_run_records_picks_the_newest_run(self, tmp_path):
        run_fake(tmp_path, name="a", repeat=2)
        newest = run_fake(tmp_path, name="a", repeat=2)
        latest = store.latest_run_records(
            store.load_records("a", directory=str(tmp_path)))
        assert {r["run_id"] for r in latest} == {newest.run_id}
        assert len(latest) == 2


# -- the runner ---------------------------------------------------------------

class TestRunner:
    def test_repeat_produces_one_record_each(self, tmp_path):
        run = run_fake(tmp_path, repeat=3)
        assert len(run.records) == 3
        assert [r["repeat_index"] for r in run.records] == [0, 1, 2]
        files = os.listdir(os.path.join(str(tmp_path), "runs"))
        assert len(files) == 1  # one file per invocation, 3 lines
        with open(run.path) as handle:
            assert len(handle.readlines()) == 3

    def test_rows_carry_the_tier_metrics_and_verdict(self, tmp_path):
        run = run_fake(tmp_path, repeat=1)
        row = run.records[0]["rows"][0]
        assert row["name"] == "f1"
        assert row["identical"] is True
        for metric in ("reference_s", "engine_s", "warm_s",
                       "specialized_s", "speedup_warm"):
            assert row[metric] is not None

    def test_identity_failure_is_recorded(self, tmp_path):
        texts = iter(["a", "b", "c", "d", "e", "f", "g", "h"])
        registry = {"f1": lambda: next(texts)}
        run = run_fake(tmp_path, repeat=1, figures=("f1",),
                       registry=registry)
        assert run.records[0]["rows"][0]["identical"] is False
        assert not run.aggregate().all_ok

    def test_bad_repeat_is_a_settings_error(self, tmp_path):
        with pytest.raises(SettingsError, match="repeat"):
            run_fake(tmp_path, repeat=0)

    def test_skip_reference_borrows_the_default_baseline(self, tmp_path):
        target = store.baseline_path("default", directory=str(tmp_path))
        os.makedirs(os.path.dirname(target))
        with open(target, "w") as handle:
            json.dump({"rows": {"f1": {"metrics": {"reference_s": 2.0}}}},
                      handle)
        run = run_fake(tmp_path, repeat=1, skip_reference=True)
        borrowed, missing = run.records[0]["rows"]
        assert borrowed["reference_source"] == "baseline"
        assert borrowed["reference_s"] == 2.0
        assert borrowed["speedup_warm"] is not None
        # f2 has no baseline row: no reference, so no speedups.
        assert missing["reference_source"] is None
        assert missing["speedup_warm"] is None

    def test_skip_reference_without_a_baseline_has_no_speedups(
            self, tmp_path):
        run = run_fake(tmp_path, repeat=1, skip_reference=True)
        for row in run.records[0]["rows"]:
            assert row["reference_source"] is None
            assert row["reference_s"] is None
            for metric in ("speedup_cold", "speedup_warm",
                           "speedup_specialized"):
                assert row[metric] is None

    def test_repeat_defaults_to_settings(self, tmp_path):
        config = Config(name="case", figures=("f1",))
        settings = Settings(bench_repeat=2)
        run = xp.run_config(config, directory=str(tmp_path),
                            registry=fake_registry(), settings=settings)
        assert len(run.records) == 2


# -- aggregation --------------------------------------------------------------

class TestAggregate:
    def test_quantiles_interpolate(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert quantile(values, 0.5) == pytest.approx(2.5)
        assert quantile(values, 0.25) == pytest.approx(1.75)

    def test_summarize_stats_and_outliers(self):
        stats = summarize([1.0, 1.0, 1.0, 1.0, 100.0])
        assert stats.median == 1.0
        assert stats.iqr == 0.0
        assert stats.outliers == 1
        assert (stats.lo, stats.hi) == (1.0, 100.0)

    def test_repeat_one_degenerate_case(self):
        stats = summarize([3.5])
        assert stats.n == 1
        assert stats.median == stats.lo == stats.hi == 3.5
        assert stats.iqr == 0.0 and stats.outliers == 0

    def test_aggregate_medians_per_figure(self, tmp_path):
        run = run_fake(tmp_path, repeat=3)
        agg = run.aggregate()
        assert agg.records == 3
        assert set(agg.metrics) == {"f1", "f2"}
        assert agg.metrics["f1"]["speedup_warm"].n == 3
        assert agg.verdicts == {"f1": True, "f2": True}
        assert agg.all_ok

    def test_mixed_digests_refuse_to_aggregate(self, tmp_path):
        run_fake(tmp_path, name="a", repeat=1)
        run_fake(tmp_path, name="a", repeat=1, jobs=2)
        records = store.load_records("a", directory=str(tmp_path))
        with pytest.raises(ValueError, match="digest"):
            aggregate_records(records)

    def test_empty_refuses(self):
        with pytest.raises(ValueError, match="no records"):
            aggregate_records([])

    def test_format_aggregate_mentions_median_and_iqr(self, tmp_path):
        text = xp.format_aggregate(run_fake(tmp_path).aggregate())
        assert "median" in text and "IQR" in text
        assert "provenance: git" in text


# -- the compare gate ---------------------------------------------------------

def synthetic_aggregate(tmp_path, **axes):
    return run_fake(tmp_path, **axes).aggregate()


class TestCompareGate:
    def test_missing_baseline_warns_then_strict_fails(self, tmp_path):
        agg = synthetic_aggregate(tmp_path)
        relaxed = compare_aggregate(agg, None)
        assert relaxed.ok
        assert any("no committed baseline" in w for w in relaxed.warnings)
        strict = compare_aggregate(agg, None, strict=True)
        assert not strict.ok

    def test_no_regression_on_matching_baseline(self, tmp_path):
        agg = synthetic_aggregate(tmp_path)
        result = compare_aggregate(agg, xp.baseline_payload(agg))
        assert result.ok and result.checked

    def test_warm_speedup_regression_gates(self, tmp_path):
        agg = synthetic_aggregate(tmp_path)
        baseline = xp.baseline_payload(agg)
        for row in baseline["rows"].values():
            if "speedup_warm" in row["metrics"]:
                row["metrics"]["speedup_warm"] *= 2.0  # >10% drop now
        result = compare_aggregate(agg, baseline)
        assert not result.ok
        assert any("speedup_warm" in p for p in result.problems)

    def test_latency_regression_gates_lower_is_better(self):
        agg = xp.Aggregate(
            config_name="svc", config_digest="d", kind="service",
            records=1,
            metrics={"workers=1": {"p95_ms": summarize([20.0])}},
            verdicts={"workers=1": True},
            machine={"host": "h", "platform": "p", "cpus": 2})
        baseline = {"config_digest": "d",
                    "machine": {"host": "h", "platform": "p", "cpus": 2},
                    "rows": {"workers=1": {"metrics": {"p95_ms": 10.0}}}}
        result = compare_aggregate(agg, baseline)
        assert not result.ok
        assert any("p95_ms" in p for p in result.problems)

    def test_machine_mismatch_downgrades_timing_to_warning(self, tmp_path):
        agg = synthetic_aggregate(tmp_path)
        baseline = xp.baseline_payload(agg)
        baseline["machine"] = {"host": "elsewhere", "platform": "other",
                               "cpus": 1}
        for row in baseline["rows"].values():
            if "speedup_warm" in row["metrics"]:
                row["metrics"]["speedup_warm"] *= 2.0
        result = compare_aggregate(agg, baseline)
        assert result.ok  # regressed, but on foreign hardware
        assert any("machine stamp differs" in w for w in result.warnings)
        assert any("speedup_warm" in w for w in result.warnings)

    def test_identity_failure_always_gates(self, tmp_path):
        texts = iter("abcdefgh")
        agg = synthetic_aggregate(tmp_path, repeat=1, figures=("f1",),
                                  registry={"f1": lambda: next(texts)})
        baseline = xp.baseline_payload(agg)
        baseline["machine"] = {"host": "elsewhere"}  # mismatch, still gates
        result = compare_aggregate(agg, baseline)
        assert not result.ok
        assert any("identity" in p for p in result.problems)

    def test_partial_overlap_warns(self, tmp_path):
        agg = synthetic_aggregate(tmp_path, figures=("f1", "f2"))
        baseline = xp.baseline_payload(agg)
        del baseline["rows"]["f2"]
        baseline["rows"]["f3"] = {"metrics": {"speedup_warm": 1.0}}
        result = compare_aggregate(agg, baseline)
        assert result.ok
        assert any("f3: in the baseline" in w for w in result.warnings)
        assert any("f2: measured but absent" in w for w in result.warnings)

    def test_digest_mismatch_warns(self, tmp_path):
        agg = synthetic_aggregate(tmp_path)
        baseline = xp.baseline_payload(agg)
        baseline["config_digest"] = "0" * 64
        result = compare_aggregate(agg, baseline)
        assert any("axes changed" in w for w in result.warnings)

    def test_write_baseline_round_trips(self, tmp_path):
        agg = synthetic_aggregate(tmp_path)
        path = xp.write_baseline(agg, directory=str(tmp_path))
        loaded = store.load_baseline("case", directory=str(tmp_path))
        assert loaded["schema"] == store.BASELINE_SCHEMA
        assert loaded["config_digest"] == agg.config_digest
        assert compare_aggregate(agg, loaded).ok
        assert path.endswith(os.path.join("baselines", "case.json"))


# -- the CLI gate -------------------------------------------------------------

class TestCliGate:
    def _with_preset(self, config):
        xp.register_preset(config)
        return config

    def _cleanup(self, name):
        xp.PRESETS.pop(name, None)

    def test_compare_exits_nonzero_on_regression(self, tmp_path,
                                                 monkeypatch):
        from repro.cli import main
        name = "gatecase"
        self._with_preset(Config(name=name, figures=("f1", "f2")))
        try:
            monkeypatch.setattr("repro.experiments.figures.FIGURES",
                                {k: ("fake", fn) for k, fn
                                 in fake_registry().items()})
            run = xp.run_config(xp.preset(name),
                                directory=str(tmp_path), repeat=1,
                                registry=fake_registry())
            baseline = xp.baseline_payload(run.aggregate())
            for row in baseline["rows"].values():
                if "speedup_warm" in row["metrics"]:
                    row["metrics"]["speedup_warm"] *= 2.0
            target = store.baseline_path(name, directory=str(tmp_path))
            os.makedirs(os.path.dirname(target), exist_ok=True)
            with open(target, "w") as handle:
                json.dump(baseline, handle)
            assert main(["xp", "compare", "--preset", name,
                         "--dir", str(tmp_path)]) == 1
            # A matching baseline passes.
            xp.write_baseline(run.aggregate(), directory=str(tmp_path))
            assert main(["xp", "compare", "--preset", name,
                         "--dir", str(tmp_path)]) == 0
        finally:
            self._cleanup(name)

    def test_compare_exits_nonzero_on_identity_failure(self, tmp_path,
                                                       monkeypatch):
        from repro.cli import main
        name = "identcase"
        texts = iter("abcdefgh")
        registry = {"f1": lambda: next(texts)}
        self._with_preset(Config(name=name, figures=("f1",)))
        try:
            monkeypatch.setattr("repro.experiments.figures.FIGURES",
                                {"f1": ("fake", registry["f1"])})
            run = xp.run_config(xp.preset(name),
                                directory=str(tmp_path), repeat=1,
                                registry=registry)
            xp.write_baseline(run.aggregate(), directory=str(tmp_path))
            assert main(["xp", "compare", "--preset", name,
                         "--dir", str(tmp_path)]) == 1
        finally:
            self._cleanup(name)

    def test_strict_compare_fails_without_records(self, tmp_path):
        from repro.cli import main
        name = "emptycase"
        self._with_preset(Config(name=name, figures=("f1",)))
        try:
            assert main(["xp", "compare", "--preset", name, "--strict",
                         "--dir", str(tmp_path)]) == 1
        finally:
            self._cleanup(name)

    def test_unknown_preset_exits_two(self, tmp_path):
        from repro.cli import main
        assert main(["xp", "run", "--preset", "ghost",
                     "--dir", str(tmp_path)]) == 2


# -- the api facade -----------------------------------------------------------

class TestFacade:
    def test_benchmark_and_compare_are_exported(self):
        assert repro.benchmark is repro.api.benchmark
        assert repro.compare is repro.api.compare
        assert repro.xp.Config is Config

    def test_benchmark_runs_a_config(self, tmp_path):
        run = repro.benchmark(
            config=Config(name="via-api", figures=("f1",)),
            repeat=2, directory=str(tmp_path),
            registry=fake_registry())
        assert len(run.records) == 2

    def test_benchmark_rejects_bad_names(self, tmp_path):
        with pytest.raises(SettingsError):
            repro.benchmark(config="ghost", directory=str(tmp_path))
        with pytest.raises(SettingsError, match="not both"):
            repro.benchmark(config=Config(name="x", figures=("f1",)),
                            preset="smoke", directory=str(tmp_path))
        with pytest.raises(SettingsError, match="Config or a preset"):
            repro.benchmark(config=42, directory=str(tmp_path))

    def test_compare_without_records_is_a_problem(self, tmp_path):
        result = repro.compare(
            config=Config(name="never-ran", figures=("f1",)),
            directory=str(tmp_path))
        assert not result.ok
        assert any("no run records" in p for p in result.problems)


# -- consolidated settings knobs ----------------------------------------------

class TestSettingsKnobs:
    def test_bench_repeat_from_env(self):
        settings = Settings.from_env({"REPRO_BENCH_REPEAT": "5"})
        assert settings.bench_repeat == 5

    def test_bench_repeat_rejects_junk(self):
        with pytest.raises(SettingsError, match="REPRO_BENCH_REPEAT"):
            Settings.from_env({"REPRO_BENCH_REPEAT": "zero"})
        with pytest.raises(SettingsError, match="REPRO_BENCH_REPEAT"):
            Settings.from_env({"REPRO_BENCH_REPEAT": "0"})

    def test_bench_dir_from_env(self, tmp_path):
        settings = Settings.from_env({"REPRO_BENCH_DIR": str(tmp_path)})
        assert settings.bench_dir == str(tmp_path)
        assert store.results_dir(settings) == str(tmp_path)
        assert store.runs_dir(settings=settings) == os.path.join(
            str(tmp_path), "runs")

    def test_defaults(self):
        settings = Settings.from_env({})
        assert settings.bench_repeat == 1
        assert settings.bench_dir is None
        assert store.results_dir(settings) == os.path.join(
            "benchmarks", "results")


# -- the single figure registry -----------------------------------------------

class TestFigureRegistry:
    def test_bench_registry_is_the_figures_registry(self):
        from repro.experiments.figures import FIGURES, benchable_figures
        registry = benchable_figures()
        assert "all" not in registry
        assert set(registry) == set(FIGURES) - {"all"}
        assert all(registry[name] is FIGURES[name][1] for name in registry)

    def test_new_registration_is_automatically_benchable(self, monkeypatch):
        from repro.experiments import figures
        monkeypatch.setitem(figures.FIGURES, "brand-new",
                            ("desc", lambda: "x"))
        assert "brand-new" in figures.benchable_figures()


# -- service series driver ----------------------------------------------------

class TestServiceDriver:
    def test_empty_series_is_a_noop(self):
        from repro.service.loadgen import measure_service
        assert measure_service(workers=(), shards=()) == []

    def test_worker_row_gates_on_exact_dedup(self, monkeypatch):
        from repro.accelerator import PROPOSED_LA
        from repro.service import loadgen
        from repro.vm.translator import TranslationOptions
        from repro.workloads.suite import media_fp_benchmarks
        kernels = [kernel for bench in media_fp_benchmarks()
                   for kernel in bench.kernels][:3]
        corpus = [(kernel, PROPOSED_LA, TranslationOptions())
                  for kernel in kernels]
        monkeypatch.setattr(loadgen, "request_corpus", lambda: corpus)
        [row] = loadgen.measure_service(workers=(1,), clients=2,
                                        run_kernel_count=0)
        assert row["ok"], row
        assert row["core_runs"] == row["unique_digests"] == 3
        assert row["exact_fallbacks"] == 0
        # Count every request as one digest: the service still pays
        # three core runs, which no longer matches, so the row fails.
        monkeypatch.setattr(loadgen, "translation_key",
                            lambda *_item: "one-digest")
        [row] = loadgen.measure_service(workers=(1,), clients=2,
                                        run_kernel_count=0)
        assert row["core_runs"] == 3 and row["unique_digests"] == 1
        assert row["ok"] is False

    def test_service_config_validates(self):
        config = xp.preset("service-workers")
        assert config.kind == "service"
        xp.validate(config)
