"""The ``repro.api`` facade: Settings, Session, exports."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import api
from repro.api import Session, Settings
from repro.errors import SettingsError
from repro.vm.translator import TranslationOptions, translate_loop
from repro.workloads import kernels as K
from repro.workloads.suite import Benchmark


def tiny_benchmark() -> Benchmark:
    return Benchmark(name="tiny", suite="test",
                     kernels=[K.checksum(trip_count=64, invocations=2)],
                     acyclic_fraction=0.0)


# -- Settings -----------------------------------------------------------------

class TestSettings:
    def test_defaults(self):
        settings = Settings.from_env({})
        assert settings == Settings(engine=2, cache_dir=None,
                                    trace_path=None, incident_log=None)

    def test_env_values(self):
        settings = Settings.from_env({
            "REPRO_ENGINE": "0",
            "REPRO_CACHE_DIR": "/tmp/c", "REPRO_TRACE": "/tmp/t.jsonl",
            "REPRO_INCIDENT_LOG": "/tmp/i.jsonl"})
        assert settings.engine == 0
        assert settings.cache_dir == "/tmp/c"
        assert settings.trace_path == "/tmp/t.jsonl"
        assert settings.incident_log == "/tmp/i.jsonl"

    def test_overrides_beat_env(self):
        settings = Settings.from_env(
            {"REPRO_SHARDS": "2", "REPRO_CACHE_DIR": "/tmp/env"},
            shards=4, cache_dir="/tmp/flag")
        assert settings.shards == 4
        assert settings.cache_dir == "/tmp/flag"

    def test_engine_levels_and_boolean_spellings(self):
        assert Settings.from_env({"REPRO_ENGINE": "1"}).engine == 1
        assert Settings.from_env({"REPRO_ENGINE": "2"}).engine == 2
        assert Settings.from_env({"REPRO_ENGINE": "false"}).engine == 0
        assert Settings.from_env({"REPRO_ENGINE": "on"}).engine == 2
        assert Settings.from_env({}, engine=True).engine == 2
        assert Settings.from_env({}, engine=False).engine == 0
        assert Settings.from_env({}, engine=1).engine == 1

    def test_bad_engine_raises(self):
        with pytest.raises(SettingsError) as info:
            Settings.from_env({"REPRO_ENGINE": "fast"})
        assert "REPRO_ENGINE" in str(info.value)
        with pytest.raises(SettingsError) as info:
            Settings.from_env({}, engine="maybe")
        assert "engine" in str(info.value)

    @pytest.mark.parametrize("environ,override", [
        ({"REPRO_ENGINE": "5"}, None),
        ({"REPRO_ENGINE": "3"}, None),
        ({"REPRO_ENGINE": "-1"}, None),
        ({}, 7),
        ({}, -1),
        ({}, "9"),
    ])
    def test_out_of_range_engine_level_raises(self, environ, override):
        """A level outside 0..2 is a typo to reject, not a value to
        clamp: clamping "-1" would quietly pick the slow reference tier."""
        with pytest.raises(SettingsError) as info:
            Settings.from_env(environ, engine=override)
        assert "engine level 0..2" in str(info.value)

    def test_apply_pushes_engine(self):
        from repro import perf
        level_before = perf.engine_level()
        try:
            Settings(engine=0).apply()
            assert not perf.engine_enabled()
            assert perf.engine_level() == 0
            Settings(engine=1).apply()
            assert perf.engine_level() == 1
        finally:
            perf.set_engine_level(level_before)

    def test_run_figure_accepts_only_one_job(self):
        """A figure pass runs in one process: ``jobs`` survives only as
        ``None``/``1`` for callers that still pass it."""
        with pytest.raises(SettingsError, match="one process"):
            api.run_figure("fig4b", jobs=2)


# -- Session / one-shot helpers ----------------------------------------------

class TestSessionEquivalence:
    def test_translate_matches_direct_call(self):
        from repro.accelerator import PROPOSED_LA
        loop = K.fir_filter(taps=4)
        via_api = api.translate(loop)
        direct = translate_loop(loop, PROPOSED_LA, TranslationOptions())
        assert via_api.ok and direct.ok
        assert via_api.image.ii == direct.image.ii
        assert via_api.image.schedule.times == direct.image.schedule.times
        assert via_api.meter.total_units() == direct.meter.total_units()

    def test_run_loop_matches_vm(self):
        from repro.accelerator import PROPOSED_LA
        from repro.cpu import ARM11
        from repro.vm import VMConfig, VirtualMachine
        loop = K.checksum(trip_count=64)
        config = VMConfig(cpu=ARM11, accelerator=PROPOSED_LA)
        direct = VirtualMachine(config).run_loop(loop)
        assert Session().run_loop(loop) == direct
        assert api.run_loop(loop) == direct

    def test_reused_session_keeps_same_named_loops_apart(self):
        """A session's VM memoises translations per loop object, so a
        second, different loop under the same name is translated as
        itself rather than served the first loop's translation."""
        first = replace(K.checksum(trip_count=64), name="shared")
        second = replace(K.fir_filter(taps=4), name="shared")
        session = Session()
        session.run_loop(first)
        reused = session.run_loop(second)
        fresh = Session().run_loop(second)
        assert reused == fresh
        assert reused.ii == fresh.ii
        assert reused.translation_instructions == \
            fresh.translation_instructions

    def test_scalar_session_is_explicit(self):
        session = Session(accelerator=None)
        outcome = session.run_loop(K.checksum(trip_count=64))
        assert not outcome.accelerated
        with pytest.raises(ValueError):
            session.translate(K.checksum(trip_count=64))

    def test_run_suite_matches_internal(self):
        from repro.experiments.common import _run_suite
        bench = tiny_benchmark()
        runs = api.run_suite(benchmarks=[bench])
        direct = _run_suite(Session().vm_config(), benchmarks=[bench])
        assert runs.keys() == direct.keys()
        assert runs["tiny"].total_cycles == direct["tiny"].total_cycles

    def test_run_figure_unknown_name(self):
        with pytest.raises(KeyError):
            api.run_figure("not-a-figure")

    def test_figures_lists_known_names(self):
        names = api.figures()
        assert "fig2" in names and "fig10" in names
        assert all(isinstance(d, str) and d for d in names.values())


# -- package exports ----------------------------------------------------------

class TestExports:
    def test_package_all_resolves(self):
        import repro
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_api_all_resolves(self):
        for name in api.__all__:
            assert hasattr(api, name), name

    def test_service_is_lazy_but_importable(self):
        import repro
        assert repro.service.LoopService is not None

    def test_unknown_attribute_raises(self):
        import repro
        with pytest.raises(AttributeError):
            repro.no_such_name
