"""The ``repro.api`` facade: Settings, Session, exports."""

from __future__ import annotations

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
        assert settings == Settings(jobs=1, engine=2, cache_dir=None,
                                    trace_path=None, incident_log=None)

    def test_env_values(self):
        settings = Settings.from_env({
            "REPRO_JOBS": "3", "REPRO_ENGINE": "0",
            "REPRO_CACHE_DIR": "/tmp/c", "REPRO_TRACE": "/tmp/t.jsonl",
            "REPRO_INCIDENT_LOG": "/tmp/i.jsonl"})
        assert settings.jobs == 3
        assert settings.engine == 0
        assert settings.cache_dir == "/tmp/c"
        assert settings.trace_path == "/tmp/t.jsonl"
        assert settings.incident_log == "/tmp/i.jsonl"

    def test_overrides_beat_env(self):
        settings = Settings.from_env(
            {"REPRO_JOBS": "2", "REPRO_CACHE_DIR": "/tmp/env"},
            jobs=4, cache_dir="/tmp/flag")
        assert settings.jobs == 4
        assert settings.cache_dir == "/tmp/flag"

    @pytest.mark.parametrize("raw", ["abc", "1.5", "", " "])
    def test_bad_env_jobs_raise(self, raw):
        with pytest.raises(SettingsError) as info:
            Settings.from_env({"REPRO_JOBS": raw or "x"})
        assert info.value.kind == "settings"
        assert "REPRO_JOBS" in str(info.value)

    def test_bad_jobs_override_raises(self):
        with pytest.raises(SettingsError) as info:
            Settings.from_env({}, jobs="zero")
        assert "--jobs" in str(info.value)
        with pytest.raises(SettingsError):
            Settings.from_env({}, jobs=0)

    def test_engine_levels_and_boolean_spellings(self):
        assert Settings.from_env({"REPRO_ENGINE": "1"}).engine == 1
        assert Settings.from_env({"REPRO_ENGINE": "2"}).engine == 2
        assert Settings.from_env({"REPRO_ENGINE": "false"}).engine == 0
        assert Settings.from_env({"REPRO_ENGINE": "on"}).engine == 2
        assert Settings.from_env({"REPRO_ENGINE": "9"}).engine == 2
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

    def test_apply_pushes_jobs_and_engine(self):
        from repro import perf
        jobs_before, level_before = perf.get_jobs(), perf.engine_level()
        try:
            Settings(jobs=2, engine=0).apply()
            assert perf.get_jobs() == 2
            assert not perf.engine_enabled()
            assert perf.engine_level() == 0
            Settings(jobs=2, engine=1).apply()
            assert perf.engine_level() == 1
        finally:
            perf.set_jobs(jobs_before)
            perf.set_engine_level(level_before)


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
