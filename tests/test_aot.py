"""AOT translation artifacts (:mod:`repro.aot`).

An artifact is a translation-cache directory, and the trust model under
test is the disk layer's: every entry file is untrusted input.  A valid
artifact makes a cold process serve its corpus with zero core
translation runs; a corrupt entry file is quarantined on its own while
the rest are adopted, and a stale directory adopts nothing — the run
falls back to dynamic translation with byte-identical results either
way.  A *missing* artifact the user named is the one loud failure.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import pytest

from repro import aot, obs, perf
from repro.accelerator import PROPOSED_LA
from repro.api import ARTIFACT_ENV
from repro.errors import ArtifactError
from repro.faults.infra import CORRUPTION_MODES, corrupt_entry
from repro.perf.transcache import ENTRY_SUFFIX, STAMP_NAME
from repro.resilience import integrity
from repro.resilience.incidents import incident_log
from repro.vm.translator import (TranslationOptions, translate_loop,
                                 translation_key)
from repro.workloads.suite import media_fp_benchmarks


@pytest.fixture(autouse=True)
def clean_state():
    perf.clear_caches()
    cache = perf.translation_cache()
    cache.detach_disk()
    incident_log().clear()
    yield
    cache.detach_disk()
    perf.clear_caches()
    incident_log().clear()


def _corpus(count: int = 3, config=PROPOSED_LA) -> list[tuple]:
    kernels = [kernel for bench in media_fp_benchmarks()
               for kernel in bench.kernels][:count]
    return [(kernel, config, TranslationOptions()) for kernel in kernels]


def _counter(name: str) -> int:
    return obs.metrics_snapshot()["counters"].get(name, 0)


def _build(tmp_path, corpus=None, name="suite"):
    path = str(tmp_path / name)
    report = aot.build_artifact(path, corpus=corpus or _corpus())
    return path, report


def _entry_files(path: str) -> dict[str, bytes]:
    files = {}
    for name in sorted(os.listdir(path)):
        if name.endswith(ENTRY_SUFFIX):
            with open(os.path.join(path, name), "rb") as handle:
                files[name] = handle.read()
    return files


def _plant(path: str, key: str, payload) -> None:
    """Write a frame-valid entry file holding *payload*."""
    integrity.write_atomic(
        os.path.join(path, key + ENTRY_SUFFIX), integrity.frame(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)))


def _stamp(path: str, version: str) -> None:
    with open(os.path.join(path, STAMP_NAME), "w") as handle:
        handle.write(version + "\n")


# -- build / inspect / install round-trip -------------------------------------

def test_build_install_round_trip_zero_core_runs(tmp_path):
    corpus = _corpus()
    path, report = _build(tmp_path, corpus)
    assert report.entries >= len(corpus)
    assert report.core_runs > 0  # the build paid the translations
    # Every entry is its own framed file, named by its digest.
    assert len(_entry_files(path)) == report.entries
    for loop, config, options in corpus:
        assert os.path.exists(os.path.join(
            path, translation_key(loop, config, options) + ENTRY_SUFFIX))

    loaded = aot.load_artifact(path)
    assert loaded is not None
    assert len(loaded.entries) == report.entries
    assert loaded.content_sha256 == report.content_sha256

    # A "cold process": empty cache, artifact installed, corpus served
    # without a single core translation run.
    perf.clear_caches()
    adopted = aot.install(path)
    assert adopted == report.entries
    before = obs.metrics_snapshot()
    for loop, config, options in corpus:
        assert translate_loop(loop, config, options) is not None
    delta = obs.metrics_delta(before)["counters"]
    assert delta.get("translator.core_runs", 0) == 0
    assert delta.get("aot.artifact_hits", 0) >= len(corpus)


def test_artifact_results_are_byte_identical_to_dynamic(tmp_path):
    corpus = _corpus()
    path, _report = _build(tmp_path, corpus)
    perf.clear_caches()
    dynamic = [translate_loop(*item) for item in corpus]
    perf.clear_caches()
    aot.install(path)
    served = [translate_loop(*item) for item in corpus]
    for first, second in zip(dynamic, served):
        assert first.ok == second.ok
        assert first.meter.units == second.meter.units
        if first.ok:
            assert first.image.schedule.times == second.image.schedule.times
            assert first.image.schedule.units == second.image.schedule.units


def test_warm_cache_build_pays_no_extra_core_runs(tmp_path):
    corpus = _corpus()
    for item in corpus:
        translate_loop(*item)
    _path, report = _build(tmp_path, corpus)
    assert report.core_runs == 0  # writes the warm entries, no re-runs
    assert report.entries >= len(corpus)


def test_missing_artifact_is_a_loud_error(tmp_path):
    missing = str(tmp_path / "nope")
    with pytest.raises(ArtifactError) as excinfo:
        aot.load_artifact(missing)
    assert excinfo.value.kind == "artifact"
    assert "does not exist" in str(excinfo.value)
    with pytest.raises(ArtifactError):
        aot.install(missing)
    # A file where the artifact directory should be is just as loud.
    stray = tmp_path / "suite.file"
    stray.write_bytes(b"not a directory")
    with pytest.raises(ArtifactError):
        aot.install(str(stray))
    # ...but an *unset* env var is simply "no AOT configured".
    from repro.api import Settings
    assert Settings.from_env({}).artifact_path is None


# -- corruption: quarantine + transparent fallback ----------------------------

@pytest.mark.parametrize("mode", CORRUPTION_MODES,
                         ids=lambda mode: mode.value)
def test_corrupt_artifact_quarantined_with_dynamic_fallback(tmp_path, mode):
    """One corrupt entry file is quarantined on its own; the rest of
    the artifact is adopted and the run re-derives only that entry."""
    # An unclamped max II keeps alias keys out: the corrupted entry is
    # the only way to the first loop's translation.
    corpus = _corpus(2, config=PROPOSED_LA.with_(max_ii=4096))
    perf.clear_caches()
    baseline = [translate_loop(*item) for item in corpus]
    path, report = _build(tmp_path, corpus)
    victim = os.path.join(path, translation_key(*corpus[0]) + ENTRY_SUFFIX)
    assert corrupt_entry(victim, mode)

    perf.clear_caches()
    quarantined_before = _counter("aot.quarantined")
    assert aot.install(path) == report.entries - 1
    assert not os.path.exists(victim)  # moved aside, not deleted
    quarantine_dir = os.path.join(path, integrity.QUARANTINE_DIRNAME)
    assert len(os.listdir(quarantine_dir)) == 1
    assert _counter("aot.quarantined") == quarantined_before + 1
    incident = incident_log().incidents[-1]
    assert incident.kind == "cache-corruption"
    assert incident.component == "aot"

    # The run proceeds: only the quarantined entry is re-derived, and
    # the results are the dynamic ones.
    before = obs.metrics_snapshot()
    redone = [translate_loop(*item) for item in corpus]
    delta = obs.metrics_delta(before)["counters"]
    assert delta.get("translator.core_runs", 0) == 1
    for first, second in zip(baseline, redone):
        assert first.ok == second.ok
        assert first.meter.units == second.meter.units


@pytest.mark.parametrize("case", [
    "missing-stamp", "digest-stale", "wrong-type", "stale-before-entries"])
def test_untrusted_bundles_are_quarantined(tmp_path, case):
    """An artifact directory whose stamp cannot be trusted — missing,
    or naming another digest scheme — adopts nothing, before any entry
    file is read; a frame-valid entry of the wrong type is refused on
    its own."""
    path, report = _build(tmp_path, _corpus(1))
    if case == "missing-stamp":
        os.unlink(os.path.join(path, STAMP_NAME))
    elif case == "digest-stale":
        _stamp(path, "veal-perf-0")
    elif case == "wrong-type":
        _plant(path, "planted", ["not", "an", "entry"])
    else:
        _stamp(path, "veal-perf-0")
        _plant(path, "planted", object)
    perf.clear_caches()
    adopted = aot.install(path)
    incident = incident_log().incidents[-1]
    assert incident.kind == "cache-corruption"
    if case == "wrong-type":
        assert adopted == report.entries
        assert incident.details["reason"] == "wrong-type"
        assert not os.path.exists(
            os.path.join(path, "planted" + ENTRY_SUFFIX))
    else:
        assert adopted == 0
        assert incident.details["reason"] == "digest-stale"
        # Refusing a directory moves nothing: its files stay put.
        assert len(_entry_files(path)) >= report.entries


def test_wrong_entry_type_is_quarantined(tmp_path):
    """A planted frame-valid payload that is not a ``CoreEntry`` never
    reaches the cache, even under a live entry's digest."""
    corpus = _corpus(1)
    path, report = _build(tmp_path, corpus)
    key = translation_key(*corpus[0])
    _plant(path, key, "not a CoreEntry")
    perf.clear_caches()
    assert aot.install(path) == report.entries - 1
    assert incident_log().incidents[-1].details["reason"] == "wrong-type"
    assert perf.translation_cache().peek(key) is None
    assert translate_loop(*corpus[0]).ok


def test_stale_stamp_leaves_the_figure_byte_identical(tmp_path):
    """A stale artifact is refused with an incident and the figure
    renders exactly as the dynamic run does."""
    from repro.api import run_figure

    perf.clear_caches()
    dynamic = run_figure("fig2")
    path, _report = _build(tmp_path, _corpus(6))
    _stamp(path, "veal-perf-0")
    perf.clear_caches()
    incident_log().clear()
    assert aot.install(path) == 0
    assert [i.details["reason"] for i in incident_log().incidents] == [
        "digest-stale"]
    assert run_figure("fig2") == dynamic


@pytest.mark.parametrize("where", ["cache-dir", "artifact"])
def test_planted_code_payload_is_quarantined_not_run(tmp_path, where):
    """A frame-valid entry whose payload reduces to a repro function
    call (``start_trace(victim)`` truncates the victim) is quarantined
    under a live digest without running: one incident, the victim
    untouched, no trace started, the figure text unchanged."""
    from repro.api import run_figure

    victim = tmp_path / "victim"
    victim.write_text("keep")
    evil = (b"crepro.obs.trace\nstart_trace\n(V"
            + str(victim).encode() + b"\ntR.")
    corpus = _corpus(1)
    key = translation_key(*corpus[0])
    dynamic = run_figure("fig8")
    if where == "artifact":
        path, report = _build(tmp_path, corpus)
    else:
        path = str(tmp_path / "cache")
        perf.translation_cache().attach_disk(path, strict=True)
    integrity.write_atomic(os.path.join(path, key + ENTRY_SUFFIX),
                           integrity.frame(evil))
    perf.clear_caches()
    incident_log().clear()
    try:
        if where == "artifact":
            assert aot.install(path) == report.entries - 1
        text = run_figure("fig8")
        assert victim.read_text() == "keep"
        assert not obs.tracing_active()
    finally:
        if obs.tracing_active():
            obs.stop_trace()
    assert [(i.kind, i.details["reason"])
            for i in incident_log().incidents] == [
        ("cache-corruption", "forbidden-global")]
    assert os.listdir(os.path.join(path, integrity.QUARANTINE_DIRNAME)) \
        == [key + ENTRY_SUFFIX + ".forbidden-global"]
    assert text == dynamic


# -- adoption semantics -------------------------------------------------------

def test_adoption_is_first_writer_wins(tmp_path):
    corpus = _corpus(2)
    path, _report = _build(tmp_path, corpus)
    perf.clear_caches()
    cache = perf.translation_cache()
    loop, config, options = corpus[0]
    live = translate_loop(loop, config, options)
    key = translation_key(loop, config, options)
    resident = cache.peek(key)
    assert aot.install(path) > 0
    # The live entry was not overwritten by the artifact's copy.
    assert cache.peek(key) is resident
    assert live.ok == translate_loop(loop, config, options).ok


def test_invalidation_beats_the_artifact(tmp_path):
    """Deopt invalidation must win over AOT adoption: a guard-found
    wrong entry cannot be resurrected from the artifact silently."""
    corpus = _corpus(1)
    path, _report = _build(tmp_path, corpus)
    perf.clear_caches()
    aot.install(path)
    loop, config, options = corpus[0]
    key = translation_key(loop, config, options)
    cache = perf.translation_cache()
    assert cache.peek(key) is not None
    cache.invalidate(key)
    assert cache.peek(key) is None
    before = obs.metrics_snapshot()
    assert translate_loop(loop, config, options).ok
    delta = obs.metrics_delta(before)["counters"]
    # The dropped key is never served as an artifact hit again: it is
    # re-derived, by a core run (a miss) or through the canonical
    # max-II alias (a hit, because it avoids the core run).
    assert delta.get("aot.artifact_hits", 0) == 0
    assert (delta.get("transcache.hits", 0)
            + delta.get("transcache.misses", 0)) == 1
    assert delta.get("transcache.misses", 0) == \
        delta.get("translator.core_runs", 0)


# -- serving ------------------------------------------------------------------

def test_serve_with_artifact_pays_zero_core_runs(tmp_path):
    """The tentpole contract end to end: a cold server booted with an
    artifact answers its corpus without one core translation run, and
    never writes into the artifact directory."""
    from repro.api import Settings
    from repro.service.client import LoopClient
    from repro.service.net import NetConfig, NetServer
    from repro.service.server import ServiceConfig

    corpus = _corpus()
    path, _report = _build(tmp_path, corpus)
    listing = sorted(os.listdir(path))
    perf.clear_caches()
    before = obs.metrics_snapshot()
    with NetServer(NetConfig(service=ServiceConfig(
            workers=1,
            settings=Settings(artifact_path=path)))) as server:
        with LoopClient(server.host, server.port,
                        session="aot-cold") as client:
            for loop, config, options in corpus:
                assert client.translate(loop, config, options,
                                        deadline_s=120.0) is not None
    delta = obs.metrics_delta(before)["counters"]
    assert delta.get("translator.core_runs", 0) == 0
    assert delta.get("aot.artifact_hits", 0) >= len(corpus)
    assert delta.get("aot.entries_adopted", 0) > 0
    assert sorted(os.listdir(path)) == listing


@pytest.mark.parametrize("named_by", ["flag", "env"])
def test_cli_serve_loads_the_artifact_once(tmp_path, monkeypatch, capsys,
                                           named_by):
    """The CLI bootstrap installs the artifact; the in-process server
    serves from it without loading it a second time."""
    from repro.cli import main
    from repro.service import loadgen

    corpus = _corpus()
    path, _report = _build(tmp_path, corpus)
    monkeypatch.setattr(loadgen, "request_corpus", lambda: corpus)
    argv = ["serve", "--sessions", "1"]
    if named_by == "flag":
        argv += ["--artifact", path]
    else:
        monkeypatch.setenv(ARTIFACT_ENV, path)
    perf.clear_caches()
    before = obs.metrics_snapshot()
    assert main(argv) == 0
    assert "served 3/3" in capsys.readouterr().out
    delta = obs.metrics_delta(before)["counters"]
    assert delta.get("aot.artifact_loads", 0) == 1
    assert delta.get("translator.core_runs", 0) == 0


def test_cli_serve_shards_install_the_artifact(tmp_path, monkeypatch,
                                              capsys):
    """With shards, each shard process is handed the artifact to
    install at start; the flags reach the fleet through the bootstrap's
    Settings."""
    from repro.cli import main
    from repro.errors import TransportError
    from repro.service import cluster

    path, _report = _build(tmp_path, _corpus(1))
    booted = []

    class _Fleet:
        def __init__(self, config):
            booted.append(config)

        def start(self):
            raise TransportError("fleet not booted in this test")

    monkeypatch.setattr(cluster, "ShardSupervisor", _Fleet)
    perf.clear_caches()
    before = obs.metrics_snapshot()
    assert main(["serve", "--shards", "2", "--secret", "s3",
                 "--artifact", path]) == 1
    assert "fleet not booted" in capsys.readouterr().out
    (config,) = booted
    assert (config.shards, config.auth_secret) == (2, "s3")
    assert config.service.settings.artifact_path == path
    delta = obs.metrics_delta(before)["counters"]
    assert delta.get("aot.artifact_loads", 0) == 1


# -- CLI and reproducibility --------------------------------------------------

def test_cli_aot_build_inspect_and_cache_gc(tmp_path, capsys, monkeypatch):
    from repro.cli import main
    path = str(tmp_path / "suite")
    # Building must not require the artifact to already exist, even
    # when REPRO_ARTIFACT points at it (the bootstrap strips it).
    monkeypatch.setenv(ARTIFACT_ENV, path)
    assert main(["aot", "build", "--output", path]) == 0
    out = capsys.readouterr().out
    assert "artifact written" in out
    assert main(["aot", "inspect", path]) == 0
    out = capsys.readouterr().out
    assert "entries across" in out and "sha256" in out
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    assert main(["cache", "gc", "--dir", str(cache_dir)]) == 0
    assert "cache gc" in capsys.readouterr().out


def test_cli_aot_inspect_missing_artifact_fails_loud(tmp_path, capsys):
    from repro.cli import main
    assert main(["aot", "inspect", str(tmp_path / "nope")]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_warm_hits_leave_the_bundle_bytes_unchanged(tmp_path):
    """Runtime memos on cached entries (finalized images per caller
    config, their timing constants) never reach an artifact: a build
    after warm hits writes the files a cold build wrote."""
    from repro.vm.runtime import VMConfig, VirtualMachine

    # An unclamped max II keeps alias keys out, so both builds write
    # exactly the corpus keys.
    config = PROPOSED_LA.with_(max_ii=4096)
    corpus = _corpus(count=6, config=config)
    cold = aot.build_artifact(str(tmp_path / "cold"), corpus=corpus)
    entries = [perf.translation_cache().peek(translation_key(*item))
               for item in corpus]
    before = [pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
              for entry in entries]
    for variant in (config, config.with_(num_int_regs=64),
                    config.with_(name="LA-twin")):
        vm = VirtualMachine(VMConfig(accelerator=variant, functional=False))
        for loop, _config, _options in corpus:
            vm.run_loop(loop)
    assert any(len(entry.__dict__.get("_veal_finalized", ())) == 3
               for entry in entries)
    warm = aot.build_artifact(str(tmp_path / "warm"), corpus=corpus)
    assert warm.core_runs == 0
    assert warm.entries == cold.entries
    assert warm.content_sha256 == cold.content_sha256
    assert _entry_files(str(tmp_path / "warm")) == \
        _entry_files(str(tmp_path / "cold"))
    assert [pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
            for entry in entries] == before


def test_aot_build_is_reproducible_across_hash_seeds(tmp_path):
    """Two builds in processes with different string-hash seeds write
    the same file names with the same bytes."""
    import repro
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    script = ("import sys\n"
              "from repro import aot\n"
              "from repro.accelerator import PROPOSED_LA\n"
              "from repro.vm.translator import TranslationOptions\n"
              "from repro.workloads.suite import media_fp_benchmarks\n"
              "kernels = [k for b in media_fp_benchmarks()"
              " for k in b.kernels][:8]\n"
              "corpus = [(k, c, TranslationOptions()) for k in kernels\n"
              "          for c in (PROPOSED_LA,"
              " PROPOSED_LA.with_(num_int_units=1))]\n"
              "aot.build_artifact(sys.argv[1], corpus=corpus)\n")
    builds = []
    for seed in ("1", "2"):
        out = str(tmp_path / f"seed{seed}")
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        env.pop(ARTIFACT_ENV, None)
        subprocess.run([sys.executable, "-c", script, out], env=env,
                       check=True, timeout=300)
        builds.append(_entry_files(out))
    assert builds[0] and builds[0] == builds[1]
