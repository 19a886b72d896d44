"""AOT translation artifacts (:mod:`repro.aot`) and the registry fetcher.

The trust model under test: an artifact is untrusted input.  A valid
one makes a cold process serve its corpus with zero core translation
runs; a corrupt, unpicklable, or digest-stale one is quarantined with
an incident record and the run transparently falls back to dynamic
translation with byte-identical results.  A *missing* artifact the
user named is the one loud failure.  The registry fetcher is the same
contract one hop out: a local miss may be answered by a peer's cache,
counted as a hit (the fleet already paid the core run exactly once).
"""

from __future__ import annotations

import os
import pickle
import time

import pytest

from repro import aot, obs, perf
from repro.accelerator import PROPOSED_LA
from repro.errors import ArtifactError
from repro.faults.infra import CORRUPTION_MODES, corrupt_entry
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
    cache.set_fetcher(None)
    incident_log().clear()
    yield
    cache.set_fetcher(None)
    cache.detach_disk()
    perf.clear_caches()
    incident_log().clear()


def _corpus(count: int = 3) -> list[tuple]:
    kernels = [kernel for bench in media_fp_benchmarks()
               for kernel in bench.kernels][:count]
    return [(kernel, PROPOSED_LA, TranslationOptions())
            for kernel in kernels]


def _counter(name: str) -> int:
    return obs.metrics_snapshot()["counters"].get(name, 0)


def _build(tmp_path, corpus=None):
    path = str(tmp_path / "suite.rvaf")
    report = aot.build_artifact(path, corpus=corpus or _corpus())
    return path, report


# -- build / inspect / install round-trip -------------------------------------

def test_build_install_round_trip_zero_core_runs(tmp_path):
    corpus = _corpus()
    path, report = _build(tmp_path, corpus)
    assert report.entries >= len(corpus)
    assert report.core_runs > 0  # the build paid the translations
    assert os.path.exists(path)

    loaded = aot.load_artifact(path)
    assert loaded is not None
    assert loaded.entry_count == report.entries
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
    assert report.core_runs == 0  # snapshots the warm cache, no re-runs
    assert report.entries >= len(corpus)


def test_missing_artifact_is_a_loud_error(tmp_path):
    missing = str(tmp_path / "nope.rvaf")
    with pytest.raises(ArtifactError) as excinfo:
        aot.load_artifact(missing)
    assert excinfo.value.kind == "artifact"
    with pytest.raises(ArtifactError):
        aot.install(missing)
    # ...but an *unset* env var is simply "no AOT configured".
    assert aot.install_from_env({}) == 0


# -- corruption: quarantine + transparent fallback ----------------------------

@pytest.mark.parametrize("mode", CORRUPTION_MODES,
                         ids=lambda mode: mode.value)
def test_corrupt_artifact_quarantined_with_dynamic_fallback(tmp_path, mode):
    corpus = _corpus(2)
    perf.clear_caches()
    baseline = [translate_loop(*item) for item in corpus]
    path, _report = _build(tmp_path, corpus)
    detail = corrupt_entry(path, mode)
    assert detail

    perf.clear_caches()
    quarantined_before = _counter("aot.quarantined")
    assert aot.install(path) == 0  # nothing trusted, nothing adopted
    assert not os.path.exists(path)  # moved aside, not deleted
    quarantine_dir = tmp_path / integrity.QUARANTINE_DIRNAME
    assert any(quarantine_dir.iterdir())
    assert _counter("aot.quarantined") == quarantined_before + 1
    incident = incident_log().incidents[-1]
    assert incident.kind == "cache-corruption"
    assert incident.component == "aot"

    # The run proceeds dynamically and reproduces the same results.
    before = obs.metrics_snapshot()
    redone = [translate_loop(*item) for item in corpus]
    delta = obs.metrics_delta(before)["counters"]
    assert delta.get("translator.core_runs", 0) > 0
    for first, second in zip(baseline, redone):
        assert first.ok == second.ok
        assert first.meter.units == second.meter.units


def _write_bundle(path: str, bundle) -> None:
    integrity.write_atomic(path, integrity.frame(
        pickle.dumps(bundle, protocol=pickle.HIGHEST_PROTOCOL)))


@pytest.mark.parametrize("bundle,reason", [
    ({"bundle_version": 99, "digest_version": "x", "entries": {}},
     "bundle-version"),
    ({"bundle_version": 1, "digest_version": "veal-perf-0", "entries": {}},
     "digest-stale"),
    (["not", "a", "bundle"], "wrong-type"),
    ({"bundle_version": 1, "digest_version": "veal-perf-0",
      "entries": {"k": object()}}, "digest-stale"),
], ids=["bundle-version", "digest-stale", "wrong-type",
        "stale-before-entries"])
def test_untrusted_bundles_are_quarantined(tmp_path, bundle, reason):
    """A frame-valid artifact whose *bundle* cannot be trusted —
    future format, stale digest scheme, wrong payload type — is
    quarantined before any entry is adopted."""
    path = str(tmp_path / "suite.rvaf")
    _write_bundle(path, bundle)
    assert aot.load_artifact(path) is None
    assert not os.path.exists(path)
    incident = incident_log().incidents[-1]
    assert incident.kind == "cache-corruption"
    assert incident.details["reason"] == reason


def test_wrong_entry_type_is_quarantined(tmp_path):
    from repro.perf.digest import DIGEST_VERSION
    path = str(tmp_path / "suite.rvaf")
    _write_bundle(path, {"bundle_version": 1,
                         "digest_version": DIGEST_VERSION,
                         "entries": {"key": "not a CoreEntry"}})
    assert aot.load_artifact(path) is None
    assert incident_log().incidents[-1].details["reason"] == "wrong-type"


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
    # The dropped key was a real miss (re-derived, possibly via the
    # canonical max-II alias), never served as an artifact hit again.
    assert delta.get("transcache.misses", 0) == 1
    assert delta.get("aot.artifact_hits", 0) == 0


# -- the registry fetcher -----------------------------------------------------

def _steal_entry(item):
    """Translate *item* and return (key, entry), then reset the cache."""
    loop, config, options = item
    translate_loop(loop, config, options)
    key = translation_key(loop, config, options)
    entry = perf.translation_cache().peek(key)
    assert entry is not None
    perf.clear_caches()
    return key, entry


def test_fetcher_answers_a_miss_without_a_core_run():
    item = _corpus(1)[0]
    key, entry = _steal_entry(item)
    cache = perf.translation_cache()
    calls: list[str] = []

    def fetcher(wanted: str):
        calls.append(wanted)
        return entry if wanted == key else None

    cache.set_fetcher(fetcher)
    before = obs.metrics_snapshot()
    result = translate_loop(*item)
    delta = obs.metrics_delta(before)["counters"]
    assert result.ok
    assert calls == [key]
    assert delta.get("translator.core_runs", 0) == 0
    assert delta.get("aot.registry_hits", 0) == 1
    # A pull counts as a hit: some fleet member paid the core run.
    assert delta.get("transcache.hits", 0) >= 1
    # Stored: the next lookup is a plain memory hit, no second fetch.
    translate_loop(*item)
    assert calls == [key]


def test_fetcher_miss_and_error_fall_back_to_translation():
    item = _corpus(1)[0]
    cache = perf.translation_cache()

    cache.set_fetcher(lambda _key: None)
    before = obs.metrics_snapshot()
    assert translate_loop(*item) is not None
    delta = obs.metrics_delta(before)["counters"]
    assert delta.get("translator.core_runs", 0) > 0
    assert delta.get("aot.registry_misses", 0) >= 1

    def broken(_key):
        raise RuntimeError("registry down")

    perf.clear_caches()
    cache.set_fetcher(broken)
    before = obs.metrics_snapshot()
    assert translate_loop(*item) is not None
    delta = obs.metrics_delta(before)["counters"]
    assert delta.get("translator.core_runs", 0) > 0
    assert delta.get("aot.registry_errors", 0) >= 1


def test_fetcher_rejects_non_entry_payloads():
    item = _corpus(1)[0]
    cache = perf.translation_cache()
    cache.set_fetcher(lambda _key: "poison")
    before = obs.metrics_snapshot()
    assert translate_loop(*item) is not None
    delta = obs.metrics_delta(before)["counters"]
    assert delta.get("translator.core_runs", 0) > 0
    assert delta.get("aot.registry_errors", 0) >= 1


def test_fetcher_is_not_reentrant():
    """A fetcher that itself triggers a cache miss must not recurse:
    the inner lookup degrades to a local translate."""
    items = _corpus(2)
    cache = perf.translation_cache()
    depth: list[int] = []

    def reentrant(_key):
        depth.append(len(depth))
        # An inner miss while fetching: served locally, never re-fetched.
        assert cache.fetch_remote("no-such-key") is False
        return None

    cache.set_fetcher(reentrant)
    assert translate_loop(*items[0]) is not None
    assert len(depth) == 1


def test_fetcher_survives_clear_caches():
    cache = perf.translation_cache()
    fetcher = lambda _key: None  # noqa: E731
    cache.set_fetcher(fetcher)
    perf.clear_caches()
    assert perf.translation_cache().set_fetcher(None) is fetcher


# -- the wire op --------------------------------------------------------------

def test_artifact_fetch_wire_op_serves_the_local_cache():
    """`artifact-fetch` answers from the server's cache without a
    session, a dispatcher slot, or any translation — the shard-to-shard
    registry pull path, driven over real TCP."""
    from repro.service.client import LoopClient
    from repro.service.net import NetConfig, NetServer
    from repro.service.server import ServiceConfig

    item = _corpus(1)[0]
    loop, config, options = item
    key = translation_key(loop, config, options)
    translate_loop(*item)  # warm the (shared, in-process) global cache
    entry = perf.translation_cache().peek(key)
    assert entry is not None

    with NetServer(NetConfig(service=ServiceConfig(workers=1))) as server:
        with LoopClient(server.host, server.port,
                        session="registry-peer") as client:
            fetched = client.call("artifact-fetch", key)
            missed = client.call("artifact-fetch", "no-such-digest")
    assert missed is None
    assert fetched is not None
    assert fetched.loop_name == entry.loop_name
    assert fetched.meter_final == entry.meter_final
    assert _counter("aot.registry_serves") >= 1
    assert _counter("aot.registry_serve_misses") >= 1


def test_serve_with_artifact_pays_zero_core_runs(tmp_path):
    """The tentpole contract end to end: a cold server booted with an
    artifact answers its corpus without one core translation run."""
    from repro.service.client import LoopClient
    from repro.service.net import NetConfig, NetServer
    from repro.service.server import ServiceConfig

    corpus = _corpus()
    path, _report = _build(tmp_path, corpus)
    perf.clear_caches()
    before = obs.metrics_snapshot()
    with NetServer(NetConfig(service=ServiceConfig(
            workers=1, artifact_path=path))) as server:
        with LoopClient(server.host, server.port,
                        session="aot-cold") as client:
            for loop, config, options in corpus:
                assert client.translate(loop, config, options,
                                        deadline_s=120.0) is not None
    delta = obs.metrics_delta(before)["counters"]
    assert delta.get("translator.core_runs", 0) == 0
    assert delta.get("aot.artifact_hits", 0) >= len(corpus)
    assert delta.get("aot.entries_adopted", 0) > 0


def test_restarted_shard_pulls_a_missed_key_from_its_peer(tmp_path):
    """Fleet-warm cache end to end: a restarted shard pulls, never pays.

    Every shard installs the same artifact and registers a peer.  The
    corpus crosses the fleet with zero core runs.  A key outside the
    artifact is translated (its owner pays once), the owner is
    SIGKILLed, and the key is translated again during the outage (a
    survivor pays once, so the fleet holds the entry).  Once the fleet
    heals, the restarted owner serves the key with zero core runs and
    at least one registry hit: it pulled the entry from its peer.
    """
    from repro.service.client import LoopClient, RetryPolicy
    from repro.service.cluster import (ClusterClient, ClusterConfig,
                                       ShardSupervisor)
    from repro.service.server import ServiceConfig

    # The cluster layer owns failover, so the per-connection breaker
    # must never latch open.
    retry = RetryPolicy(attempts=2, base_delay_s=0.02, max_delay_s=0.2,
                        attempt_timeout_s=60.0, breaker_threshold=1 << 30)
    corpus = _corpus()
    extra = (corpus[0][0], PROPOSED_LA.with_(num_int_units=1),
             TranslationOptions())
    path, _report = _build(tmp_path, corpus)
    assert translation_key(*extra) not in aot.load_artifact(path).entries
    perf.clear_caches()
    supervisor = ShardSupervisor(ClusterConfig(
        shards=2,
        service=ServiceConfig(workers=1, artifact_path=path))).start()
    try:
        host, port = supervisor.seed_address()
        with ClusterClient(host, port, session="registry-probe",
                           shard_retry=retry).connect() as client:
            for loop, config, options in corpus:
                client.translate(loop, config, options, deadline_s=120.0)
            corpus_core_runs = sum(
                s["counters"].get("translator.core_runs", 0)
                for s in supervisor.shard_stats().values())
            # The owner pays the single core run for the extra key.
            client.translate(*extra, deadline_s=120.0)
            owners = [sid for sid, s in supervisor.shard_stats().items()
                      if s["counters"].get("translator.core_runs", 0)]
            owner = owners[0] if owners else 0
            supervisor.kill_shard(owner)
            # Failover routes to a survivor, which pays the core run.
            client.translate(*extra, deadline_s=120.0)
        healed = supervisor.wait_converged(60.0)
        # Ask the restarted owner directly: it owns the key again,
        # misses locally and must pull from its registry peer.  Retry
        # briefly: the shard accepts connections a beat before the
        # pushed shard map lands.
        info = supervisor.map.shards[owner]
        deadline = time.monotonic() + 15.0
        while True:
            try:
                with LoopClient(info.host, info.port,
                                session="registry-probe-direct",
                                retry=retry) as direct:
                    direct.translate(*extra, deadline_s=120.0)
                break
            except Exception:  # noqa: BLE001 — map push race
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.2)
        restarted = supervisor.shard_stats()[owner]["counters"]
    finally:
        supervisor.stop()
    assert corpus_core_runs == 0
    assert restarted.get("translator.core_runs", 0) == 0
    assert restarted.get("aot.registry_hits", 0) >= 1
    assert healed
    assert supervisor.orphan_pids() == []


# -- CLI ----------------------------------------------------------------------

def test_cli_aot_build_inspect_and_cache_gc(tmp_path, capsys, monkeypatch):
    from repro.cli import main
    path = str(tmp_path / "suite.rvaf")
    # Building must not require the artifact to already exist, even
    # when REPRO_ARTIFACT points at it (the bootstrap strips it).
    monkeypatch.setenv(aot.ARTIFACT_ENV, path)
    assert main(["aot", "build", "--output", path]) == 0
    out = capsys.readouterr().out
    assert "artifact written" in out
    assert main(["aot", "inspect", path]) == 0
    assert "entries across" in capsys.readouterr().out
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    assert main(["cache", "gc", "--dir", str(cache_dir)]) == 0
    assert "cache gc" in capsys.readouterr().out


def test_cli_aot_inspect_missing_artifact_fails_loud(tmp_path, capsys):
    from repro.cli import main
    assert main(["aot", "inspect", str(tmp_path / "nope.rvaf")]) == 2
    assert "does not exist" in capsys.readouterr().err
