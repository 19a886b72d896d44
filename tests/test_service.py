"""The loop-acceleration service: dedup, admission control, identity."""

from __future__ import annotations

import pytest

from repro import api, obs, perf
from repro.accelerator import PROPOSED_LA
from repro.errors import (
    AdmissionRejected,
    ServiceClosed,
    ServiceOverload,
    SessionBudgetExceeded,
)
from repro.resilience.incidents import incident_log
from repro.service import LoopService, ServiceConfig
from repro.vm.translator import TranslationOptions, translate_loop
from repro.workloads import kernels as K


@pytest.fixture(autouse=True)
def _clean_slate():
    perf.clear_caches()
    incident_log().clear()
    yield
    perf.clear_caches()
    incident_log().clear()
    incident_log().configure_sink(None)


def test_translate_identity_with_direct_path():
    from repro.accelerator import PROPOSED_LA
    loop = K.fir_filter(taps=4)
    with LoopService(ServiceConfig(workers=1)) as service:
        session = service.open_session("t")
        served = session.translate(loop).result(timeout=60)
    perf.clear_caches()
    direct = translate_loop(loop, PROPOSED_LA, TranslationOptions())
    assert served.ok and direct.ok
    assert served.image.ii == direct.image.ii
    assert served.image.schedule.times == direct.image.schedule.times
    assert served.meter.total_units() == direct.meter.total_units()


def test_run_loop_identity_with_direct_path():
    loop = K.checksum(trip_count=64)
    with LoopService(ServiceConfig(workers=1)) as service:
        session = service.open_session("r")
        served = session.run_loop(loop, seed=77).result(timeout=60)
    perf.clear_caches()
    assert served == api.run_loop(loop, seed=77)


def test_single_flight_translates_each_digest_once():
    loop = K.fir_filter(taps=4)
    service = LoopService(ServiceConfig(workers=1))
    one = service.open_session("one")
    two = service.open_session("two")
    # Queue identical requests from two sessions BEFORE starting the
    # dispatcher: every duplicate is provably pending concurrently.
    futures = [s.translate(loop) for s in (one, two) for _ in range(3)]
    before = obs.metrics_snapshot()
    service.start()
    results = [f.result(timeout=60) for f in futures]
    stats = service.close()
    counters = obs.metrics_delta(before)["counters"]
    assert counters.get("translator.core_runs", 0) == 1
    assert stats.translated == 1
    assert stats.dedup_hits == len(futures) - 1
    assert all(r.image.ii == results[0].image.ii for r in results)


def test_one_key_derivation_per_translate_request(monkeypatch):
    """Admission, single-flight dedup and the translator share one
    derivation of the request's cache keys.  Each request carries a
    fresh unpickled copy, as a loop decoded off the wire does, so the
    server derives the digest from the received content itself."""
    import pickle

    from repro.perf.digest import loop_digest
    from repro.service.admission import AdmissionPolicy
    from repro.vm import translator

    loop = K.fir_filter(taps=4)
    translate_loop(loop, PROPOSED_LA, TranslationOptions())  # now cached
    calls = []
    projection = translator._schedule_projection
    monkeypatch.setattr(
        translator, "_schedule_projection",
        lambda *args: calls.append(args[0]) or projection(*args))
    # Watermark 0: every submission is saturated, so admission consults
    # the (cached) key before admitting it.
    service = LoopService(ServiceConfig(
        workers=1, admission=AdmissionPolicy(high_watermark=0.0)))
    session = service.open_session("keys")
    copies = [pickle.loads(pickle.dumps(loop)) for _ in range(4)]
    futures = [session.translate(copy) for copy in copies]
    service.start()
    results = [f.result(timeout=60) for f in futures]
    stats = service.close()
    assert stats.admission.get("ok-cached") == len(copies)
    assert all(r.ok for r in results)
    assert calls == copies
    assert all(loop_digest(copy) == loop_digest(loop) for copy in copies)


def test_hold_parks_dispatch_until_released():
    loop = K.fir_filter(taps=4)
    with LoopService(ServiceConfig(workers=1)) as service:
        session = service.open_session("held")
        with service.hold():
            futures = [session.translate(loop) for _ in range(2)]
            with pytest.raises(TimeoutError):
                futures[0].result(timeout=0.2)
            assert not any(f.done() for f in futures)
        assert all(f.result(timeout=60).ok for f in futures)


def test_failed_translation_is_not_admitted_as_cached_work(monkeypatch):
    """A translation that raised leaves nothing in the cache, so under
    load a later copy must be graded as uncached work, not waved
    through as ``ok-cached`` to pay (and fail) the translation again."""
    from repro.service import server as server_mod
    from repro.service.admission import AdmissionPolicy
    from repro.vm.translator import translation_key

    def broken(*_args):
        raise RuntimeError("translator crashed")

    monkeypatch.setattr(server_mod, "translate_loop", broken)
    loop = K.fir_filter(taps=4)
    # Low watermark 0: every priority-0 submission is shed unless it
    # is cached work; priority-1 sessions are admitted as usual.
    service = LoopService(ServiceConfig(
        admission=AdmissionPolicy(low_watermark=0.0))).start()
    try:
        first = service.open_session("standard").translate(loop)
        with pytest.raises(RuntimeError, match="translator crashed"):
            first.result(timeout=60)
        with pytest.raises(AdmissionRejected) as info:
            service.open_session("best-effort", priority=0) \
                .translate(loop)
        assert info.value.decision == "shed-low-priority"
    finally:
        stats = service.close()
    key = translation_key(loop, PROPOSED_LA, TranslationOptions())
    assert perf.translation_cache().peek(key) is None
    assert stats.admission.get("ok-cached") is None
    assert stats.translated == 0


def test_service_config_allows_only_one_worker():
    from repro.errors import SettingsError
    assert ServiceConfig(workers=1).workers == 1
    with pytest.raises(SettingsError, match="scale out with shards"):
        ServiceConfig(workers=2)


def test_overload_rejects_and_records_incident():
    loop = K.fir_filter(taps=4)
    service = LoopService(ServiceConfig(workers=1, queue_depth=2))
    session = service.open_session("burst")
    # Not started: nothing drains the queue, so the third submission
    # must be refused at admission rather than queued unboundedly.
    session.translate(loop)
    session.translate(loop)
    with pytest.raises(ServiceOverload) as info:
        session.translate(loop)
    # Admission control refines the blanket overload: the typed
    # rejection names the decision and hints when to come back.
    assert isinstance(info.value, AdmissionRejected)
    assert info.value.kind == "admission-rejected"
    assert info.value.decision == "queue-full"
    assert info.value.retry_after > 0.0
    overloads = [i for i in incident_log().incidents
                 if i.kind == "service-overload"]
    assert len(overloads) == 1
    # Every shed request is diagnosable from the incident log alone.
    details = overloads[0].details
    assert details["session"] == "burst"
    assert details["queue_depth"] == 2
    assert details["decision"] == "queue-full"
    stats = service.close(drain=False)
    assert stats.rejected_overload == 1
    assert stats.admission.get("queue-full") == 1


def test_session_budget_exhaustion():
    loop = K.fir_filter(taps=4)
    with LoopService(ServiceConfig(workers=1)) as service:
        session = service.open_session("metered", budget_units=1)
        first = session.translate(loop).result(timeout=60)
        assert first.meter.total_units() > 1  # charge landed post-hoc
        with pytest.raises(SessionBudgetExceeded) as info:
            session.translate(loop)
        assert info.value.kind == "session-budget"
    budget_incidents = [i for i in incident_log().incidents
                        if i.kind == "session-budget"]
    assert len(budget_incidents) == 1


def test_closed_service_refuses_submissions():
    loop = K.fir_filter(taps=4)
    service = LoopService(ServiceConfig(workers=1)).start()
    session = service.open_session("s")
    session.translate(loop).result(timeout=60)
    stats = service.close()
    assert stats.drained
    with pytest.raises(ServiceClosed):
        session.translate(loop)


def test_close_without_drain_fails_pending_futures():
    loop = K.fir_filter(taps=4)
    service = LoopService(ServiceConfig(workers=1))  # never started
    future = service.open_session("s").translate(loop)
    service.close(drain=False)
    with pytest.raises(ServiceClosed):
        future.result(timeout=60)


def test_figure_via_service_is_byte_identical():
    with LoopService(ServiceConfig(workers=1)) as service:
        served = service.open_session("fig").run_figure("fig2") \
            .result(timeout=300)
    perf.clear_caches()
    assert served == api.run_figure("fig2")


def test_request_corpus_names_84_keys_in_168_requests():
    """The service traffic's shape: a change to it is a change to the
    service benchmark's hot set, so it must be deliberate."""
    from repro.service.loadgen import request_corpus
    from repro.vm.translator import translation_key

    corpus = request_corpus()
    assert len(corpus) == 168
    assert len({translation_key(*request) for request in corpus}) == 84
