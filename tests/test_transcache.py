"""The content-addressed translation cache: keys, sharing, exactness.

Covers the tentpole's second layer (see DESIGN.md, "Performance
engineering"): stable content digests, the capacity-factored key that
lets one core run serve a whole register sweep, the max-II canonical
aliasing, the exact-max-II fallback for clamped scheduling failures,
deoptimisation invalidation, and the on-disk layer (including typed
failures surviving a pickle round-trip with their attributes).
"""

from __future__ import annotations

import pytest

from repro import perf
from repro.accelerator.config import INFINITE_LA, PROPOSED_LA
from repro.errors import SchedulingError
from repro.perf.digest import loop_digest
from repro.perf.transcache import CoreEntry, MeterSnapshot
from repro.vm.translator import (
    TranslationOptions,
    _schedule_projection,
    invalidate_translation,
    translate_loop,
    translation_key,
)
from repro.workloads.generator import GeneratorSpec, generate_loop
from repro.workloads.suite import media_fp_benchmarks


@pytest.fixture(autouse=True)
def clean_cache():
    perf.clear_caches()
    perf.translation_cache().detach_disk()
    yield
    perf.clear_caches()
    perf.translation_cache().detach_disk()


def _spec_loop(seed=11, **kw):
    return generate_loop(GeneratorSpec(n_ops=12, n_load_streams=2,
                                       n_store_streams=1, seed=seed, **kw))


def _suite_loop(name=None):
    for bench in media_fp_benchmarks():
        for loop in bench.kernels:
            if name is None or loop.name == name:
                return loop


def test_loop_digest_is_content_addressed():
    """Two independently built, structurally identical loops digest
    identically; any structural change digests differently."""
    assert loop_digest(_spec_loop()) == loop_digest(_spec_loop())
    assert loop_digest(_spec_loop()) != loop_digest(_spec_loop(seed=12))
    changed = _spec_loop()
    changed.trip_count += 1
    assert loop_digest(changed) != loop_digest(_spec_loop())


def test_identical_translations_share_one_core_run():
    loop = _suite_loop()
    stats = perf.translation_cache().stats
    first = translate_loop(loop, PROPOSED_LA)
    assert stats.misses == 1
    second = translate_loop(loop, PROPOSED_LA)
    assert stats.misses == 1 and stats.hits >= 1
    assert first.ok == second.ok
    assert first.meter.units == second.meter.units


def test_register_capacities_are_factored_out_of_the_key():
    """A whole register sweep shares one cached schedule: capacities
    only gate the final fits() check, re-applied per caller."""
    loop = _suite_loop()
    keys = {translation_key(loop, INFINITE_LA.with_(num_int_regs=k,
                                                    num_fp_regs=k))
            for k in (1, 2, 8, 32, 1 << 20)}
    assert len(keys) == 1
    stats = perf.translation_cache().stats
    outcomes = [translate_loop(loop, INFINITE_LA.with_(num_int_regs=k,
                                                       num_fp_regs=k))
                for k in (1, 2, 8, 32, 1 << 20)]
    assert stats.misses == 1  # one core run served every point
    assert outcomes[-1].ok
    starved = [r for r in outcomes if not r.ok]
    for result in starved:
        assert result.failure_kind == "register-pressure"
        assert result.failure_reason.loop_name == loop.name


def test_cosmetic_config_fields_do_not_change_the_key():
    loop = _suite_loop()
    assert translation_key(loop, PROPOSED_LA) == \
        translation_key(loop, PROPOSED_LA.with_(name="other",
                                                bus_latency=9,
                                                code_cache_entries=3))


def test_max_ii_points_alias_onto_the_canonical_schedule():
    """Once a loop schedules under its full II bound, every max-II
    sweep point at or above the achieved II reuses that schedule."""
    loop = _suite_loop()
    stats = perf.translation_cache().stats
    full = translate_loop(loop, INFINITE_LA)
    assert full.ok and stats.misses == 1
    achieved = full.image.schedule.ii
    clamped = translate_loop(loop, INFINITE_LA.with_(max_ii=achieved + 1))
    assert stats.misses == 1  # served by canonical aliasing, no re-run
    assert clamped.ok
    assert clamped.image.schedule.ii == achieved
    assert clamped.meter.units == full.meter.units
    # The rebound image reports the caller's true config, not the clamp.
    assert clamped.image.config.max_ii == achieved + 1


def test_ii_exhaustion_under_a_clamp_forces_exact_retranslation():
    """A scheduling failure under a clamped max II proves nothing about
    the true bound (its message even embeds the clamp), so the cache
    must re-derive at the exact max II instead of serving it."""
    loop = _suite_loop()
    config = INFINITE_LA  # max_ii far above any loop's own II bound
    core_config, ii_bound = _schedule_projection(
        loop, config, TranslationOptions())
    assert core_config.max_ii == ii_bound < config.max_ii
    # Seed the clamped key with a (synthetic) exhausted-II failure.
    poisoned = CoreEntry(
        loop_name=loop.name,
        failure=SchedulingError(
            f"no feasible schedule up to maximum II {ii_bound}",
            loop_name=loop.name),
        ii_exhausted=True,
        meter_final=MeterSnapshot({"scheduling": 5}, 5))
    perf.translation_cache().put(
        translation_key(loop, config), poisoned)
    stats = perf.translation_cache().stats
    result = translate_loop(loop, config)
    assert stats.exact_fallbacks == 1
    assert result.ok  # the exact run sees the true bound and succeeds


def test_invalidation_drops_the_entry():
    loop = _suite_loop()
    translate_loop(loop, PROPOSED_LA)
    assert invalidate_translation(loop, PROPOSED_LA)
    assert not invalidate_translation(loop, PROPOSED_LA)
    stats = perf.translation_cache().stats
    misses_before = stats.misses
    translate_loop(loop, PROPOSED_LA)
    assert stats.misses == misses_before + 1  # really recomputed


def test_disk_layer_round_trips_success_and_typed_failure(tmp_path):
    cache = perf.translation_cache()
    cache.attach_disk(str(tmp_path))
    loop = _suite_loop()
    ok_config = INFINITE_LA
    fail_config = INFINITE_LA.with_(load_streams=0, load_addr_gens=0)
    warm_ok = translate_loop(loop, ok_config)
    warm_fail = translate_loop(loop, fail_config)
    assert warm_ok.ok and not warm_fail.ok

    # A "new process": same disk directory, empty memory layer.
    cache.clear()
    cache.attach_disk(str(tmp_path))
    stats = cache.stats
    cold_ok = translate_loop(loop, ok_config)
    cold_fail = translate_loop(loop, fail_config)
    assert stats.disk_hits >= 2
    assert cold_ok.ok
    assert cold_ok.image.schedule.ii == warm_ok.image.schedule.ii
    assert cold_ok.meter.units == warm_ok.meter.units
    # Typed failures keep their attributes through pickling: the
    # default Exception reduce would replay cls(message) and drop them.
    assert cold_fail.failure_kind == warm_fail.failure_kind
    assert cold_fail.failure == warm_fail.failure
    assert cold_fail.failure_reason.loop_name == loop.name


def _plant_entry(path, name, size=64, mtime=None):
    full = path / name
    full.write_bytes(b"x" * size)
    if mtime is not None:
        import os
        os.utime(full, (mtime, mtime))
    return full


def test_gc_sweeps_version_stale_entries(tmp_path):
    """A stamp naming an older DIGEST_VERSION means every entry is
    unreachable dead weight (the bug: a version bump stranded them
    forever) — the sweep removes them all and rewrites the stamp."""
    from repro.perf.digest import DIGEST_VERSION
    from repro.perf.transcache import STAMP_NAME, gc_disk_dir
    from repro.resilience.integrity import QUARANTINE_DIRNAME
    (tmp_path / STAMP_NAME).write_text("veal-perf-1\n")
    _plant_entry(tmp_path, "dead1.pkl")
    _plant_entry(tmp_path, "dead2.pkl")
    _plant_entry(tmp_path, "orphan.pkl.tmp")  # crash evidence: kept
    quarantine = tmp_path / QUARANTINE_DIRNAME
    quarantine.mkdir()
    _plant_entry(quarantine, "evidence.pkl")  # diagnostic: never touched

    summary = gc_disk_dir(str(tmp_path))
    assert summary["stale"] == 2
    assert summary["evicted"] == 0
    assert summary["bytes_freed"] == 128
    assert not (tmp_path / "dead1.pkl").exists()
    assert (tmp_path / "orphan.pkl.tmp").exists()
    assert (quarantine / "evidence.pkl").exists()
    assert (tmp_path / STAMP_NAME).read_text().strip() == DIGEST_VERSION
    from repro.resilience.incidents import incident_log
    incident = incident_log().incidents[-1]
    assert incident.kind == "cache-gc"
    # Idempotent: a second sweep finds a current stamp, nothing stale.
    assert gc_disk_dir(str(tmp_path))["stale"] == 0


def test_gc_adopts_unstamped_directories_without_sweeping(tmp_path):
    """A pre-GC-era directory (no stamp) is adopted as-is: the stamp
    is written but nothing is presumed stale."""
    from repro.perf.digest import DIGEST_VERSION
    from repro.perf.transcache import STAMP_NAME, gc_disk_dir
    _plant_entry(tmp_path, "live.pkl")
    summary = gc_disk_dir(str(tmp_path))
    assert summary["stale"] == 0 and summary["evicted"] == 0
    assert summary["kept"] == 1
    assert (tmp_path / "live.pkl").exists()
    assert (tmp_path / STAMP_NAME).read_text().strip() == DIGEST_VERSION


def test_gc_enforces_size_budget_oldest_first(tmp_path):
    from repro.perf.transcache import gc_disk_dir
    _plant_entry(tmp_path, "oldest.pkl", size=100, mtime=100)
    _plant_entry(tmp_path, "middle.pkl", size=100, mtime=200)
    _plant_entry(tmp_path, "newest.pkl", size=100, mtime=300)
    summary = gc_disk_dir(str(tmp_path), budget=150)
    assert summary["evicted"] == 2
    assert summary["kept"] == 1 and summary["kept_bytes"] == 100
    assert not (tmp_path / "oldest.pkl").exists()
    assert not (tmp_path / "middle.pkl").exists()
    assert (tmp_path / "newest.pkl").exists()
    # Under budget: a re-sweep removes nothing.
    assert gc_disk_dir(str(tmp_path), budget=150)["evicted"] == 0


def test_gc_budget_override_and_env(monkeypatch):
    from repro.perf import transcache as tc
    monkeypatch.setenv(tc.CACHE_BUDGET_ENV, "1024")
    assert tc.effective_gc_budget() == 1024
    monkeypatch.setenv(tc.CACHE_BUDGET_ENV, "bogus")
    assert tc.effective_gc_budget() == tc.DEFAULT_GC_BUDGET
    tc.set_gc_budget(2048)
    try:
        assert tc.effective_gc_budget() == 2048
    finally:
        tc.set_gc_budget(None)
    assert tc.effective_gc_budget() == tc.DEFAULT_GC_BUDGET


def test_attach_disk_runs_the_sweep_and_keeps_live_entries(tmp_path):
    """attach_disk garbage-collects: stale files die at attach time,
    while current-version entries written by a real translation
    survive a detach/re-attach cycle."""
    from repro.perf.transcache import STAMP_NAME, gc_disk_dir
    (tmp_path / STAMP_NAME).write_text("veal-perf-1\n")
    _plant_entry(tmp_path, "stranded.pkl")
    cache = perf.translation_cache()
    cache.attach_disk(str(tmp_path))
    assert not (tmp_path / "stranded.pkl").exists()

    loop = _suite_loop()
    translate_loop(loop, PROPOSED_LA)
    stored = [p for p in tmp_path.iterdir() if p.suffix == ".pkl"]
    assert stored
    cache.clear()
    cache.attach_disk(str(tmp_path))  # "new process", same stamp
    assert all(p.exists() for p in stored)
    stats = cache.stats
    translate_loop(loop, PROPOSED_LA)
    assert stats.disk_hits >= 1
    # The sweep itself never counted the live entry as removable.
    assert gc_disk_dir(str(tmp_path))["stale"] == 0


def _sweep_configs():
    """Every Figure 3/4 design point, plus the infinite baseline."""
    from repro.cca.model import DEFAULT_CCA
    from repro.experiments import sweeps as S
    configs = [INFINITE_LA]
    for k in S.INT_UNIT_POINTS:
        configs.append(INFINITE_LA.with_(num_int_units=k, num_ccas=0))
        configs.append(INFINITE_LA.with_(num_int_units=k, num_ccas=1,
                                         cca=DEFAULT_CCA))
    configs += [INFINITE_LA.with_(num_fp_units=k) for k in S.FP_UNIT_POINTS]
    for k in S.REGISTER_POINTS:
        configs.append(INFINITE_LA.with_(num_int_regs=k))
        configs.append(INFINITE_LA.with_(num_fp_regs=k))
    configs += [INFINITE_LA.with_(load_streams=k)
                for k in S.LOAD_STREAM_POINTS]
    configs += [INFINITE_LA.with_(store_streams=k)
                for k in S.STORE_STREAM_POINTS]
    configs += [INFINITE_LA.with_(max_ii=k) for k in S.MAX_II_POINTS]
    return configs


def test_memoised_keys_equal_the_derived_formula(monkeypatch):
    """The per-loop key memo is a pure cache of the digest formula, on
    the original loop, on a pickled copy and on a memo hit alike, for
    every Figure 10 option set sharing one loop's memo."""
    import pickle

    from repro.perf.digest import digest_of, options_digest
    from repro.vm import translator
    from repro.vm.translator import _cached_core, _cache_keys

    stub = CoreEntry(loop_name="stub", failure=SchedulingError("stub"),
                     meter_final=MeterSnapshot({}, 0))
    monkeypatch.setattr(translator, "_translate_core",
                        lambda loop, core_config, options: stub)
    cache = perf.translation_cache()
    inputs = [(config, options) for config in _sweep_configs()
              for options in (TranslationOptions.fully_dynamic(),
                              TranslationOptions.fully_dynamic_height(),
                              TranslationOptions.hybrid())]
    for bench in media_fp_benchmarks():
        for loop in bench.kernels:
            expected = []
            for config, options in inputs:
                core, ii_bound = _schedule_projection(loop, config, options)
                key = digest_of("core", loop_digest(loop), core,
                                options_digest(options))
                canon = None if core.max_ii >= ii_bound else digest_of(
                    "core", loop_digest(loop), core.with_(max_ii=ii_bound),
                    options_digest(options))
                expected.append(key)
                assert tuple(_cache_keys(loop, config, options)) == \
                    (core, ii_bound, key, canon)
                assert translation_key(loop, config, options) == key
                assert _cached_core(loop, config, options) \
                    is cache.peek(key)
            copy = pickle.loads(pickle.dumps(loop))
            assert not [k for k in vars(copy) if k.startswith("_veal_")]
            for (config, options), key in zip(inputs, expected):
                assert translation_key(copy, config, options) == key
                assert translation_key(loop, config, options) == key


def test_concurrent_callers_share_one_suite_and_one_key_memo():
    """Threads racing a cold suite and cold key memos all get the same
    Benchmark objects, identical keys, and one memo entry per config."""
    import sys
    import threading

    configs = _sweep_configs()[:6]
    results = [None] * 4

    def work(index):
        suite = media_fp_benchmarks()
        results[index] = (suite, [translation_key(loop, config)
                                  for bench in suite
                                  for loop in bench.kernels
                                  for config in configs])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    suite, keys = results[0]
    for other_suite, other_keys in results[1:]:
        assert all(a is b for a, b in zip(other_suite, suite, strict=True))
        assert other_keys == keys
    for bench in suite:
        for loop in bench.kernels:
            assert len(loop.__dict__["_veal_cache_keys"]) == len(configs)


def test_unpickling_drops_planted_memos():
    """A crafted pickle cannot plant a digest or key memo: the receiver
    always derives them from the loop's own content."""
    from repro.ir.loop import Loop
    loop = _suite_loop()
    key = translation_key(loop, PROPOSED_LA)
    state = dict(loop.__dict__)
    assert "_veal_loop_digest" in state and "_veal_cache_keys" in state
    state["_veal_loop_digest"] = "0" * 64
    state["_veal_cache_keys"] = {}
    forged = Loop.__new__(Loop)
    forged.__setstate__(state)
    assert loop_digest(forged) == loop_digest(loop)
    assert translation_key(forged, PROPOSED_LA) == key


def test_engine_off_and_on_agree_on_meter_and_image():
    """Spot-check of the differential property the engine guarantees:
    the cached path is observationally the reference path."""
    for config in (PROPOSED_LA, INFINITE_LA.with_(num_int_units=2),
                   INFINITE_LA.with_(max_ii=3)):
        for loop in [_suite_loop(), _spec_loop()]:
            perf.set_engine_enabled(False)
            try:
                ref = translate_loop(loop, config)
            finally:
                perf.set_engine_enabled(True)
            eng = translate_loop(loop, config)
            assert ref.ok == eng.ok
            assert ref.failure == eng.failure
            assert ref.meter.units == eng.meter.units
            if ref.ok:
                assert ref.image.schedule.times == eng.image.schedule.times
                assert ref.image.schedule.units == eng.image.schedule.units
                assert ref.image.config == eng.image.config
                assert ref.image.registers == eng.image.registers
