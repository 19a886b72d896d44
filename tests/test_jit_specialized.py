"""The kernel specialization tier (:mod:`repro.accelerator.jit`).

Differential coverage: every workload kernel runs through the scalar
interpreter, the event-driven overlapped executor, and the specialized
compiled function; all three must agree bit-for-bit on live-outs and
memory, and the closed-form timing facts must equal the event
simulation's.  Plus the deopt contract: an injected guard mismatch
must fall back to the scalar reference, count a ``vm.deopt``, and
invalidate the compiled kernel.
"""

from __future__ import annotations

import pytest

from repro import obs, perf
from repro.accelerator import PROPOSED_LA, execute_overlapped
from repro.accelerator import jit
from repro.cpu import Interpreter, standard_live_ins
from repro.vm.guard import GuardConfig, GuardedExecutor
from repro.vm.translator import translate_loop
from repro.workloads.suite import DEFAULT_SCALARS, all_benchmarks
from tests.conftest import seeded_memory


def _unique_kernels():
    seen: set[str] = set()
    kernels = []
    for bench in all_benchmarks():
        for loop in bench.kernels:
            if loop.name in seen:
                continue
            seen.add(loop.name)
            kernels.append(loop)
    return kernels


KERNELS = _unique_kernels()


def _small(loop, trip_cap: int = 24):
    small = loop.rebuild()
    small.trip_count = min(loop.trip_count, trip_cap)
    return small


@pytest.fixture(autouse=True)
def _fresh_code_cache():
    jit.clear_code_cache()
    yield
    jit.clear_code_cache()
    jit.set_test_corruption(None)


def _counter(name: str) -> int:
    return obs.metrics_snapshot()["counters"].get(name, 0)


# -- differential: interpreter vs overlapped vs specialized -------------------

@pytest.mark.parametrize("loop", KERNELS, ids=lambda loop: loop.name)
def test_specialized_matches_interpreter_and_overlapped(loop):
    small = _small(loop)
    result = translate_loop(small, PROPOSED_LA)
    if not result.ok:
        pytest.skip(f"not translatable: {result.failure}")
    if small.annotations.get("while_loop"):
        pytest.skip("while loop: trips are speculative, never specialized")
    trips = small.trip_count

    mem_ref = seeded_memory(small, seed=7)
    live = standard_live_ins(small, mem_ref, DEFAULT_SCALARS)
    ref = execute_overlapped(result.image, mem_ref, live, trip_count=trips)

    mem_spec = seeded_memory(small, seed=7)
    with perf.engine_at(2):
        spec = jit.execute_pipelined(result.image, mem_spec, live,
                                     trip_count=trips)
    # The specialized kernel must actually have run (no silent
    # fallback hiding behind the reference executor's identical output).
    assert _counter("vm.specialized") == 1, \
        f"{loop.name} fell back instead of specializing"

    assert spec.live_outs == ref.live_outs
    assert mem_spec.snapshot() == mem_ref.snapshot()
    assert spec.iterations == ref.iterations
    assert spec.cycles == ref.cycles
    assert spec.max_inflight_iterations == ref.max_inflight_iterations
    assert spec.utilization == ref.utilization


@pytest.mark.parametrize("loop", KERNELS, ids=lambda loop: loop.name)
def test_specialized_agrees_with_the_interpreter(loop):
    """Guard-grade ground truth at the loop's natural trip count.

    ``differential_check`` runs the scalar interpreter (the branch
    decides when to stop) against the tier-aware pipelined executor —
    at engine level 2 that cross-checks the generated code itself.
    """
    from repro.vm.guard import differential_check
    if loop.annotations.get("while_loop"):
        pytest.skip("while loop: never specialized")
    result = translate_loop(loop, PROPOSED_LA)
    if not result.ok:
        pytest.skip(f"not translatable: {result.failure}")
    memory = seeded_memory(loop, seed=7)
    live = standard_live_ins(loop, memory, DEFAULT_SCALARS)
    with perf.engine_at(2):
        outcome = differential_check(result.image, memory, live)
    assert _counter("vm.specialized") == 1, \
        f"{loop.name} fell back instead of specializing"
    assert outcome.verdict.ok, outcome.verdict.describe()


def test_level_one_never_specializes():
    loop = _small(KERNELS[0])
    result = translate_loop(loop, PROPOSED_LA)
    assert result.ok
    memory = seeded_memory(loop, seed=7)
    live = standard_live_ins(loop, memory, DEFAULT_SCALARS)
    with perf.engine_at(1):
        run = jit.execute_pipelined(result.image, memory, live,
                                    trip_count=loop.trip_count)
    assert _counter("vm.specialized") == 0
    assert jit.code_cache_stats()["entries"] == 0
    reference = execute_overlapped(result.image, seeded_memory(loop, seed=7),
                                   live, trip_count=loop.trip_count)
    assert run.live_outs == reference.live_outs
    assert run.cycles == reference.cycles


# -- code cache ---------------------------------------------------------------

def _first_translatable():
    for loop in KERNELS:
        small = _small(loop)
        if small.annotations.get("while_loop"):
            continue
        result = translate_loop(small, PROPOSED_LA)
        if result.ok:
            return small, result.image
    pytest.skip("no translatable kernel in the suite")


def test_code_cache_hits_on_same_digest_and_trips():
    small, image = _first_translatable()
    first = jit.kernel_for(image, small.trip_count)
    assert first is not None
    assert jit.code_cache_stats()["compiled"] >= 1
    before_hits = jit.code_cache_stats()["hits"]
    second = jit.kernel_for(image, small.trip_count)
    assert second is first
    assert jit.code_cache_stats()["hits"] == before_hits + 1
    # A different trip count is a different specialization.
    if small.trip_count > 1:
        other = jit.kernel_for(image, small.trip_count - 1)
        assert other is not None and other is not first


def test_invalidate_loop_drops_entries_and_counts_deopts():
    small, image = _first_translatable()
    assert jit.kernel_for(image, small.trip_count) is not None
    dropped = jit.invalidate_image(image)
    assert dropped >= 1
    assert jit.code_cache_stats()["entries"] == 0
    assert jit.code_cache_stats()["deopts"] >= 1
    assert _counter("vm.specialize_deopt") == dropped
    # Idempotent: nothing left to drop.
    assert jit.invalidate_image(image) == 0


def test_clear_caches_clears_the_code_cache():
    small, image = _first_translatable()
    assert jit.kernel_for(image, small.trip_count) is not None
    assert jit.code_cache_stats()["entries"] >= 1
    perf.clear_caches()
    assert jit.code_cache_stats()["entries"] == 0


def test_unsupported_shapes_are_negative_cached():
    small, image = _first_translatable()
    image.loop.annotations["while_loop"] = True
    try:
        with pytest.raises(jit.SpecializationUnsupported):
            jit.specialize(image, small.trip_count)
        assert jit.kernel_for(image, small.trip_count) is None
        unsupported = jit.code_cache_stats()["unsupported"]
        assert unsupported >= 1
        # The negative entry short-circuits recompilation attempts.
        assert jit.kernel_for(image, small.trip_count) is None
        assert jit.code_cache_stats()["unsupported"] == unsupported
    finally:
        image.loop.annotations.pop("while_loop", None)


def test_code_cache_is_a_bounded_lru(monkeypatch):
    """Regression: one long-lived loop seen at many distinct trip
    counts (`_image_key` embeds the trips) must not grow the code
    cache without bound — the LRU cap holds and eviction keeps the
    per-loop invalidation index consistent."""
    small, image = _first_translatable()
    monkeypatch.setattr(jit._code_cache, "capacity", 4)
    kernels = {trips: jit.kernel_for(image, trips)
               for trips in range(1, 13)}
    stats = jit.code_cache_stats()
    assert stats["entries"] == 4
    assert stats["limit"] == 4
    assert stats["evicted"] == 8
    snapshot = obs.metrics_snapshot()
    assert snapshot["gauges"]["jit.code_cache_size"] == 4
    assert snapshot["counters"]["jit.code_cache_evicted"] == 8

    # LRU, not FIFO: a hit protects the entry from the next eviction
    # round; the untouched oldest entry dies instead.
    assert jit.kernel_for(image, 9) is kernels[9]     # protect 9
    jit.kernel_for(image, 100)                        # evicts 10
    assert jit.kernel_for(image, 9) is kernels[9]     # survived
    recompiled = jit.kernel_for(image, 10)
    assert recompiled is not None and recompiled is not kernels[10]

    # Invalidating the loop drops exactly the live entries and leaves
    # the cache empty.
    live = jit.code_cache_stats()["entries"]
    assert jit.invalidate_image(image) == live
    assert jit.code_cache_stats()["entries"] == 0
    assert jit._code_cache.keys() == []


def test_negative_entries_count_toward_the_limit(monkeypatch):
    """Unsupported shapes are cached as None — tiny, but an unbounded
    negative set is still a leak, so they occupy LRU slots too."""
    small, image = _first_translatable()
    image.loop.annotations["while_loop"] = True
    monkeypatch.setattr(jit._code_cache, "capacity", 2)
    try:
        for trips in range(1, 6):
            assert jit.kernel_for(image, trips) is None
        stats = jit.code_cache_stats()
        assert stats["entries"] <= 2
        assert stats["evicted"] >= 3
    finally:
        image.loop.annotations.pop("while_loop", None)


def test_kernel_for_survives_a_racing_invalidation():
    """Regression: a guard deopt's ``invalidate_image`` on one thread
    must not make ``kernel_for`` on another raise between finding the
    key and refreshing its recency."""
    import sys
    import threading
    import time

    from repro.workloads import kernels as K

    image = translate_loop(K.daxpy(trip_count=64), PROPOSED_LA).image
    errors: list = []
    done = threading.Event()

    def lookups() -> None:
        deadline = time.monotonic() + 1.0
        try:
            while time.monotonic() < deadline and not errors:
                jit.kernel_for(image, 64)
        except Exception as exc:  # noqa: BLE001 -- the assertion
            errors.append(exc)

    def invalidations() -> None:
        while not done.is_set():
            jit.invalidate_image(image)

    threads = [threading.Thread(target=lookups) for _ in range(2)]
    deopt = threading.Thread(target=invalidations)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deopt.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        done.set()
        deopt.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads + [deopt])
    assert errors == []


def test_non_positive_trips_are_rejected():
    # Entry to a loop is guarded before the loop: no trip count below 1.
    small, image = _first_translatable()
    with pytest.raises(ValueError):
        jit.specialize(image, 0)
    memory = seeded_memory(small, seed=7)
    live = standard_live_ins(small, memory, DEFAULT_SCALARS)
    with perf.engine_at(2), pytest.raises(ValueError):
        jit.execute_pipelined(image, memory, live, trip_count=0)
    assert _counter("vm.specialized") == 0


# -- observability ------------------------------------------------------------

def test_specialization_metrics_are_emitted():
    small, image = _first_translatable()
    assert jit.kernel_for(image, small.trip_count) is not None
    snapshot = obs.metrics_snapshot()
    assert snapshot["counters"].get("translator.units.specialize", 0) > 0
    assert sum(snapshot["histograms"].get("jit.compile_ms", {}).values()) >= 1
    # Compile times are observed in power-of-two millisecond buckets.
    assert all(ms == obs.ms_bucket(ms)
               for ms in snapshot["histograms"]["jit.compile_ms"])
    memory = seeded_memory(small, seed=7)
    live = standard_live_ins(small, memory, DEFAULT_SCALARS)
    with perf.engine_at(2):
        jit.execute_pipelined(image, memory, live,
                              trip_count=small.trip_count)
    assert _counter("vm.specialized") == 1


# -- guard-backed deopt -------------------------------------------------------

def _corrupt(name, live_outs):
    return {reg: (value + 1 if isinstance(value, int) else value + 1.0)
            for reg, value in live_outs.items()}


@pytest.mark.parametrize("index", [0, 1, 2])
def test_forced_deopt_falls_back_to_scalar(index):
    candidates = [loop for loop in KERNELS
                  if not loop.annotations.get("while_loop")
                  and loop.live_outs]
    # Natural trip counts: the guard's scalar reference follows the
    # loop branch, so the trip metadata must not be altered.
    loop = candidates[index % len(candidates)]
    if not translate_loop(loop, PROPOSED_LA).ok:
        pytest.skip("not translatable")

    memory = seeded_memory(loop, seed=7)
    live = standard_live_ins(loop, memory, DEFAULT_SCALARS)
    expected_mem = seeded_memory(loop, seed=7)
    expected = Interpreter(expected_mem).run_loop(loop, dict(live))

    executor = GuardedExecutor(PROPOSED_LA, GuardConfig.checked_mode())
    jit.set_test_corruption(_corrupt)
    try:
        with perf.engine_at(2):
            run = executor.run(loop, memory, live)
    finally:
        jit.set_test_corruption(None)

    # The divergence was detected, the scalar reference committed, and
    # the observable state is exactly the interpreter's.
    assert run.source == "scalar"
    assert run.verdict is not None and not run.verdict.ok
    assert run.live_outs == expected.live_outs
    assert memory.snapshot() == expected_mem.snapshot()
    assert executor.stats.mismatches == 1
    assert executor.stats.deopts == 1
    assert _counter("vm.deopt") == 1
    assert _counter("vm.specialize_deopt") >= 1
    assert jit.code_cache_stats()["entries"] == 0

    # The strike benched the loop: the next invocation through the same
    # executor goes scalar via the blacklist, still bit-correct.
    assert executor.blacklist.blocked(executor.key_for(loop),
                                      executor.invocations + 1)
    mem_benched = seeded_memory(loop, seed=7)
    with perf.engine_at(2):
        benched = executor.run(loop, mem_benched, live)
    assert benched.source == "scalar"
    assert benched.live_outs == expected.live_outs

    # With the corruption gone, a fresh executor re-specializes cleanly.
    fresh = GuardedExecutor(PROPOSED_LA, GuardConfig.checked_mode())
    mem_clean = seeded_memory(loop, seed=7)
    with perf.engine_at(2):
        clean = fresh.run(loop, mem_clean, live)
    assert clean.source == "accelerator"
    assert clean.verdict is not None and clean.verdict.ok
    assert clean.live_outs == expected.live_outs
