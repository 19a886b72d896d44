"""Differential verification, deoptimization, blacklist, cache edges."""

import pytest

from repro import perf
from repro.accelerator import PROPOSED_LA, jit
from repro.cpu import Interpreter, standard_live_ins
from repro.errors import GuardViolation
from repro.resilience.faults import FaultInjector, FaultSite, FaultSpec
from repro.perf.codecache import CodeCache
from repro.vm import translate_loop
from repro.vm.guard import (
    GuardConfig,
    GuardedExecutor,
    LoopBlacklist,
    MAX_BACKOFF_DOUBLINGS,
    differential_check,
)
from repro.vm.runtime import VMConfig, VirtualMachine
from repro.workloads import kernels as K
from repro.workloads.suite import (
    DEFAULT_SCALARS,
    benchmark_by_name,
)
from tests.conftest import force_divergence, seeded_memory


def _image(loop):
    result = translate_loop(loop, PROPOSED_LA)
    assert result.ok, (loop.name, result.failure)
    return result.image


def _injector(site=FaultSite.REGFILE, index=0, bit=3):
    return FaultInjector(FaultSpec(site=site, target_index=index, bit=bit))


# -- differential check -------------------------------------------------------

def test_clean_execution_verifies():
    loop = K.fir_filter(taps=6, trip_count=24)
    image = _image(loop)
    memory = seeded_memory(loop, seed=11)
    live = standard_live_ins(image.loop, memory, DEFAULT_SCALARS)
    outcome = differential_check(image, memory, live)
    assert outcome.verdict.ok
    assert outcome.verdict.mismatches == []
    # The check ran on clones: the caller's memory is untouched.
    assert memory.snapshot() == seeded_memory(loop, seed=11).snapshot()


def test_injected_fault_is_detected():
    loop = K.checksum(trip_count=24)
    image = _image(loop)
    memory = seeded_memory(loop, seed=11)
    live = standard_live_ins(image.loop, memory, DEFAULT_SCALARS)
    injector = _injector(bit=5)
    outcome = differential_check(image, memory, live, fault_hook=injector)
    assert injector.fired
    assert not outcome.verdict.ok
    kinds = {m.kind for m in outcome.verdict.mismatches}
    assert kinds <= {"live-out", "memory", "fault"}
    violation = outcome.verdict.to_violation(loop.name)
    assert isinstance(violation, GuardViolation)
    assert loop.name in str(violation)


def test_scalar_reference_is_authoritative_on_mismatch():
    loop = K.daxpy(trip_count=16)
    image = _image(loop)
    memory = seeded_memory(loop, seed=3)
    live = standard_live_ins(image.loop, memory, DEFAULT_SCALARS)
    outcome = differential_check(image, memory, live,
                                 fault_hook=_injector(bit=17))
    ref_mem = seeded_memory(loop, seed=3)
    ref = Interpreter(ref_mem).run_loop(loop,
                                        standard_live_ins(loop, ref_mem,
                                                          DEFAULT_SCALARS))
    assert outcome.scalar_memory.snapshot() == ref_mem.snapshot()
    assert outcome.scalar_result.live_outs == ref.live_outs


# -- guarded executor: deopt, backoff, recovery -------------------------------

def test_guarded_executor_accelerates_cleanly():
    loop = K.sad_16(trip_count=24)
    executor = GuardedExecutor(PROPOSED_LA, GuardConfig.checked_mode())
    memory = seeded_memory(loop, seed=9)
    run = executor.run(loop, memory,
                       standard_live_ins(loop, memory, DEFAULT_SCALARS))
    assert run.source == "accelerator"
    assert run.verdict is not None and run.verdict.ok
    ref_mem = seeded_memory(loop, seed=9)
    Interpreter(ref_mem).run_loop(loop, standard_live_ins(loop, ref_mem,
                                                          DEFAULT_SCALARS))
    assert memory.snapshot() == ref_mem.snapshot()
    assert executor.stats.accelerated == 1


@pytest.mark.parametrize("mode", ["off", "checked"])
def test_same_name_loops_do_not_share_a_cache_slot(mode):
    # Two different loops under one name: the second must run its own
    # translation, not the image cached for the first.
    first = K.daxpy(trip_count=16)
    alias = K.checksum(trip_count=16).rebuild(name=first.name)
    executor = GuardedExecutor(PROPOSED_LA, GuardConfig(mode=mode))
    for loop in (first, alias, first):
        memory = seeded_memory(loop, seed=5)
        live = standard_live_ins(loop, memory, DEFAULT_SCALARS)
        run = executor.run(loop, memory, live)
        ref_mem = seeded_memory(loop, seed=5)
        ref = Interpreter(ref_mem).run_loop(loop, dict(live))
        assert run.source == "accelerator", run.reason
        assert run.live_outs == ref.live_outs
        assert memory.snapshot() == ref_mem.snapshot()
    assert executor.stats.translations == 3
    assert executor.stats.deopts == 0


@pytest.mark.parametrize("engine", [1, 2])
def test_one_loops_deopt_does_not_bench_a_same_name_loop(engine):
    # A register fault strikes daxpy (one strike benches it for good);
    # a different loop renamed daxpy has a different translation key,
    # so it is neither benched nor robbed of its compiled kernel.
    first = K.daxpy(trip_count=16)
    alias = K.checksum(trip_count=16).rebuild(name=first.name)
    guard = GuardConfig.checked_mode(max_failures=1, backoff_invocations=1)
    executor = GuardedExecutor(PROPOSED_LA, guard)

    def run_alias():
        memory = seeded_memory(alias, seed=5)
        live = standard_live_ins(alias, memory, DEFAULT_SCALARS)
        run = executor.run(alias, memory, live)
        ref_mem = seeded_memory(alias, seed=5)
        ref = Interpreter(ref_mem).run_loop(alias, dict(live))
        assert run.source == "accelerator", run.reason
        assert run.live_outs == ref.live_outs
        assert memory.snapshot() == ref_mem.snapshot()

    jit.clear_code_cache()
    with perf.engine_at(engine):
        run_alias()
        compiled = jit.code_cache_stats()["compiled"]
        memory = seeded_memory(first, seed=4)
        run = executor.run(first, memory,
                           standard_live_ins(first, memory, DEFAULT_SCALARS),
                           fault_hook=_injector(bit=9))
        assert run.detected
        assert executor.blacklist.permanently_blocked(executor.key_for(first))
        run_alias()
    assert executor.stats.deopts == 1
    assert jit.code_cache_stats()["compiled"] == compiled
    jit.clear_code_cache()


def test_deopt_recovers_and_benches():
    loop = K.quantize(trip_count=24)
    guard = GuardConfig.checked_mode(max_failures=3, backoff_invocations=4)
    executor = GuardedExecutor(PROPOSED_LA, guard)
    memory = seeded_memory(loop, seed=4)
    run = executor.run(loop, memory,
                       standard_live_ins(loop, memory, DEFAULT_SCALARS),
                       fault_hook=_injector(bit=9))
    assert run.detected and run.source == "scalar"
    assert "deoptimized" in run.reason
    # Recovery: memory equals the fault-free scalar run.
    ref_mem = seeded_memory(loop, seed=4)
    ref = Interpreter(ref_mem).run_loop(loop,
                                        standard_live_ins(loop, ref_mem,
                                                          DEFAULT_SCALARS))
    assert memory.snapshot() == ref_mem.snapshot()
    assert run.live_outs == ref.live_outs
    # The kernel image was invalidated and the loop benched.
    assert loop.name not in executor.cache
    assert executor.cache.stats.invalidations == 1
    assert executor.blacklist.blocked(executor.key_for(loop),
                                      executor.invocations + 1)
    # While benched, invocations run scalar without retranslating.
    before = executor.stats.translations
    memory2 = seeded_memory(loop, seed=4)
    run2 = executor.run(loop, memory2,
                        standard_live_ins(loop, memory2, DEFAULT_SCALARS))
    assert run2.source == "scalar" and "blacklisted" in run2.reason
    assert executor.stats.translations == before


def test_backoff_expiry_allows_retranslation():
    loop = K.upsample(trip_count=24)
    guard = GuardConfig.checked_mode(max_failures=5, backoff_invocations=2)
    executor = GuardedExecutor(PROPOSED_LA, guard)

    def invoke(hook=None):
        memory = seeded_memory(loop, seed=4)
        return executor.run(
            loop, memory, standard_live_ins(loop, memory, DEFAULT_SCALARS),
            fault_hook=hook)

    assert invoke(_injector(bit=4)).detected
    # Burn through the backoff window with other invocations.
    other = K.daxpy(trip_count=16)
    for _ in range(3):
        mem = seeded_memory(other, seed=1)
        executor.run(other, mem,
                     standard_live_ins(other, mem, DEFAULT_SCALARS))
    # Past the bench window the loop retranslates and accelerates again.
    before = executor.stats.translations
    run = invoke()
    assert run.source == "accelerator"
    assert executor.stats.translations == before + 1


def test_permanent_fallback_after_max_failures():
    loop = K.color_convert(trip_count=24)
    guard = GuardConfig.checked_mode(max_failures=2, backoff_invocations=1)
    executor = GuardedExecutor(PROPOSED_LA, guard)
    strikes = 0
    for _ in range(12):
        memory = seeded_memory(loop, seed=4)
        run = executor.run(loop, memory,
                           standard_live_ins(loop, memory, DEFAULT_SCALARS),
                           fault_hook=_injector(bit=4))
        if run.detected:
            strikes += 1
        if executor.blacklist.permanently_blocked(executor.key_for(loop)):
            break
    assert strikes == 2
    assert executor.blacklist.permanently_blocked(executor.key_for(loop))
    # Forever after: scalar, no translation attempts.
    before = executor.stats.translations
    for _ in range(3):
        memory = seeded_memory(loop, seed=4)
        run = executor.run(loop, memory,
                           standard_live_ins(loop, memory, DEFAULT_SCALARS))
        assert run.source == "scalar"
    assert executor.stats.translations == before


# -- blacklist unit behaviour -------------------------------------------------

def test_blacklist_backoff_doubles():
    bl = LoopBlacklist(max_failures=4, backoff_invocations=8)
    e1 = bl.note_failure("loop", now=10, reason="first")
    assert e1.release_at == 18
    assert bl.blocked("loop", 17) and not bl.blocked("loop", 18)
    e2 = bl.note_failure("loop", now=20, reason="second")
    assert e2.release_at == 20 + 16
    e3 = bl.note_failure("loop", now=40, reason="third")
    assert e3.release_at == 40 + 32
    e4 = bl.note_failure("loop", now=80, reason="fourth")
    assert e4.permanent and bl.blocked("loop", 10 ** 9)


def test_blacklist_backoff_is_capped():
    # Past MAX_BACKOFF_DOUBLINGS doublings every strike benches for the
    # same, bounded window.
    assert MAX_BACKOFF_DOUBLINGS == 3
    bl = LoopBlacklist(max_failures=100, backoff_invocations=8)
    windows = [bl.note_failure("loop", now=1000 * n, reason="x").release_at
               - 1000 * n for n in range(1, 9)]
    assert windows[:4] == [8, 16, 32, 64]
    assert windows[4] == windows[7] == 8 * 8
    assert not bl.permanently_blocked("loop")


def test_blacklist_ban_is_immediate():
    bl = LoopBlacklist(max_failures=100)
    bl.ban("loop", "translation failed")
    assert bl.permanently_blocked("loop")
    assert bl.reason_for("loop") == "translation failed"


# -- code cache invalidation edges --------------------------------------------

def test_invalidate_while_hot():
    cache = CodeCache(capacity=2)
    cache.insert("a", 1)
    cache.insert("b", 2)
    assert cache.lookup("a") == 1  # "a" is now MRU (hot)
    assert cache.invalidate("a")
    assert cache.lookup("a") is None
    assert cache.stats.invalidations == 1
    # The freed slot is usable without evicting "b".
    cache.insert("c", 3)
    assert cache.stats.evictions == 0
    assert "b" in cache and "c" in cache


def test_invalidate_missing_is_noop():
    cache = CodeCache(capacity=2)
    assert not cache.invalidate("ghost")
    assert cache.stats.invalidations == 0


def test_reinsert_after_invalidate_counts_as_fresh():
    cache = CodeCache(capacity=2)
    cache.insert("a", 1)
    cache.invalidate("a")
    cache.insert("a", 7)
    assert cache.lookup("a") == 7
    assert len(cache) == 1


def test_cache_full_of_blacklisted_entries_still_serves():
    # Every cached loop gets deoptimized; the cache must drain cleanly
    # and keep serving new translations.
    loops = [K.daxpy(trip_count=16), K.checksum(trip_count=16),
             K.sad_16(trip_count=16)]
    guard = GuardConfig.checked_mode(max_failures=1, backoff_invocations=1)
    executor = GuardedExecutor(PROPOSED_LA.with_(code_cache_entries=3),
                               guard)
    for loop in loops:
        memory = seeded_memory(loop, seed=4)
        run = executor.run(loop, memory,
                           standard_live_ins(loop, memory, DEFAULT_SCALARS),
                           fault_hook=_injector(bit=1))
        assert run.detected
        assert executor.blacklist.permanently_blocked(executor.key_for(loop))
    assert len(executor.cache) == 0  # all invalidated
    # A fresh loop still translates, caches and accelerates.
    fresh = K.fir_filter(taps=6, trip_count=16)
    memory = seeded_memory(fresh, seed=4)
    run = executor.run(fresh, memory,
                       standard_live_ins(fresh, memory, DEFAULT_SCALARS))
    assert run.source == "accelerator"
    assert fresh.name in executor.cache


# -- VM runtime integration ---------------------------------------------------

def test_vm_checked_mode_verifies_and_matches_unchecked():
    bench = benchmark_by_name("rawdaudio")
    base = VMConfig(accelerator=PROPOSED_LA)
    checked = VMConfig(accelerator=PROPOSED_LA,
                       guard=GuardConfig.checked_mode())
    run_base = VirtualMachine(base).run_benchmark(bench)
    run_checked = VirtualMachine(checked).run_benchmark(bench)
    accelerated = [o for o in run_checked.outcomes if o.accelerated]
    assert accelerated, "expected at least one accelerated loop"
    for outcome in accelerated:
        assert outcome.guard_checked
        assert not outcome.deoptimized
    # The guard verifies without changing any cycle accounting.
    assert run_checked.total_cycles == run_base.total_cycles


def test_vm_deoptimizes_on_guard_mismatch(monkeypatch):
    bench = benchmark_by_name("rawdaudio")
    force_divergence(monkeypatch)
    config = VMConfig(accelerator=PROPOSED_LA,
                      guard=GuardConfig.checked_mode())
    vm = VirtualMachine(config)
    run = vm.run_benchmark(bench)
    assert all(not o.accelerated for o in run.outcomes)
    deopted = [o for o in run.outcomes if o.deoptimized]
    assert deopted
    for outcome in deopted:
        assert "forced divergence" in outcome.reason
        assert outcome.name not in vm.executor.cache
    assert run.accel_loop_cycles == 0


@pytest.mark.parametrize("guard", [GuardConfig(),
                                   GuardConfig.checked_mode()],
                         ids=["unchecked", "checked"])
def test_vm_translates_each_loop_once(guard):
    # At engine 0 every translate_loop call is a full translation; the
    # checked VM hands its own translation to the guarded executor.
    from repro import obs
    vm = VirtualMachine(VMConfig(accelerator=PROPOSED_LA, guard=guard))
    before = obs.metrics_snapshot()
    with perf.engine_at(0):
        run = vm.run_benchmark(benchmark_by_name("rawdaudio"))
    counters = obs.metrics_delta(before)["counters"]
    assert counters["translator.translations"] == len(run.outcomes) == 1
    assert run.outcomes[0].accelerated
    assert run.outcomes[0].guard_checked == guard.checked


def test_vm_deopt_benches_the_loop(monkeypatch):
    # The VM's checked mode runs through the guarded executor, so a
    # deopt strikes the blacklist: the next invocation inside the bench
    # window runs scalar without re-checking.
    checks = force_divergence(monkeypatch)
    vm = VirtualMachine(VMConfig(accelerator=PROPOSED_LA,
                                 guard=GuardConfig.checked_mode()))
    loop = K.quantize(trip_count=24)
    first = vm.run_loop(loop)
    assert first.deoptimized and first.guard_checked
    assert not first.accelerated and first.accel_cycles_per_invocation is None
    assert len(checks) == 1
    second = vm.run_loop(loop)
    assert second.reason.startswith("blacklisted")
    assert not second.accelerated
    assert not second.guard_checked and not second.deoptimized
    assert len(checks) == 1
    assert vm.executor.stats.blacklist_skips == 1


def test_vm_deopt_drops_the_shared_translation_once(monkeypatch):
    from repro.vm import guard as guard_mod
    force_divergence(monkeypatch)
    real = guard_mod.invalidate_translation
    dropped: list[bool] = []
    monkeypatch.setattr(guard_mod, "invalidate_translation",
                        lambda *a, **k: dropped.append(real(*a, **k)))
    config = VMConfig(accelerator=PROPOSED_LA,
                      guard=GuardConfig.checked_mode())
    loop = K.quantize(trip_count=24)
    with perf.engine_at(1):  # the translation cache is on
        outcome = VirtualMachine(config).run_loop(loop)
        assert outcome.deoptimized
        # One call, and it found the entry the translation had stored.
        assert dropped == [True]
        assert not real(loop, PROPOSED_LA, config.options)
