"""The co-designed VM: translator modes, code cache, runtime accounting."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.accelerator import PROPOSED_LA
from repro.cpu import ARM11, CORTEX_A8
from repro.isa import annotate_for_veal, annotate_static_priority
from repro.vm import (
    CodeCache,
    TranslationMeter,
    TranslationOptions,
    VMConfig,
    VirtualMachine,
    translate_loop,
    translation_cycles,
)
from repro.vm.costmodel import DEFAULT_WEIGHTS, PHASES
from repro.vm.runtime import LoopOutcome
from repro.workloads import kernels as K
from repro.workloads.suite import benchmark_by_name, media_fp_benchmarks


# -- cost model -----------------------------------------------------------------

def test_meter_charges_and_converts():
    meter = TranslationMeter()
    meter.charge("priority", 10)
    meter.charge("cca", 2)
    instrs = meter.instructions()
    assert instrs["priority"] == 10 * DEFAULT_WEIGHTS["priority"]
    assert instrs["cca"] == 2 * DEFAULT_WEIGHTS["cca"]
    assert meter.total_instructions() == sum(instrs.values())


def test_meter_rejects_unknown_phase():
    with pytest.raises(KeyError):
        TranslationMeter().charge("nonsense")


def test_translation_cycles_cpi():
    assert translation_cycles(1000.0) == 1000.0
    assert translation_cycles(1000.0, cpi=1.5) == 1500.0


# -- translator -------------------------------------------------------------------

def test_translate_success_produces_image():
    result = translate_loop(K.daxpy(trip_count=16), PROPOSED_LA)
    assert result.ok and result.failure is None
    assert result.image.ii >= 1
    assert result.instructions > 0


def test_translate_charges_every_core_phase():
    result = translate_loop(K.adpcm_decode(trip_count=16), PROPOSED_LA)
    for phase in ("identify", "partition", "cca", "resmii", "recmii",
                  "priority", "scheduling", "regalloc"):
        assert result.meter.units.get(phase, 0) > 0, phase


def test_translate_rejects_subroutine_loop():
    result = translate_loop(K.libm_loop(trip_count=16), PROPOSED_LA)
    assert not result.ok and "call" in result.failure


def test_translate_rejects_while_loop():
    result = translate_loop(K.while_scan(trip_count=16), PROPOSED_LA)
    assert not result.ok and "while" in result.failure


def test_translate_rejects_too_many_streams():
    config = PROPOSED_LA.with_(load_streams=3)
    result = translate_loop(K.mgrid_resid(trip_count=16), config)
    assert not result.ok and "load streams" in result.failure


def test_translate_rejects_register_pressure():
    result = translate_loop(K.mesa_transform(trip_count=16), PROPOSED_LA)
    assert not result.ok and "register" in result.failure


def test_translate_no_cca_accelerator():
    config = PROPOSED_LA.with_(num_ccas=0, num_int_units=4)
    result = translate_loop(K.adpcm_decode(trip_count=16), config)
    assert result.ok
    from repro.ir import Opcode
    assert not any(op.opcode is Opcode.CCA_OP
                   for op in result.image.loop.body)
    assert result.meter.units.get("cca", 0) == 0


def test_static_priority_skips_priority_computation():
    loop = annotate_static_priority(K.adpcm_decode(trip_count=16))
    dynamic = translate_loop(loop, PROPOSED_LA)
    static = translate_loop(loop, PROPOSED_LA,
                            TranslationOptions(use_static_priority=True))
    assert static.ok
    assert static.meter.units["priority"] < dynamic.meter.units["priority"]
    # One rank load per op (Figure 9(c)).
    assert static.meter.units["priority"] <= len(loop.body)


def test_hybrid_mode_cheapest():
    loop = annotate_for_veal(K.adpcm_decode(trip_count=16))
    full = translate_loop(loop, PROPOSED_LA)
    hybrid = translate_loop(loop, PROPOSED_LA, TranslationOptions.hybrid())
    assert hybrid.ok
    assert hybrid.instructions < full.instructions / 2


def test_static_paper_reduction_100k_to_31k():
    # Section 4.2: static priority encoding cuts ~100k to ~31k.
    total_dyn, total_static, n = 0.0, 0.0, 0
    for bench in media_fp_benchmarks()[:6]:
        for loop in bench.kernels:
            dyn = translate_loop(loop, PROPOSED_LA)
            if not dyn.ok:
                continue
            annotated = annotate_static_priority(loop)
            static = translate_loop(
                annotated, PROPOSED_LA,
                TranslationOptions(use_static_priority=True))
            assert static.ok
            total_dyn += dyn.instructions
            total_static += static.instructions
            n += 1
    assert total_static < 0.5 * total_dyn


def test_static_modes_produce_valid_schedules():
    from repro.scheduler import validate_schedule
    loop = annotate_for_veal(K.gf_mult(trip_count=16))
    result = translate_loop(loop, PROPOSED_LA, TranslationOptions.hybrid())
    assert result.ok
    image = result.image
    assert validate_schedule(image.schedule, image.dfg,
                             image.partition.compute) == []


def test_height_mode_translates_faster():
    loop = K.adpcm_decode(trip_count=16)
    swing = translate_loop(loop, PROPOSED_LA)
    height = translate_loop(loop, PROPOSED_LA,
                            TranslationOptions(priority_kind="height"))
    assert height.ok
    assert height.instructions < swing.instructions


# -- code cache ----------------------------------------------------------------------

def test_cache_hit_miss_lru():
    cache = CodeCache(capacity=2)
    assert cache.lookup("a") is None
    cache.insert("a", 1)
    cache.insert("b", 2)
    assert cache.lookup("a") == 1       # refreshes a
    cache.insert("c", 3)                # evicts b
    assert cache.lookup("b") is None
    assert cache.lookup("a") == 1
    assert cache.stats.evictions == 1


def test_cache_hit_rate():
    cache = CodeCache(capacity=4)
    cache.insert("x", 1)
    for _ in range(9):
        cache.lookup("x")
    cache.lookup("y")
    assert cache.stats.hit_rate == pytest.approx(0.9)


def test_cache_reinsert_updates():
    cache = CodeCache(capacity=2)
    cache.insert("a", 1)
    cache.insert("a", 2)
    assert cache.lookup("a") == 2
    assert len(cache) == 1


def test_cache_requires_capacity():
    with pytest.raises(ValueError):
        CodeCache(capacity=0)


def test_cache_storage_words():
    cache = CodeCache(capacity=4)
    cache.insert("a", 1)
    cache.insert("b", 2)
    assert cache.storage_words({"a": 100, "b": 50}) == 150


# -- runtime ----------------------------------------------------------------------------

def _vm(**kw):
    defaults = dict(cpu=ARM11, accelerator=PROPOSED_LA,
                    charge_translation=False, functional=False)
    defaults.update(kw)
    return VirtualMachine(VMConfig(**defaults))


def test_run_benchmark_accounting_sums():
    bench = benchmark_by_name("g721enc")
    run = _vm().run_benchmark(bench)
    assert run.total_cycles == pytest.approx(
        run.acyclic_cycles + run.scalar_loop_cycles
        + run.accel_loop_cycles + run.translation_cycle_total)
    assert len(run.outcomes) == len(bench.kernels)


def test_no_accelerator_all_loops_scalar():
    bench = benchmark_by_name("g721enc")
    run = VirtualMachine(VMConfig(cpu=ARM11, accelerator=None)
                         ).run_benchmark(bench)
    assert run.accel_loop_cycles == 0
    assert all(not o.accelerated for o in run.outcomes)


def test_acceleration_beats_baseline():
    bench = benchmark_by_name("gsmencode")
    base = VirtualMachine(VMConfig(cpu=ARM11)).run_benchmark(bench)
    accel = _vm().run_benchmark(bench)
    assert accel.total_cycles < base.total_cycles


def test_code_cache_hot_loops_translate_once():
    bench = benchmark_by_name("g721enc")
    vm = _vm(charge_translation=True)
    run = vm.run_benchmark(bench)
    for outcome in run.outcomes:
        if outcome.accelerated:
            assert outcome.translations_performed == 1
    assert run.cache_hit_rate > 0.95  # "very close to 100%"


def _replay_translations(vm, outcomes):
    """The per-invocation code-cache replay ``_count_translations``
    replaced: round-robin over the accelerated loops, one lookup per
    invocation, a translation per miss."""
    accelerated = [o for o in outcomes if o.accelerated]
    remaining = {o.name: o.invocations for o in accelerated}
    translations = {o.name: 0 for o in accelerated}
    while any(v > 0 for v in remaining.values()):
        for o in accelerated:
            if remaining[o.name] <= 0:
                continue
            remaining[o.name] -= 1
            if vm.code_cache.lookup(o.name) is None:
                vm.code_cache.insert(o.name, o.name)
                translations[o.name] += 1
    return translations


def _counting_vm(capacity, preload):
    vm = _vm(accelerator=PROPOSED_LA.with_(code_cache_entries=capacity))
    for key in preload:
        if vm.code_cache.lookup(key) is None:
            vm.code_cache.insert(key, key)
    return vm


def _outcomes(invocations, accelerated):
    return [LoopOutcome(name=f"L{i}", accelerated=acc, reason=None,
                        invocations=n, trip_count=1,
                        scalar_cycles_per_invocation=1.0,
                        accel_cycles_per_invocation=1.0,
                        translation_instructions=0.0,
                        translations_performed=0)
            for i, (n, acc) in enumerate(zip(invocations, accelerated))]


@settings(max_examples=200, deadline=None)
@given(invocations=st.lists(st.integers(0, 40), max_size=24),
       accelerated=st.lists(st.booleans(), min_size=24, max_size=24),
       capacity=st.integers(1, 20),
       preload=st.lists(st.sampled_from(
           [f"L{i}" for i in range(24)] + [f"old{i}" for i in range(6)]),
           max_size=24))
@example(invocations=[1] * 20 + [0, 3, 3, 40],
         accelerated=[True] * 24, capacity=16,
         preload=["old0", "L3", "old1"])
def test_code_cache_count_equals_per_invocation_replay(
        invocations, accelerated, capacity, preload):
    """Per-round counting matches the one-invocation-at-a-time replay:
    translations per loop, cache stats and the final LRU order, from a
    cache that starts non-empty."""
    vm, ref = _counting_vm(capacity, preload), _counting_vm(capacity, preload)
    outcomes = _outcomes(invocations, accelerated)
    vm._count_translations(outcomes)
    want = _replay_translations(ref, _outcomes(invocations, accelerated))
    assert {o.name: o.translations_performed for o in outcomes
            if o.accelerated} == want
    assert vm.code_cache.stats == ref.code_cache.stats
    assert vm.code_cache.keys() == ref.code_cache.keys()


def test_miss_rate_override_scales_translations():
    bench = benchmark_by_name("g721enc")
    run = _vm(charge_translation=True,
              miss_rate_override=0.5).run_benchmark(bench)
    for outcome in run.outcomes:
        if outcome.accelerated:
            assert outcome.translations_performed == \
                max(1, round(0.5 * outcome.invocations))


def test_translation_overhead_override():
    bench = benchmark_by_name("g721enc")
    run = _vm(charge_translation=True,
              translation_overhead_override=5000.0).run_benchmark(bench)
    accelerated = [o for o in run.outcomes if o.accelerated]
    assert run.translation_cycle_total == pytest.approx(
        5000.0 * sum(o.translations_performed for o in accelerated))


def test_untransformed_mode_rejects_tagged_loops():
    bench = benchmark_by_name("rawcaudio")  # adpcm_enc needs if-conversion
    run = _vm(static_transforms_applied=False).run_benchmark(bench)
    assert all(not o.accelerated for o in run.outcomes)
    assert any("static transforms" in (o.reason or "")
               for o in run.outcomes)


def test_untransformed_mode_uses_unfissioned_kernels():
    bench = benchmark_by_name("mpeg2dec")
    normal = _vm().run_benchmark(bench)
    plain = _vm(static_transforms_applied=False).run_benchmark(bench)
    # The fissioned halves disappear; the monolithic dct shows up instead.
    names_plain = {o.name for o in plain.outcomes}
    assert "mpeg2d_idct" in names_plain
    assert not any(n.endswith("_p1") for n in names_plain)
    names_normal = {o.name for o in normal.outcomes}
    assert any(n.endswith("_p1") for n in names_normal)


def test_wider_cpu_without_accelerator():
    bench = benchmark_by_name("mpeg2dec")
    arm = VirtualMachine(VMConfig(cpu=ARM11)).run_benchmark(bench)
    a8 = VirtualMachine(VMConfig(cpu=CORTEX_A8)).run_benchmark(bench)
    assert a8.total_cycles < arm.total_cycles


def test_functional_and_estimate_paths_agree():
    bench = benchmark_by_name("g721dec")
    fast = _vm(functional=False).run_benchmark(bench)
    slow = _vm(functional=True).run_benchmark(bench)
    assert fast.total_cycles == pytest.approx(slow.total_cycles)


def test_hot_loop_threshold_skips_cold_loops():
    bench = benchmark_by_name("pegwitenc")  # small loops
    hot_only = _vm(charge_translation=True,
                   hot_loop_min_cycles=10 ** 9)
    run = hot_only.run_benchmark(bench)
    assert all(not o.accelerated for o in run.outcomes)
    assert any("hot-loop" in (o.reason or "") for o in run.outcomes)
    assert run.translation_cycle_total == 0


def test_hot_loop_threshold_keeps_hot_loops():
    bench = benchmark_by_name("rawcaudio")  # one huge loop
    vm = _vm(charge_translation=True, hot_loop_min_cycles=100_000)
    run = vm.run_benchmark(bench)
    assert any(o.accelerated for o in run.outcomes)


def test_hot_loop_threshold_improves_pegwit_dynamic():
    # A sensible profiling threshold rescues pegwit from paying more in
    # translation than acceleration returns.
    bench = benchmark_by_name("pegwitdec")
    base = VirtualMachine(VMConfig(cpu=ARM11)).run_benchmark(bench)
    naive = _vm(charge_translation=True).run_benchmark(bench)
    profiled = _vm(charge_translation=True,
                   hot_loop_min_cycles=2 * 10 ** 6).run_benchmark(bench)
    naive_speedup = base.total_cycles / naive.total_cycles
    profiled_speedup = base.total_cycles / profiled.total_cycles
    assert naive_speedup < 1.0           # the paper's pegwit disaster
    assert profiled_speedup >= 0.99      # profiling refuses the bad trade


def test_parallel_translation_hides_retranslations():
    bench = benchmark_by_name("g721enc")
    serial = _vm(charge_translation=True,
                 miss_rate_override=0.5).run_benchmark(bench)
    parallel = _vm(charge_translation=True, miss_rate_override=0.5,
                   parallel_translation=True).run_benchmark(bench)
    # With half the invocations missing, the multicore VM only pays the
    # cold-start translation once per loop.
    assert parallel.translation_cycle_total < \
        serial.translation_cycle_total / 4
    assert parallel.translation_cycle_total > 0


def test_speculative_while_loop_accelerates_and_matches():
    from repro import perf
    from repro.accelerator import LoopAccelerator
    from repro.cpu import Interpreter, standard_live_ins
    from tests.conftest import seeded_memory

    spec_la = PROPOSED_LA.with_(name="spec", supports_speculation=True)
    loop = K.while_scan(trip_count=48)
    plain = translate_loop(loop, PROPOSED_LA)
    assert not plain.ok  # the paper's design refuses while-loops
    spec = translate_loop(loop, spec_la)
    assert spec.ok, spec.failure

    for int_range in ((1, 60), (0, 2)):  # full run and early exit
        mem_ref = seeded_memory(loop, seed=3, int_range=int_range)
        ref = Interpreter(mem_ref).run_loop(
            loop, standard_live_ins(loop, mem_ref))
        for level in (0, 2):  # the JIT declines while-loops
            mem_acc = seeded_memory(loop, seed=3, int_range=int_range)
            with perf.engine_at(level):
                run = LoopAccelerator(spec_la).invoke(
                    spec.image, mem_acc,
                    standard_live_ins(spec.image.loop, mem_acc))
            assert run.iterations == ref.iterations, level
            assert mem_ref.snapshot() == mem_acc.snapshot(), level


# -- warm figure passes ---------------------------------------------------------

def _count_work(monkeypatch):
    """Record loop identifications, program builds and options SHAs."""
    from repro.perf import digest
    from repro.vm import runtime

    calls = {"identify_loops": 0, "linear_program": 0, "options": []}
    for name in ("identify_loops", "linear_program"):
        original = getattr(runtime, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(runtime, name, counted)
    digest_of = digest.digest_of

    def counted_digest(*parts):
        if parts and parts[0] == "options":
            calls["options"].append(repr(parts))
        return digest_of(*parts)

    monkeypatch.setattr(digest, "digest_of", counted_digest)
    return calls


def test_warm_figure_pass_identifies_no_loops(monkeypatch):
    """A warm fig3a pass recalls each benchmark's identified loops and
    each options digest instead of re-deriving them, and prints the
    committed figure."""
    import pathlib

    from repro import api, perf

    committed = (pathlib.Path(__file__).parent.parent / "benchmarks"
                 / "results" / "fig3a_function_units.txt").read_text()
    perf.clear_caches()
    try:
        assert api.run_figure("fig3a") == committed.rstrip("\n")
        calls = _count_work(monkeypatch)
        assert api.run_figure("fig3a") == committed.rstrip("\n")
    finally:
        perf.clear_caches()
    assert calls["identify_loops"] == 0
    assert calls["linear_program"] == 0
    assert len(calls["options"]) == len(set(calls["options"]))


def test_kernel_list_edited_in_place_is_identified_afresh(monkeypatch):
    from repro.workloads.suite import Benchmark

    bench = Benchmark(name="edited", suite="test",
                      kernels=[K.checksum(trip_count=64)],
                      acyclic_fraction=0.0)
    calls = _count_work(monkeypatch)
    first = _vm().run_benchmark(bench)
    again = _vm().run_benchmark(bench)
    assert calls["identify_loops"] == 1
    assert [o.name for o in again.outcomes] == \
        [o.name for o in first.outcomes] == ["checksum"]
    bench.kernels[0] = K.fir_filter(taps=4)
    edited = _vm().run_benchmark(bench)
    assert calls["identify_loops"] == 2
    assert calls["linear_program"] == 2
    assert [o.name for o in edited.outcomes] == [bench.kernels[0].name]


def test_loop_memory_does_not_depend_on_the_hash_seed():
    """Two processes with different string-hash seeds seed the same
    arrays for the same (loop, seed): a spawned shard and its client
    must agree on the data a loop runs over."""
    import os
    import subprocess
    import sys

    import repro
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    script = ("from repro.vm.runtime import _prepare_memory\n"
              "from repro.workloads import kernels as K\n"
              "for loop in (K.fir_filter(taps=8), K.daxpy()):\n"
              "    print(sorted(_prepare_memory(loop, 7)"
              ".snapshot().items()))\n")
    snapshots = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        snapshots.append(subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True, timeout=120).stdout)
    assert snapshots[0] and snapshots[0] == snapshots[1]
