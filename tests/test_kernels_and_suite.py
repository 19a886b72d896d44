"""Workload kernels and the benchmark suite."""

import pytest

from repro.accelerator import LoopAccelerator, PROPOSED_LA
from repro.analysis import LoopCategory, check_schedulability
from repro.cpu import Interpreter, standard_live_ins
from repro.ir import validate_loop
from repro.vm import translate_loop
from repro.workloads import kernels as K
from repro.workloads.suite import (
    DEFAULT_SCALARS,
    all_benchmarks,
    benchmark_by_name,
    control_benchmarks,
    media_fp_benchmarks,
)
from tests.conftest import seeded_memory

MODULO_KERNELS = [
    K.fir_filter(taps=8), K.iir_biquad(), K.adpcm_decode(),
    K.adpcm_encode(), K.dct_butterfly(), K.sad_16(), K.quantize(),
    K.gf_mult(), K.viterbi_acs(), K.color_convert(), K.bitpack(),
    K.checksum(), K.upsample(), K.vector_max(), K.daxpy(),
    K.dot_product(), K.stencil5(), K.mgrid_resid(), K.swim_update(),
    K.mesa_transform(), K.tomcatv_residual(),
]


@pytest.mark.parametrize("kernel", MODULO_KERNELS, ids=lambda k: k.name)
def test_kernel_is_well_formed(kernel):
    assert validate_loop(kernel) == []


@pytest.mark.parametrize("kernel", MODULO_KERNELS, ids=lambda k: k.name)
def test_kernel_is_modulo_schedulable(kernel):
    report = check_schedulability(kernel)
    assert report.ok, (report.category, report.reasons)


@pytest.mark.parametrize("kernel", MODULO_KERNELS, ids=lambda k: k.name)
def test_kernel_executes_full_trip(kernel):
    mem = seeded_memory(kernel, seed=13)
    res = Interpreter(mem).run_loop(
        kernel, standard_live_ins(kernel, mem, DEFAULT_SCALARS))
    assert res.iterations == kernel.trip_count


@pytest.mark.parametrize("kernel", [k for k in MODULO_KERNELS
                                    if k.name not in ("mesa_xform", "dct")],
                         ids=lambda k: k.name)
def test_kernel_accelerates_and_matches_interpreter(kernel):
    # mesa_xform legitimately exceeds the FP register file and the
    # monolithic dct needs static fission to fit the max-II-16 control
    # store (the suite ships it fissioned) — every other kernel must
    # run on the accelerator bit-identically.
    small = kernel
    result = translate_loop(small, PROPOSED_LA)
    assert result.ok, result.failure
    mem_ref = seeded_memory(small, seed=17)
    ref = Interpreter(mem_ref).run_loop(
        small, standard_live_ins(small, mem_ref, DEFAULT_SCALARS))
    mem_acc = seeded_memory(small, seed=17)
    run = LoopAccelerator(PROPOSED_LA).invoke(
        result.image, mem_acc,
        standard_live_ins(result.image.loop, mem_acc, DEFAULT_SCALARS))
    assert run.live_outs == ref.live_outs
    assert mem_ref.snapshot() == mem_acc.snapshot()


def test_special_kernels_reject():
    assert check_schedulability(K.while_scan()).category is \
        LoopCategory.SPECULATION
    assert check_schedulability(K.libm_loop()).category is \
        LoopCategory.SUBROUTINE


def test_while_scan_terminates_functionally():
    loop = K.while_scan(trip_count=32)
    mem = seeded_memory(loop, seed=3, int_range=(1, 50))  # no zeros
    res = Interpreter(mem).run_loop(loop, standard_live_ins(loop, mem))
    assert res.iterations == 32
    mem2 = seeded_memory(loop, seed=3, int_range=(0, 1))  # zeros early
    res2 = Interpreter(mem2).run_loop(loop, standard_live_ins(loop, mem2))
    assert res2.iterations <= 32


# -- suite ----------------------------------------------------------------------

def test_suite_sizes():
    media = media_fp_benchmarks()
    control = control_benchmarks()
    assert len(media) == 18
    assert len(control) == 4
    assert len(all_benchmarks()) == 22


def test_suite_names_unique():
    names = [b.name for b in all_benchmarks()]
    assert len(names) == len(set(names))


def test_kernel_names_unique_within_benchmark():
    for bench in all_benchmarks():
        names = [k.name for k in bench.kernels]
        assert len(names) == len(set(names)), bench.name


def test_benchmark_lookup():
    assert benchmark_by_name("rawcaudio").suite == "mediabench"
    with pytest.raises(KeyError):
        benchmark_by_name("nope")


def test_acyclic_fraction_accounting():
    bench = benchmark_by_name("epic")
    loops = bench.baseline_loop_cycles()
    acyclic = bench.acyclic_arm11_cycles()
    assert acyclic / (acyclic + loops) == pytest.approx(
        bench.acyclic_fraction)


def test_acyclic_cycles_scale_with_cpu():
    from repro.cpu import ARM11, QUAD_ISSUE, InOrderPipeline
    bench = benchmark_by_name("epic")
    arm = bench.acyclic_cycles(InOrderPipeline(ARM11))
    quad = bench.acyclic_cycles(InOrderPipeline(QUAD_ISSUE))
    assert quad < arm


def test_media_suite_mostly_modulo_schedulable():
    for bench in media_fp_benchmarks():
        for loop in bench.kernels:
            assert check_schedulability(loop).category is \
                LoopCategory.MODULO, (bench.name, loop.name)


def test_control_suite_mostly_not():
    bad = 0
    total = 0
    for bench in control_benchmarks():
        for loop in bench.kernels:
            total += 1
            if check_schedulability(loop).category is not \
                    LoopCategory.MODULO:
                bad += 1
    assert bad >= total / 2


def test_untransformed_defaults_to_same_kernels():
    bench = benchmark_by_name("rawcaudio")
    assert bench.untransformed() is bench.kernels
    m2 = benchmark_by_name("mpeg2dec")
    assert m2.untransformed() is not m2.kernels


# -- additional kernels ---------------------------------------------------------

def test_alpha_blend_accepts_and_matches():
    from repro.vm import translate_loop
    kernel = K.alpha_blend(trip_count=32)
    result = translate_loop(kernel, PROPOSED_LA)
    assert result.ok, result.failure
    mem_ref = seeded_memory(kernel, seed=5, int_range=(0, 255))
    ref = Interpreter(mem_ref).run_loop(
        kernel, standard_live_ins(kernel, mem_ref, DEFAULT_SCALARS))
    mem_acc = seeded_memory(kernel, seed=5, int_range=(0, 255))
    run = LoopAccelerator(PROPOSED_LA).invoke(
        result.image, mem_acc,
        standard_live_ins(result.image.loop, mem_acc, DEFAULT_SCALARS))
    assert mem_ref.snapshot() == mem_acc.snapshot()
    outputs = mem_acc.read_array("blend_out", 32)
    assert all(0 <= px <= 255 for px in outputs)


def test_histogram_rejected_for_indirect_address():
    from repro.vm import translate_loop
    result = translate_loop(K.histogram(trip_count=32), PROPOSED_LA)
    assert not result.ok
    assert "address" in result.failure


def test_histogram_still_runs_on_interpreter():
    kernel = K.histogram(trip_count=64)
    mem = seeded_memory(kernel, seed=2, int_range=(0, 64))
    mem.write_array("hist", [0] * 72)  # counts start at zero
    Interpreter(mem).run_loop(kernel, standard_live_ins(kernel, mem))
    hist = mem.read_array("hist", 64)
    assert sum(hist) == 64


def test_transpose_strided_store_stream():
    from repro.analysis import analyze_streams
    from repro.vm import translate_loop
    kernel = K.transpose_gather(trip_count=16)
    sa = analyze_streams(kernel)
    assert sa.ok
    assert sa.store_streams[0].stride == 8
    result = translate_loop(kernel, PROPOSED_LA)
    assert result.ok
    mem_ref = seeded_memory(kernel, seed=8)
    Interpreter(mem_ref).run_loop(kernel,
                                  standard_live_ins(kernel, mem_ref))
    mem_acc = seeded_memory(kernel, seed=8)
    LoopAccelerator(PROPOSED_LA).invoke(
        result.image, mem_acc,
        standard_live_ins(result.image.loop, mem_acc))
    assert mem_ref.snapshot() == mem_acc.snapshot()


# -- the suite memo and shared kernel ops ---------------------------------------

def test_suite_memo_returns_fresh_lists_of_shared_benchmarks():
    from repro import perf
    perf.clear_caches()
    first = media_fp_benchmarks()
    second = media_fp_benchmarks()
    assert first is not second
    assert all(a is b for a, b in zip(first, second, strict=True))
    # Mutating a returned list does not leak into the next call.
    first.pop()
    first.append(first[0])
    assert [b.name for b in media_fp_benchmarks()] == \
        [b.name for b in second]
    perf.clear_caches()
    rebuilt = media_fp_benchmarks()
    assert [b.name for b in rebuilt] == [b.name for b in second]
    assert not any(a is b for a, b in zip(rebuilt, second))


def test_run_benchmark_leaves_kernels_untouched():
    from repro.perf.digest import loop_digest
    from repro.vm import VirtualMachine, VMConfig
    bench = benchmark_by_name("g721enc")
    before = [(loop_digest(k), list(k.body)) for k in bench.kernels]
    VirtualMachine(VMConfig(accelerator=PROPOSED_LA)).run_benchmark(bench)
    for kernel, (digest, ops) in zip(bench.kernels, before, strict=True):
        assert all(a is b for a, b in zip(kernel.body, ops, strict=True))
        # Re-digest the content (a rebuild carries no memo).
        assert loop_digest(kernel.rebuild()) == digest


def test_identification_recovers_the_kernel_objects():
    from repro.ir.cfg import identify_loops, linear_program
    kernels = media_fp_benchmarks()[2].kernels
    cfg = linear_program("p", kernels).entry_function().cfg
    found = [il.loop for il in identify_loops(cfg) if il.loop is not None]
    assert sorted(map(id, found)) == sorted(map(id, kernels))
    for kernel in kernels:
        block = cfg.blocks[f"kernel_{kernel.name}"]
        assert all(a is b for a, b in zip(block.ops, kernel.body,
                                          strict=True))
