"""Accelerator configuration, stream binding, machine, area."""

import dataclasses

import pytest

from repro import perf
from repro.accelerator import (
    AcceleratorFault,
    INFINITE_LA,
    LAConfig,
    LoopAccelerator,
    PROPOSED_LA,
    ResolvedStream,
    accelerator_area,
    execute_overlapped,
    resolve_pattern,
)
from repro.analysis import analyze_streams
from repro.cpu import Interpreter, Memory, standard_live_ins
from repro.ir import Reg
from repro.vm import translate_loop
from repro.workloads import kernels as K
from repro.workloads.suite import DEFAULT_SCALARS
from tests.conftest import seeded_memory


# -- config ---------------------------------------------------------------------

def test_proposed_design_matches_paper():
    # "1 CCA, 2 integer units, 2 double-precision floating-point units,
    # 16 floating-point and integer registers, 16 load memory streams
    # (time-multiplexed among 4 address generators), 8 store memory
    # streams (time-multiplexed among 2 address generators), and a
    # maximum II of 16."
    assert PROPOSED_LA.num_ccas == 1
    assert PROPOSED_LA.num_int_units == 2
    assert PROPOSED_LA.num_fp_units == 2
    assert PROPOSED_LA.num_int_regs == 16
    assert PROPOSED_LA.num_fp_regs == 16
    assert PROPOSED_LA.load_streams == 16
    assert PROPOSED_LA.store_streams == 8
    assert PROPOSED_LA.load_addr_gens == 4
    assert PROPOSED_LA.store_addr_gens == 2
    assert PROPOSED_LA.max_ii == 16
    assert PROPOSED_LA.bus_latency == 10


def test_units_vocabulary():
    units = PROPOSED_LA.units()
    assert units == {"int": 2, "fp": 2, "cca": 1, "ldgen": 4, "stgen": 2}


def test_with_override():
    cfg = PROPOSED_LA.with_(num_int_units=8)
    assert cfg.num_int_units == 8
    assert cfg.num_fp_units == PROPOSED_LA.num_fp_units


# -- area ------------------------------------------------------------------------

def test_area_close_to_paper():
    breakdown = accelerator_area(PROPOSED_LA)
    assert breakdown.total == pytest.approx(3.8, abs=0.15)
    assert breakdown.fp_units == pytest.approx(2.38, abs=0.01)


def test_area_monotone_in_resources():
    small = accelerator_area(PROPOSED_LA).total
    big = accelerator_area(PROPOSED_LA.with_(num_int_units=8,
                                             load_streams=32)).total
    assert big > small


def test_area_rejects_unbounded():
    with pytest.raises(ValueError):
        accelerator_area(INFINITE_LA)


# -- address-generator streams -----------------------------------------------------

def test_resolved_stream_addresses():
    s = ResolvedStream(0, base=100, stride=3, is_store=False)
    assert [s.address(k) for k in range(3)] == [100, 103, 106]


def test_resolve_pattern_binds_bases():
    loop = K.daxpy(trip_count=8)
    sa = analyze_streams(loop)
    live = {Reg("dx"): 500, Reg("dy"): 900, Reg("i"): 0}
    resolved = [resolve_pattern(p, n, live)
                for n, p in enumerate(sa.load_streams)]
    assert {r.base for r in resolved} == {500, 900}


def test_resolve_pattern_missing_livein():
    loop = K.daxpy(trip_count=8)
    sa = analyze_streams(loop)
    with pytest.raises(KeyError):
        resolve_pattern(sa.load_streams[0], 0, {})


# -- machine ----------------------------------------------------------------------

def _translated(kernel):
    result = translate_loop(kernel, PROPOSED_LA)
    assert result.ok, result.failure
    return result.image


def test_invoke_matches_interpreter_results():
    kernel = K.adpcm_decode(trip_count=32)
    image = _translated(kernel)
    mem_a = seeded_memory(kernel, seed=11)
    interp = Interpreter(mem_a)
    ref = interp.run_loop(kernel, standard_live_ins(kernel, mem_a,
                                                    DEFAULT_SCALARS))
    for level in (0, 2):
        mem_b = seeded_memory(kernel, seed=11)
        accel = LoopAccelerator(PROPOSED_LA)
        with perf.engine_at(level):
            run = accel.invoke(image, mem_b, standard_live_ins(
                image.loop, mem_b, DEFAULT_SCALARS))
        assert run.live_outs == ref.live_outs, level
        assert mem_a.snapshot() == mem_b.snapshot(), level
        assert run.iterations == 32


def test_wrong_stream_stride_faults_in_event_executor():
    """The event executor cross-checks every datapath address against
    the address generator's base + stride prediction."""
    from repro.vm.guard import differential_check
    kernel = K.daxpy(trip_count=16)
    image = _translated(kernel)
    opid, pattern = next((opid, p) for opid, p
                         in image.streams.patterns.items() if p is not None)
    patterns = dict(image.streams.patterns)
    patterns[opid] = dataclasses.replace(pattern, stride=pattern.stride + 1)
    bad = dataclasses.replace(
        image, digest=None,
        streams=dataclasses.replace(image.streams, patterns=patterns))
    for level in (0, 1, 2):
        mem = seeded_memory(kernel)
        with perf.engine_at(level), \
                pytest.raises(AcceleratorFault, match="address generator"):
            execute_overlapped(bad, mem, standard_live_ins(
                bad.loop, mem, DEFAULT_SCALARS))
    mem = seeded_memory(kernel)
    with perf.engine_at(0):
        check = differential_check(bad, mem, standard_live_ins(
            bad.loop, mem, DEFAULT_SCALARS))
    kinds = [m.kind for m in check.verdict.mismatches]
    assert kinds == ["fault"]
    assert "address generator" in check.verdict.mismatches[0].detail


def test_invoke_timing_includes_bus_overhead():
    kernel = K.sad_16(trip_count=16)
    image = _translated(kernel)
    mem = seeded_memory(kernel)
    accel = LoopAccelerator(PROPOSED_LA)
    run = accel.invoke(image, mem,
                       standard_live_ins(image.loop, mem, DEFAULT_SCALARS))
    assert run.overhead_cycles >= 2 * PROPOSED_LA.bus_latency
    assert run.total_cycles == run.kernel_cycles + run.overhead_cycles


def test_estimate_matches_invoke_kernel_cycles():
    kernel = K.quantize(trip_count=64)
    image = _translated(kernel)
    mem = seeded_memory(kernel)
    accel = LoopAccelerator(PROPOSED_LA)
    run = accel.invoke(image, mem,
                       standard_live_ins(image.loop, mem, DEFAULT_SCALARS))
    est = accel.estimate(image)
    assert est.kernel_cycles == run.kernel_cycles


def test_admits_rejects_too_many_streams():
    kernel = K.mgrid_resid(trip_count=8)     # 9 load streams
    image = _translated(kernel)
    tiny = LoopAccelerator(PROPOSED_LA.with_(load_streams=4))
    assert "load streams" in tiny.admits(image)


def test_admits_rejects_high_ii():
    kernel = K.adpcm_encode(trip_count=8)
    image = _translated(kernel)
    low = LoopAccelerator(PROPOSED_LA.with_(max_ii=2))
    assert "maximum supported II" in low.admits(image)


def test_invoke_faults_on_inadmissible_image():
    kernel = K.adpcm_encode(trip_count=8)
    image = _translated(kernel)
    low = LoopAccelerator(PROPOSED_LA.with_(max_ii=2))
    with pytest.raises(AcceleratorFault):
        low.invoke(image, Memory(), {})


def test_kernel_timing_beats_scalar_for_stream_kernels():
    from repro.cpu import ARM11, InOrderPipeline
    kernel = K.color_convert(trip_count=256)
    image = _translated(kernel)
    accel = LoopAccelerator(PROPOSED_LA)
    est = accel.estimate(image)
    scalar = InOrderPipeline(ARM11).loop_cycles(kernel)
    assert est.total_cycles < scalar


def test_control_words_scale_with_ii():
    small = _translated(K.sad_16(trip_count=8))
    big = _translated(K.adpcm_encode(trip_count=8))
    assert big.ii > small.ii
    assert big.control_words() > small.control_words()
