"""The event-driven overlapped executor: the strongest equivalence check."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.accelerator import PROPOSED_LA, execute_overlapped
from repro.cpu import Interpreter, standard_live_ins
from repro.vm import translate_loop
from repro.workloads import kernels as K
from repro.workloads.example_fig5 import fig5_loop
from repro.workloads.generator import GeneratorSpec, generate_loop
from repro.workloads.suite import DEFAULT_SCALARS
from tests.conftest import seeded_memory

KERNELS = [
    K.sad_16(trip_count=24), K.adpcm_decode(trip_count=24),
    K.adpcm_encode(trip_count=24), K.fir_filter(taps=6, trip_count=24),
    K.daxpy(trip_count=24), K.quantize(trip_count=24),
    K.gf_mult(trip_count=24), K.viterbi_acs(trip_count=24),
    K.bitpack(trip_count=24), K.upsample(trip_count=24),
    K.iir_biquad(trip_count=24), K.checksum(trip_count=24),
    K.stencil5(trip_count=24), K.color_convert(trip_count=24),
    fig5_loop(trip_count=24),
]


def _image(loop):
    result = translate_loop(loop, PROPOSED_LA)
    assert result.ok, (loop.name, result.failure)
    return result.image


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_overlapped_matches_interpreter(kernel):
    image = _image(kernel)
    mem_ref = seeded_memory(kernel, seed=31)
    ref = Interpreter(mem_ref).run_loop(
        kernel, standard_live_ins(kernel, mem_ref, DEFAULT_SCALARS))
    mem_ovl = seeded_memory(kernel, seed=31)
    run = execute_overlapped(
        image, mem_ovl,
        standard_live_ins(image.loop, mem_ovl, DEFAULT_SCALARS))
    assert mem_ref.snapshot() == mem_ovl.snapshot()
    assert run.live_outs == ref.live_outs
    assert run.iterations == ref.iterations


@pytest.mark.parametrize("kernel", KERNELS[:8], ids=lambda k: k.name)
def test_overlapped_cycles_match_schedule_formula(kernel):
    image = _image(kernel)
    mem = seeded_memory(kernel, seed=31)
    run = execute_overlapped(
        image, mem, standard_live_ins(image.loop, mem, DEFAULT_SCALARS))
    expected = image.schedule.kernel_cycles(run.iterations, image.dfg)
    assert run.cycles == expected


def test_overlap_actually_happens():
    # Software pipelining's whole point: multiple iterations in flight.
    image = _image(K.daxpy(trip_count=32))
    mem = seeded_memory(K.daxpy(trip_count=32), seed=1)
    run = execute_overlapped(
        image, mem, standard_live_ins(image.loop, mem, DEFAULT_SCALARS))
    assert run.max_inflight_iterations >= 3


def test_utilization_bounded_and_nonzero():
    image = _image(K.fir_filter(taps=8, trip_count=32))
    mem = seeded_memory(K.fir_filter(taps=8, trip_count=32), seed=1)
    run = execute_overlapped(
        image, mem, standard_live_ins(image.loop, mem, DEFAULT_SCALARS))
    assert run.utilization
    for resource, value in run.utilization.items():
        assert 0.0 < value <= 1.0
    # FIR saturates the integer units (II is ResMII-bound on int).
    assert run.utilization["int"] == pytest.approx(1.0)


def test_zero_trips():
    image = _image(K.sad_16(trip_count=8))
    mem = seeded_memory(K.sad_16(trip_count=8), seed=1)
    with pytest.raises(ValueError, match="trip count 0"):
        execute_overlapped(image, mem, {}, trip_count=0)


SLOW = settings(max_examples=20, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

gen_specs = st.builds(
    GeneratorSpec,
    n_ops=st.integers(4, 20),
    n_load_streams=st.integers(1, 4),
    n_store_streams=st.integers(0, 2),
    n_recurrences=st.integers(0, 2),
    recurrence_length=st.just(2),
    use_predication=st.booleans(),
    trip_count=st.just(12),
    seed=st.integers(0, 5_000),
)


@SLOW
@given(gen_specs)
def test_overlapped_matches_interpreter_on_generated_loops(spec):
    loop = generate_loop(spec)
    result = translate_loop(loop, PROPOSED_LA.with_(
        load_streams=64, store_streams=64, max_ii=64,
        num_int_regs=256, num_fp_regs=256))
    if not result.ok:
        return
    mem_ref = seeded_memory(loop, seed=spec.seed)
    ref = Interpreter(mem_ref).run_loop(
        loop, standard_live_ins(loop, mem_ref))
    mem_ovl = seeded_memory(loop, seed=spec.seed)
    run = execute_overlapped(result.image, mem_ovl,
                             standard_live_ins(result.image.loop, mem_ovl))
    assert mem_ref.snapshot() == mem_ovl.snapshot()
    assert run.live_outs == ref.live_outs
