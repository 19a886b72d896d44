"""The loop-entry contract: every loop runs at least one iteration.

Entry to a loop is guarded before the loop, so ``trip_count >= 1`` is
an IR invariant (``Loop`` rejects less) and every run-time trip count
override rejects a value below 1.  The shortest legal loops, one and
two iterations, must agree with the scalar reference at every engine
tier.
"""

import pytest

from repro import perf
from repro.accelerator import LoopAccelerator, PROPOSED_LA, execute_overlapped
from repro.accelerator import jit
from repro.cpu import ARM11, InOrderPipeline, Interpreter, standard_live_ins
from repro.vm import translate_loop
from repro.vm.guard import differential_check
from repro.workloads import kernels as K
from repro.workloads.suite import DEFAULT_SCALARS
from tests.conftest import seeded_memory


def _image(trips):
    result = translate_loop(K.daxpy(trip_count=trips), PROPOSED_LA)
    assert result.ok, result.failure
    return result.image


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("trips", [1, 2])
def test_shortest_loops_match_the_reference(trips, level):
    image = _image(trips)
    loop = image.loop
    with perf.engine_at(level):
        memory = seeded_memory(loop, seed=3)
        live = standard_live_ins(loop, memory, DEFAULT_SCALARS)
        outcome = differential_check(image, memory, live)
        assert outcome.verdict.ok, outcome.verdict.describe()
        assert outcome.accel_run.iterations == trips

        ref_memory = seeded_memory(loop, seed=3)
        ref = Interpreter(ref_memory).run_loop(loop, live)
        run = LoopAccelerator(PROPOSED_LA).invoke(image, memory, live)
    assert ref.iterations == run.iterations == trips
    assert run.live_outs == ref.live_outs
    assert memory.snapshot() == ref_memory.snapshot()


def test_loop_below_one_trip_is_rejected():
    with pytest.raises(ValueError, match="trip count 0"):
        K.daxpy(trip_count=0)
    loop = K.daxpy(trip_count=4)
    with pytest.raises(ValueError, match="trip count -1"):
        loop.rebuild(trip_count=-1)


@pytest.mark.parametrize("trips", [0, -3])
def test_override_below_one_trip_is_rejected(trips):
    image = _image(4)
    loop = image.loop
    memory = seeded_memory(loop, seed=3)
    live = standard_live_ins(loop, memory, DEFAULT_SCALARS)
    before = memory.snapshot()
    with pytest.raises(ValueError):
        execute_overlapped(image, memory, live, trip_count=trips)
    for level in (0, 2):
        with perf.engine_at(level), pytest.raises(ValueError):
            jit.execute_pipelined(image, memory, live, trip_count=trips)
    with pytest.raises(ValueError):
        jit.specialize(image, trips)
    with pytest.raises(ValueError):
        LoopAccelerator(PROPOSED_LA).estimate(image, trip_count=trips)
    with pytest.raises(ValueError):
        InOrderPipeline(ARM11).loop_cycles(loop, trips)
    with pytest.raises(ValueError):
        image.schedule.kernel_cycles(trips, image.dfg)
    assert memory.snapshot() == before
