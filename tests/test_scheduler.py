"""Modulo scheduling: MII, priorities, MRT, the list scheduler,
register assignment."""

import pytest

from repro.accelerator import PROPOSED_LA
from repro.analysis import partition_loop
from repro.cca import map_cca
from repro.ir import Imm, LoopBuilder, Opcode, Reg, build_dfg
from repro.scheduler import (
    INFEASIBLE,
    ModuloReservationTable,
    ScheduleFailure,
    compute_mii,
    compute_rec_mii,
    compute_res_mii,
    height_priority,
    modulo_schedule,
    register_requirements,
    sched_resource,
    swing_priority,
    validate_schedule,
)
from repro.workloads import kernels as K
from repro.workloads.example_fig5 import fig5_loop

UNITS = PROPOSED_LA.units()
WIDE = {"int": 64, "fp": 64, "cca": 4, "ldgen": 16, "stgen": 16}


def _prep(loop, cca=True):
    dfg = build_dfg(loop)
    part = partition_loop(loop, dfg)
    if cca:
        mapping = map_cca(loop, dfg, candidate_opids=part.compute)
        loop = mapping.loop
        dfg = build_dfg(loop)
        part = partition_loop(loop, dfg)
    return loop, dfg, part


# -- MII -----------------------------------------------------------------------

def test_res_mii_integer_pressure():
    # 5 integer ops on 2 units -> ceil(5/2) = 3 (the paper's example).
    b = LoopBuilder("t", trip_count=8)
    for k in range(5):
        b.add(k, 1)
    loop = b.finish()
    dfg = build_dfg(loop)
    part = partition_loop(loop, dfg)
    res, per = compute_res_mii(dfg, part.compute, {"int": 2})
    assert res == 3 and per["int"] == 3


def test_res_mii_infeasible_when_no_units():
    loop = K.daxpy(trip_count=8)
    dfg = build_dfg(loop)
    part = partition_loop(loop, dfg)
    res, per = compute_res_mii(dfg, part.compute,
                               {"int": 2, "ldgen": 2, "stgen": 2, "fp": 0})
    assert res >= INFEASIBLE


def test_rec_mii_simple_accumulator():
    b = LoopBuilder("t", trip_count=8)
    acc = b.live_in("acc")
    b.add(acc, 1, dest=acc)  # 1-cycle self recurrence
    loop = b.finish()
    dfg = build_dfg(loop)
    part = partition_loop(loop, dfg)
    assert compute_rec_mii(dfg, part.compute) == 1


def test_rec_mii_multiply_recurrence():
    b = LoopBuilder("t", trip_count=8)
    acc = b.live_in("acc")
    b.mul(acc, 3, dest=acc)  # 3-cycle self recurrence
    loop = b.finish()
    dfg = build_dfg(loop)
    part = partition_loop(loop, dfg)
    assert compute_rec_mii(dfg, part.compute) == 3


def test_rec_mii_distance_two_halves_requirement():
    # y2 <- y1 <- new: value crosses TWO iterations, so a 4-cycle chain
    # over distance 2 needs only II >= 2.
    b = LoopBuilder("t", trip_count=8)
    y1, y2 = b.live_in("y1"), b.live_in("y2")
    v = b.add(y2, 1)
    w = b.add(v, 1)
    u = b.add(w, 1)
    z = b.add(u, 1)
    b.mov(y1, dest=y2)
    b.mov(z, dest=y1)
    loop = b.finish()
    dfg = build_dfg(loop)
    part = partition_loop(loop, dfg)
    rec = compute_rec_mii(dfg, part.compute)
    assert rec == 3  # (4 adds + 2 movs) spread over 2 iterations


def test_fig5_mii_matches_paper():
    loop, dfg, part = _prep(fig5_loop())
    mii = compute_mii(dfg, part.compute, UNITS)
    assert mii.res_mii == 3   # ceil(5 int ops / 2 units)
    assert mii.rec_mii == 4   # both recurrences are 4 cycles
    assert mii.mii == 4


def test_mii_acyclic_loop_is_resource_bound():
    loop, dfg, part = _prep(K.color_convert(trip_count=8), cca=False)
    mii = compute_mii(dfg, part.compute, WIDE)
    assert mii.rec_mii == 1
    assert mii.mii == mii.res_mii


# -- priorities -------------------------------------------------------------------

def test_swing_orders_critical_recurrence_first():
    loop, dfg, part = _prep(fig5_loop())
    pr = swing_priority(dfg, part.compute, 4)
    # The first scheduled op must belong to one of the two critical
    # recurrences (4-7 or 3-16-9).
    recurrence_ops = {4, 7, 3, 9} | {op.opid for op in loop.body
                                     if op.opcode is Opcode.CCA_OP}
    assert pr.order[0] in recurrence_ops


def test_priority_orders_are_permutations():
    loop, dfg, part = _prep(K.adpcm_decode(trip_count=8))
    for fn in (swing_priority, height_priority):
        pr = fn(dfg, part.compute, 4)
        assert sorted(pr.order) == sorted(part.compute)
        assert pr.rank == {opid: i for i, opid in enumerate(pr.order)}


def test_height_priority_descends():
    loop, dfg, part = _prep(K.color_convert(trip_count=8), cca=False)
    pr = height_priority(dfg, part.compute, 2)
    heights = [pr.height[o] for o in pr.order]
    assert heights == sorted(heights, reverse=True)


def test_swing_charges_more_work_than_height():
    loop, dfg, part = _prep(K.adpcm_decode(trip_count=8))
    swing_units, height_units = [], []
    swing_priority(dfg, part.compute, 4, swing_units.append)
    height_priority(dfg, part.compute, 4, height_units.append)
    assert sum(swing_units) > sum(height_units)


# -- MRT -----------------------------------------------------------------------------

def test_mrt_reserve_and_conflict():
    mrt = ModuloReservationTable(4, {"int": 1})
    assert mrt.available(2, "int")
    mrt.reserve(2, "int")
    assert not mrt.available(2, "int")
    assert not mrt.available(6, "int")  # 6 mod 4 == 2
    assert mrt.available(3, "int")


def test_mrt_release():
    mrt = ModuloReservationTable(4, {"int": 1})
    mrt.reserve(1, "int")
    mrt.release(1, "int")
    assert mrt.available(1, "int")
    with pytest.raises(ValueError):
        mrt.release(1, "int")


def test_mrt_negative_time_wraps():
    mrt = ModuloReservationTable(4, {"int": 1})
    mrt.reserve(-1, "int")  # cycle 3
    assert not mrt.available(3, "int")


def test_mrt_occupancy():
    mrt = ModuloReservationTable(4, {"int": 2})
    mrt.reserve(0, "int")
    mrt.reserve(1, "int")
    assert mrt.occupancy("int") == pytest.approx(2 / 8)


def test_mrt_rejects_bad_ii():
    with pytest.raises(ValueError):
        ModuloReservationTable(0, {})


def test_mrt_render_mentions_ops():
    mrt = ModuloReservationTable(2, {"int": 1, "cca": 1})
    text = mrt.render({4: (0, "int"), 16: (1, "cca")})
    assert "op4" in text and "op16" in text


# -- scheduling ---------------------------------------------------------------------

def test_fig5_schedules_at_ii_4():
    loop, dfg, part = _prep(fig5_loop())
    sched = modulo_schedule(dfg, part.compute, UNITS, max_ii=16)
    assert sched.ii == 4
    assert sched.stage_count == 2  # op10/op12 spill into stage 1
    assert validate_schedule(sched, dfg, part.compute) == []


KERNELS = [
    K.fir_filter(taps=4, trip_count=8), K.iir_biquad(trip_count=8),
    K.adpcm_decode(trip_count=8), K.adpcm_encode(trip_count=8),
    K.sad_16(trip_count=8), K.quantize(trip_count=8),
    K.gf_mult(trip_count=8), K.viterbi_acs(trip_count=8),
    K.color_convert(trip_count=8), K.bitpack(trip_count=8),
    K.checksum(trip_count=8), K.upsample(trip_count=8),
    K.vector_max(trip_count=8), K.daxpy(trip_count=8),
    K.dot_product(trip_count=8), K.stencil5(trip_count=8),
    K.mgrid_resid(trip_count=8), K.swim_update(trip_count=8),
    K.tomcatv_residual(trip_count=8),
]


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_every_kernel_schedule_is_valid(kernel):
    loop, dfg, part = _prep(kernel)
    sched = modulo_schedule(dfg, part.compute, UNITS, max_ii=16)
    assert not isinstance(sched, ScheduleFailure), sched.reason
    assert sched.ii >= sched.mii
    assert validate_schedule(sched, dfg, part.compute) == []


@pytest.mark.parametrize("kernel", KERNELS[:8], ids=lambda k: k.name)
def test_height_priority_schedules_are_valid_too(kernel):
    loop, dfg, part = _prep(kernel)
    sched = modulo_schedule(dfg, part.compute, UNITS, max_ii=16,
                            priority_kind="height")
    if not isinstance(sched, ScheduleFailure):
        assert validate_schedule(sched, dfg, part.compute) == []


def test_schedule_fails_above_max_ii():
    loop, dfg, part = _prep(K.adpcm_encode(trip_count=8))
    result = modulo_schedule(dfg, part.compute, UNITS, max_ii=4)
    assert isinstance(result, ScheduleFailure)
    assert "maximum II" in result.reason or "no feasible" in result.reason


def test_schedule_fails_missing_resource_class():
    loop, dfg, part = _prep(K.daxpy(trip_count=8), cca=False)
    units = dict(UNITS)
    units["fp"] = 0
    result = modulo_schedule(dfg, part.compute, units, max_ii=16)
    assert isinstance(result, ScheduleFailure)


def test_more_units_never_worsen_ii():
    loop, dfg, part = _prep(K.color_convert(trip_count=8))
    tight = modulo_schedule(dfg, part.compute, UNITS, max_ii=64)
    wide = modulo_schedule(dfg, part.compute, WIDE, max_ii=64)
    assert wide.ii <= tight.ii


def test_kernel_cycles_formula():
    loop, dfg, part = _prep(K.sad_16(trip_count=8))
    sched = modulo_schedule(dfg, part.compute, UNITS, max_ii=16)
    span = sched.completion_time(dfg)
    assert sched.kernel_cycles(10, dfg) == 9 * sched.ii + span
    with pytest.raises(ValueError, match="trip count 0"):
        sched.kernel_cycles(0, dfg)


def test_schedule_times_normalised_to_zero():
    loop, dfg, part = _prep(K.adpcm_decode(trip_count=8))
    sched = modulo_schedule(dfg, part.compute, UNITS, max_ii=16)
    assert min(sched.times.values()) == 0


# -- register assignment ----------------------------------------------------------------

def test_load_values_exempt_from_registers():
    # A load result consumed much later would need a register were it
    # not parked in the stream FIFO.
    b = LoopBuilder("t", trip_count=8)
    x = b.array("x")
    i = b.counter()
    v = b.load(b.add(x, i))
    w = b.mul(v, 3)           # long-latency consumer chain
    u = b.mul(w, 5)
    out = b.array("out")
    b.store(b.add(out, i), u)
    loop = b.finish()
    loop2, dfg, part = _prep(loop, cca=False)
    sched = modulo_schedule(dfg, part.compute, UNITS, max_ii=16)
    ra = register_requirements(loop2, dfg, sched, part)
    load_dest = v
    assert load_dest not in ra.mapping


def test_wide_constants_need_registers_small_ones_fold():
    loop = K.adpcm_decode(trip_count=8)
    loop2, dfg, part = _prep(loop)
    sched = modulo_schedule(dfg, part.compute, UNITS, max_ii=16)
    ra = register_requirements(loop2, dfg, sched, part)
    consts = {v for (_s, v) in ra.constants}
    assert 32767 in consts        # wide literal
    assert 7 not in consts        # folds into the control word


def test_live_in_scalars_counted():
    loop = K.sad_16(trip_count=8)
    loop2, dfg, part = _prep(loop)
    sched = modulo_schedule(dfg, part.compute, UNITS, max_ii=16)
    ra = register_requirements(loop2, dfg, sched, part)
    assert ra.detail["live_ins"] >= 1  # the accumulator


def test_fp_and_int_spaces_separate():
    loop = K.daxpy(trip_count=8)
    loop2, dfg, part = _prep(loop)
    sched = modulo_schedule(dfg, part.compute, UNITS, max_ii=16)
    ra = register_requirements(loop2, dfg, sched, part)
    assert ra.fp_regs >= 1        # the scalar a
    from repro.scheduler import fits
    assert fits(ra, 16, 16)
    assert not fits(ra, 16, 0)


def test_sched_resource_mapping():
    loop = fig5_loop()
    assert sched_resource(loop.op(2)) == "ldgen"
    assert sched_resource(loop.op(12)) == "stgen"
    assert sched_resource(loop.op(4)) == "int"
    fp_loop = K.daxpy(trip_count=8)
    fadd = next(op for op in fp_loop.body if op.opcode is Opcode.FADD)
    assert sched_resource(fadd) == "fp"
