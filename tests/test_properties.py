"""Property-based tests (hypothesis) on core invariants.

The heavyweight property: every loop the synthetic generator produces
must (a) pass IR validation, (b) analyse into affine streams, (c) modulo
schedule with zero dependence/resource violations, and (d) execute on
the accelerator bit-identically to the scalar interpreter.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import perf
from repro.accelerator import (LoopAccelerator, PROPOSED_LA,
                               execute_overlapped)
from repro.analysis import analyze_streams
from repro.analysis.linexpr import LinExpr, symbol_of
from repro.cpu import Interpreter, standard_live_ins, wrap64
from repro.ir import Reg, build_dfg, validate_loop
from repro.ir.graphalgo import strongly_connected_components
from repro.scheduler import ScheduleFailure, modulo_schedule, validate_schedule
from repro.analysis import partition_loop
from repro.cca import map_cca
from repro.vm import translate_loop
from repro.workloads.generator import GeneratorSpec, generate_loop
from tests.conftest import seeded_memory

SLOW = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


# -- wrap64 -----------------------------------------------------------------------

@given(st.integers(min_value=-(2 ** 70), max_value=2 ** 70))
def test_wrap64_range(v):
    w = wrap64(v)
    assert -(2 ** 63) <= w < 2 ** 63
    assert (w - v) % (2 ** 64) == 0


@given(st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1))
def test_wrap64_identity_in_range(v):
    assert wrap64(v) == v


@given(st.integers(), st.integers())
def test_wrap64_addition_homomorphic(a, b):
    assert wrap64(wrap64(a) + wrap64(b)) == wrap64(a + b)


# -- LinExpr ------------------------------------------------------------------------

regs = st.sampled_from([Reg("a"), Reg("b"), Reg("c")])
exprs = st.recursive(
    st.one_of(st.integers(-100, 100).map(LinExpr.constant),
              regs.map(LinExpr.of)),
    lambda children: st.tuples(children, children).map(
        lambda ab: ab[0] + ab[1]),
    max_leaves=8)


@given(exprs, exprs)
def test_linexpr_addition_commutes(a, b):
    assert a + b == b + a


@given(exprs)
def test_linexpr_scale_zero_is_constant_zero(a):
    z = a.scaled(0)
    assert z.is_constant and z.const == 0


@given(exprs, st.integers(-8, 8))
def test_linexpr_scaling_distributes(a, k):
    assert a.scaled(k) + a.scaled(-k) == LinExpr.constant(0)


# -- Tarjan ---------------------------------------------------------------------------

@given(st.dictionaries(st.integers(0, 12),
                       st.lists(st.integers(0, 12), max_size=4),
                       max_size=13))
def test_scc_partitions_nodes(graph):
    nodes = sorted(set(graph) | {n for vs in graph.values() for n in vs})
    sccs = strongly_connected_components(
        nodes, lambda n: [v for v in graph.get(n, []) if v in nodes])
    flat = [n for scc in sccs for n in scc]
    assert sorted(flat) == nodes            # partition: every node once


@given(st.dictionaries(st.integers(0, 10),
                       st.lists(st.integers(0, 10), max_size=3),
                       max_size=11))
def test_scc_mutual_reachability(graph):
    nodes = sorted(set(graph) | {n for vs in graph.values() for n in vs})
    succs = lambda n: [v for v in graph.get(n, []) if v in nodes]

    def reachable(src):
        seen = {src}
        stack = [src]
        while stack:
            for nxt in succs(stack.pop()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    for scc in strongly_connected_components(nodes, succs):
        if len(scc) > 1:
            for a in scc:
                assert set(scc) <= reachable(a)


# -- generated loops end to end ----------------------------------------------------------

gen_specs = st.builds(
    GeneratorSpec,
    n_ops=st.integers(4, 24),
    n_load_streams=st.integers(1, 5),
    n_store_streams=st.integers(0, 3),
    n_recurrences=st.integers(0, 2),
    recurrence_length=st.integers(2, 4),
    use_predication=st.booleans(),
    trip_count=st.just(12),
    seed=st.integers(0, 10_000),
)


@SLOW
@given(gen_specs)
def test_generated_loops_are_valid_ir(spec):
    loop = generate_loop(spec)
    assert validate_loop(loop) == []


@SLOW
@given(gen_specs)
def test_generated_loops_have_affine_streams(spec):
    loop = generate_loop(spec)
    assert analyze_streams(loop).ok


@SLOW
@given(gen_specs)
def test_generated_loops_schedule_validly(spec):
    loop = generate_loop(spec)
    dfg = build_dfg(loop)
    part = partition_loop(loop, dfg)
    mapping = map_cca(loop, dfg, candidate_opids=part.compute)
    dfg2 = build_dfg(mapping.loop)
    part2 = partition_loop(mapping.loop, dfg2)
    sched = modulo_schedule(dfg2, part2.compute, PROPOSED_LA.units(),
                            max_ii=64)
    if isinstance(sched, ScheduleFailure):
        return  # resource-infeasible loops may exist; they fall back
    assert validate_schedule(sched, dfg2, part2.compute) == []
    assert sched.ii >= sched.mii


def _typed(values):
    """Values keyed as given, compared by type name and repr, so an int
    that should be a float (or -0.0 against 0.0) is a difference."""
    return {key: (type(v).__name__, repr(v)) for key, v in values.items()}


@SLOW
@given(gen_specs)
def test_generated_loops_accelerator_equivalence(spec):
    """``invoke`` at engine tiers 0 and 2 and the event executor all
    match the scalar interpreter, value and type."""
    loop = generate_loop(spec)
    result = translate_loop(loop, PROPOSED_LA.with_(
        load_streams=64, store_streams=64, max_ii=64,
        num_int_regs=256, num_fp_regs=256))
    if not result.ok:
        return
    image = result.image
    mem_ref = seeded_memory(loop, seed=spec.seed)
    ref = Interpreter(mem_ref).run_loop(
        loop, standard_live_ins(loop, mem_ref))
    expected = (_typed(ref.live_outs), _typed(mem_ref.snapshot()))
    for level in (0, 2):
        mem_acc = seeded_memory(loop, seed=spec.seed)
        with perf.engine_at(level):
            run = LoopAccelerator(image.config).invoke(
                image, mem_acc, standard_live_ins(image.loop, mem_acc))
        assert (_typed(run.live_outs),
                _typed(mem_acc.snapshot())) == expected, level
        assert run.iterations == ref.iterations
    mem_evt = seeded_memory(loop, seed=spec.seed)
    overlapped = execute_overlapped(image, mem_evt,
                                    standard_live_ins(image.loop, mem_evt))
    assert (_typed(overlapped.live_outs),
            _typed(mem_evt.snapshot())) == expected


@SLOW
@given(gen_specs, st.integers(1, 3))
def test_generated_loop_interpreter_deterministic(spec, runs):
    loop = generate_loop(spec)
    snapshots = []
    for _ in range(runs):
        mem = seeded_memory(loop, seed=spec.seed)
        Interpreter(mem).run_loop(loop, standard_live_ins(loop, mem))
        snapshots.append(mem.snapshot())
    assert all(s == snapshots[0] for s in snapshots)
