"""The whole-array steady state of the JIT (:mod:`repro.accelerator.jit`).

* a per-opcode table: every whole-array form, over arrays of each
  runtime class and immediates, returns per lane exactly what
  ``Interpreter.execute_op`` returns, or declines -- and always
  declines where the reference raises;
* a property test over generated loops: the vector function,
  ``kernel.run`` and ``execute_pipelined`` at engine 2 agree with
  ``execute_overlapped`` on live-outs and memory (type and repr) and on
  timing, or raise the same exception type, on ``_prepare_memory`` data
  with and without hostile cells and live-ins; a decline leaves memory
  byte-identical and runs the reference;
* the suite and the benchmark-shaped corpus take the vector path with
  no declines, so a silent fallback cannot pass for "no gain";
* a decline compiles nothing, and an image the emitter refuses is
  negative-cached as unsupported;
* a data-dependent raise is a decline, not a deopt.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs, perf
from repro.accelerator import PROPOSED_LA, execute_overlapped, jit
from repro.cpu import standard_live_ins
from repro.ir import LoopBuilder
from repro.vm.runtime import _prepare_memory
from repro.vm.translator import translate_loop
from repro.workloads.generator import GeneratorSpec, generate_loop
from repro.workloads.suite import DEFAULT_SCALARS, all_benchmarks
from repro.ir.opcodes import Opcode
from repro.ir.ops import Imm, Operation, Reg
from tests.test_jit_typed import (_ADVERSARIAL, _BOTTOM, _IMMEDIATES,
                                  _TOP, _VALUE_OPS, KERNEL_SHAPES,
                                  _canonical, _outcome, _reference, _same)


@pytest.fixture(autouse=True)
def _fresh_code_cache():
    jit.clear_code_cache()
    yield
    jit.clear_code_cache()


def _counters() -> dict:
    return obs.metrics_snapshot()["counters"]


def _hostile(memory, loop, seed: int, rate: float):
    rng = np.random.default_rng(seed)
    for arr in loop.arrays:
        base = memory.base_of(arr.name)
        for i in range(arr.length):
            if rng.random() < rate:
                memory.write(base + i, _ADVERSARIAL[
                    int(rng.integers(len(_ADVERSARIAL)))])
    return memory


# -- per-opcode whole-array forms ---------------------------------------------

#: Lane values of each runtime class.
_LANES = {
    jit._VI: [0, 1, -1, 5, -7, 63, 64, _TOP, _BOTTOM],
    jit._VF: [0.0, -0.0, 1.5, -2.25, 1e308, 2.0 ** 63, -(2.0 ** 63),
              math.nan, math.inf],
    jit._VR: [np.float64(v) for v in (0.0, -0.0, 3.5, -1e300, math.nan,
                                      -math.inf)] + [0.5],
}
_VSLOTS = [("arr", cls) for cls in _LANES] + [
    ("imm", value) for value in _IMMEDIATES]


def _vector_form(op, slots, lanes):
    """Run one op's whole-array form over *lanes* of its array operands;
    returns the per-lane objects, or ``"value"`` for a decline."""
    gen = object.__new__(jit._Codegen)
    gen._vlines, gen._memo, gen._temps = [], {}, 0
    gen.trips = len(lanes)
    columns = iter(zip(*lanes))
    names, operands, args = [], [], []
    for i, (what, payload) in enumerate(slots):
        if what == "imm":
            operands.append(jit._Vec(jit._imm(payload).expr,
                                     jit._imm_class(payload), imm=True,
                                     const=payload))
            continue
        names.append(f"P{i}")
        operands.append(jit._Vec(f"P{i}", payload, f"P{i}o"))
        column = list(next(columns))
        dtype = np.int64 if payload == jit._VI else np.float64
        args += [np.array(column, dtype), column]
    objs = gen._objs(gen._vop(op, operands))
    params = ", ".join(f"{name}, {name}o" for name in names)
    source = (f"def f({params}):\n" + "\n".join(gen._vlines)
              + f"\n    return {objs}\n")
    namespace = dict(jit._HELPERS)
    exec(source, namespace)
    with np.errstate(all="ignore"):
        return namespace["f"](*args), source


def _check_vector_form(opcode, slots) -> int:
    """Lanes that matched; a declined array is retried lane by lane."""
    srcs = [Reg(f"s{i}") if what == "arr" else Imm(payload)
            for i, (what, payload) in enumerate(slots)]
    op = Operation(opid=0, opcode=opcode, dests=[Reg("r")], srcs=srcs)
    lanes = list(itertools.product(*[_LANES[payload]
                                     for what, payload in slots
                                     if what == "arr"]))
    try:
        got, source = _vector_form(op, slots, lanes)
    except jit.SpecializationUnsupported:
        return 0
    results = ([_vector_form(op, slots, [lane]) for lane in lanes]
               if got == "value" else [([value], source) for value in got])
    checked = 0
    for lane, (got, source) in zip(lanes, results):
        if got == "value":
            continue  # declining is always exact
        want = _reference(opcode, srcs, lane)
        context = f"{opcode.name}{slots} on {lane}:\n{source}"
        assert want[0] == "ok", f"{context}: reference raised {want}"
        assert _same(got[0], want[1]), f"{context}: {got} != {want[1]!r}"
        checked += 1
    return checked


@pytest.mark.parametrize("opcode", _VALUE_OPS, ids=lambda oc: oc.name)
def test_vector_form_matches_execute_op(opcode):
    arity = opcode.arity
    checked = 0
    for slots in itertools.product(_VSLOTS, repeat=arity):
        if all(what == "imm" for what, _p in slots):
            continue
        if arity == 3 and sum(what == "imm" for what, _p in slots) > 1:
            continue
        checked += _check_vector_form(opcode, slots)
    assert checked > 0


# -- property: vector == kernel.run == execute_pipelined == reference --------

specs = st.builds(
    GeneratorSpec,
    n_ops=st.integers(4, 20),
    n_load_streams=st.integers(1, 3),
    n_store_streams=st.integers(0, 2),
    n_recurrences=st.integers(0, 3),
    recurrence_length=st.integers(1, 4),
    fp_fraction=st.sampled_from([0.0, 0.2, 0.5]),
    use_predication=st.booleans(),
    trip_count=st.one_of(st.sampled_from([1, 2, 3]), st.integers(64, 512)),
    seed=st.integers(0, 10 ** 6),
)
#: Live-in accumulator starts: clean, then values that are not int64.
_STARTS = [None, 7, -(1 << 63), 1 << 70, 2.5, np.float64(-3.25), math.nan]


def _compare(want, got, mem_want, mem_got, context):
    assert got[0] == want[0], f"{context}: {got} != {want}"
    if got[0] == "raise":
        assert got[1] is want[1], context
        return
    assert _canonical(got[1]) == _canonical(want[1]), context
    assert _canonical(mem_got.snapshot()) == \
        _canonical(mem_want.snapshot()), context


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=specs, mem_seed=st.integers(0, 10 ** 6),
       rate=st.sampled_from([0.0, 0.0, 0.01, 0.2]),
       start=st.sampled_from(_STARTS))
def test_vector_scalar_and_reference_agree(spec, mem_seed, rate, start):
    loop = generate_loop(spec)
    result = translate_loop(loop, PROPOSED_LA)
    if not result.ok:
        return
    def memory():
        return _hostile(_prepare_memory(loop, mem_seed), loop, mem_seed,
                        rate)

    live = dict(standard_live_ins(loop, memory(), DEFAULT_SCALARS))
    for reg in loop.live_ins:
        if reg.name.startswith("acc") and start is not None:
            live[reg] = start
    _check_paths(result.image, spec.trip_count, memory, live)


def _timing(run) -> tuple:
    return (run.iterations, run.cycles, run.max_inflight_iterations,
            run.utilization)


def _live_outs(outcome):
    """An executor's outcome with its run reduced to the live-outs."""
    return outcome if outcome[0] == "raise" else ("ok", outcome[1].live_outs)


def _check_paths(image, trips, memory, live):
    """Vector function, ``kernel.run`` and ``execute_pipelined`` at
    engine 2 against ``execute_overlapped``, over fresh ``memory()``
    each; returns the vector path's result (None for a decline)."""
    kernel = jit.specialize(image, trips)
    mem_ref = memory()
    ref = _outcome(execute_overlapped, image, mem_ref, live, trips)
    want = ref if ref[0] == "raise" else (
        "ok", {reg: ref[1].live_outs[reg] for reg in kernel.out_regs})

    mem_vector = memory()
    before = _canonical(mem_vector.snapshot())
    outs = kernel.vector.run(mem_vector, live)
    if outs is None:
        assert _canonical(mem_vector.snapshot()) == before
    else:
        vector = ("ok", dict(zip(kernel.out_regs, outs)))
        _compare(want, vector, mem_ref, mem_vector, "vector")

    mem_run = memory()
    run = kernel.run(mem_run, live)
    assert (run is None) == (outs is None)
    if run is None:
        assert _canonical(mem_run.snapshot()) == before
    else:
        _compare(want, ("ok", run), mem_ref, mem_run, "kernel.run")

    mem_pipe = memory()
    with perf.engine_at(2):
        pipe = _outcome(jit.execute_pipelined, image, mem_pipe, live, trips)
    _compare(_live_outs(ref), _live_outs(pipe), mem_ref, mem_pipe,
             "execute_pipelined")
    if ref[0] == "ok":
        assert _timing(pipe[1]) == _timing(ref[1])
    return outs


def test_predicated_ops_and_raw_floats():
    """Predicated pure, load, store and recurrence ops, and a float
    stream of ``np.float64`` cells copied to a store unconverted."""
    b = LoopBuilder("predicated", trip_count=96)
    x = b.array("x", length=112)
    y = b.array("y", length=112)
    z = b.array("z", length=112, is_float=True)
    w = b.array("w", length=112, is_float=True)
    i = b.counter()
    xa, ya, za, wa = (b.add(arr, i) for arr in (x, y, z, w))
    # A squashed op keeps its destination's prior value, so every
    # predicated destination is also a live-in.
    acc, scaled, f = b.live_in("acc"), b.live_in("s"), b.live_in("f", "fp")
    v = b.load(xa)
    p = b.cmpgt(v, Imm(0))
    b.set_predicate(p)
    b.mul(v, Imm(3), dest=scaled)
    b.add(acc, v, dest=acc)
    b.emit(Opcode.FLOAD, za, 0, dest=f)
    b.store(ya, scaled)
    b.set_predicate(None)
    b.fstore(wa, b.select(p, f, b.fload(za, 1)))
    b.live_out(acc)
    loop = b.finish()
    result = translate_loop(loop, PROPOSED_LA)
    assert result.ok, result.failure
    for seed in range(3):
        def memory():
            return _prepare_memory(loop, seed)
        live = standard_live_ins(loop, memory(), DEFAULT_SCALARS)
        assert _check_paths(result.image, 96, memory, live) is not None


# -- the vector path is taken -------------------------------------------------

#: Loops whose clean data declines (none in the suite or the corpus
#: today; an image with a memory-ordering edge is not specialized).
MEMORY_ORDERED: tuple[str, ...] = ()


def _suite_and_corpus():
    seen = set()
    for bench in all_benchmarks():
        for loop in bench.kernels:
            if loop.name not in seen:
                seen.add(loop.name)
                yield loop
    for index, shape in enumerate(KERNEL_SHAPES):
        for trips in (256, 1024, 4096):
            yield generate_loop(GeneratorSpec(trip_count=trips,
                                              seed=7000 + index, **shape))


def test_clean_data_takes_the_vector_path():
    declined, ran = [], 0
    for loop in _suite_and_corpus():
        result = translate_loop(loop, PROPOSED_LA)
        if not result.ok or loop.annotations.get("while_loop"):
            continue
        memory = _prepare_memory(loop, 11)
        live = standard_live_ins(loop, memory, DEFAULT_SCALARS)
        before = dict(_counters())
        with perf.engine_at(2):
            jit.execute_pipelined(result.image, memory, live)
        after = _counters()
        assert after.get("vm.specialized", 0) == \
            before.get("vm.specialized", 0) + 1, loop.name
        if after.get("jit.vector_declines", 0) > \
                before.get("jit.vector_declines", 0):
            declined.append(loop.name)
        ran += 1
    assert ran > 70
    assert tuple(declined) == MEMORY_ORDERED
    counters = _counters()
    assert counters.get("jit.vector_runs", 0) == ran - len(declined)
    assert counters.get("jit.vector_declines", 0) == len(declined)


@pytest.mark.parametrize("offset,vector", [
    (8, False),    # y[i] is x[i + 8]: read 8 iterations after its write
    (0, True),     # in place: each cell read before its write
    (-1, True),    # y[i] is x[i - 1]: written after its last read
    (300, True),   # disjoint
])
def test_streams_aliased_through_live_ins(offset, vector):
    """Bases that alias at run time: the vector path runs only when
    every shared cell is read before it is written, in the event order
    of the schedule (which is what the reference executes)."""
    b = LoopBuilder("alias", trip_count=64)
    x = b.array("x", length=80)
    y = b.array("y", length=80)
    i = b.counter()
    b.store(b.add(y, i), b.add(b.load(b.add(x, i)), Imm(1)))
    loop = b.finish()
    result = translate_loop(loop, PROPOSED_LA)
    assert result.ok

    def memory():
        return _prepare_memory(loop, 4)
    live = dict(standard_live_ins(loop, memory(), DEFAULT_SCALARS))
    live[y] = live[x] + offset
    outs = _check_paths(result.image, 64, memory, live)
    assert (outs is not None) == vector
    if not vector:
        assert _counters()["jit.vector_declines.overlap"] >= 1


def test_declines_are_counted_with_their_reason():
    loop = generate_loop(GeneratorSpec(trip_count=64, seed=5, n_recurrences=0,
                                       use_predication=False))
    result = translate_loop(loop, PROPOSED_LA)
    assert result.ok
    kernel = jit.kernel_for(result.image, 64)
    assert kernel.vector is not None
    memory = _prepare_memory(loop, 3)
    memory.write(memory.base_of("in0") + 5, 2.5)  # a float in an int stream
    live = standard_live_ins(loop, memory, DEFAULT_SCALARS)
    kernel.run(memory, live)
    counters = _counters()
    assert counters["jit.vector_declines"] == 1
    assert counters["jit.vector_declines.stream-types"] == 1
    assert "jit.vector_runs" not in counters


def test_a_decline_compiles_nothing():
    """A hostile call after a clean one declines to the reference
    without compiling anything, and matches engine 0."""
    loop = generate_loop(GeneratorSpec(trip_count=64, seed=9))
    result = translate_loop(loop, PROPOSED_LA)
    assert result.ok
    live = standard_live_ins(loop, _prepare_memory(loop, 1), DEFAULT_SCALARS)
    with perf.engine_at(2):
        jit.execute_pipelined(result.image, _prepare_memory(loop, 1), live)
    compiled = jit.code_cache_stats()["compiled"]
    units = _counters()["translator.units.specialize"]
    runs = []
    for level in (2, 0):
        hostile = _prepare_memory(loop, 1)
        hostile.write(hostile.base_of("in0") + 4, math.nan)
        with perf.engine_at(level):
            runs.append((_live_outs(_outcome(
                jit.execute_pipelined, result.image, hostile, live)),
                hostile))
    (got, mem_got), (want, mem_want) = runs
    _compare(want, got, mem_want, mem_got, "engine 2")
    assert _canonical(mem_got.snapshot()) == \
        _canonical(mem_want.snapshot())
    assert jit.code_cache_stats()["compiled"] == compiled
    counters = _counters()
    assert counters["translator.units.specialize"] == units
    assert counters["jit.vector_declines"] == 1
    assert counters["jit.vector_runs"] == 1


def test_a_memory_ordered_image_is_unsupported():
    """An image with a memory-ordering edge is refused at specialization
    and negative-cached; it is a shape, not a codegen error."""
    b = LoopBuilder("inplace", trip_count=64)
    x = b.array("x", length=80)
    i = b.counter()
    addr = b.add(x, i)
    b.store(addr, b.add(b.load(addr), Imm(1)))
    loop = b.finish()
    image = translate_loop(loop, PROPOSED_LA).image
    assert any(edge.kind == "mem" for edge in image.dfg.edges)
    before = jit.code_cache_stats()
    assert jit.kernel_for(image, 64) is None
    after = jit.code_cache_stats()
    assert after["unsupported"] == before["unsupported"] + 1
    assert after["errors"] == before["errors"]


# -- data-dependent raises ----------------------------------------------------

def test_a_data_dependent_raise_is_not_a_deopt():
    """The whole-array function declines on the NaN and the reference
    raises it; the kernel stays cached."""
    b = LoopBuilder("nan_add", trip_count=64)
    x = b.array("x", length=80)
    y = b.array("y", length=80)
    i = b.counter()
    b.store(b.add(y, i), b.add(b.load(b.add(x, i)), b.live_in("k")))
    loop = b.finish()
    image = translate_loop(loop, PROPOSED_LA).image

    def run(poison):
        memory = _prepare_memory(loop, 2)
        if poison:
            memory.write(memory.base_of("x") + 7, math.nan)
        live = standard_live_ins(loop, memory, {"k": 3})
        with perf.engine_at(2):
            return _outcome(jit.execute_pipelined, image, memory, live)

    before = jit.code_cache_stats()
    assert run(poison=True) == ("raise", ValueError)
    assert run(poison=False)[0] == "ok"
    after = jit.code_cache_stats()
    assert after["deopts"] == before["deopts"]
    assert after["compiled"] == before["compiled"] + 1
    counters = _counters()
    assert counters["jit.vector_declines"] == 1
    assert counters["jit.vector_runs"] == 1


def test_a_raise_leaves_memory_as_the_reference_does():
    """In-place ``x[i] += 1`` with a NaN at i=50: engine 2 leaves the
    memory the reference leaves when it raises."""
    b = LoopBuilder("inplace", trip_count=64)
    x = b.array("x", length=80)
    i = b.counter()
    addr = b.add(x, i)
    b.store(addr, b.add(b.load(addr), Imm(1)))
    loop = b.finish()
    image = translate_loop(loop, PROPOSED_LA).image
    runs = []
    for run in (execute_overlapped, jit.execute_pipelined):
        memory = _prepare_memory(loop, 1)
        memory.write(memory.base_of("x") + 50, math.nan)
        live = standard_live_ins(loop, memory, {})
        with perf.engine_at(2):
            assert _outcome(run, image, memory, live) == ("raise", ValueError)
        runs.append(_canonical(memory.snapshot()))
    assert runs[0] == runs[1]

