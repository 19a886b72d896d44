"""Typed tier-2 codegen (:mod:`repro.accelerator.jit`).

The specializer proves each value's kind at specialization time and
emits every operation in the cheapest form that returns exactly what
the reference returns.  These tests hold it to that:

* a per-opcode table: every typed form, over every operand kind, equals
  ``Interpreter.execute_op`` on value and type, or raises the same
  exception type -- and never raises where it claims it cannot;
* a differential corpus: seeded generated loops of every benchmark
  kernel shape run through ``jit.execute_pipelined`` at trip counts
  1, 2, S, S+1 and 257 (S = rotating register slots) and must match
  ``execute_overlapped`` on live-outs, memory, value types and timing;
* adversarial memory (floats, NaN/inf, ints beyond 64 bits in int
  arrays): the generated kernel gives the reference's result, or
  raises the reference's exception type;
* no codegen error is ever filed as "unsupported" over the suite and
  the generated corpus.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro import obs, perf
from repro.accelerator import PROPOSED_LA, execute_overlapped
from repro.accelerator import jit
from repro.cpu import Interpreter, Memory, standard_live_ins
from repro.ir import LoopBuilder
from repro.ir.opcodes import Opcode
from repro.ir.ops import Imm, Operation, Reg
from repro.resilience.incidents import incident_log
from repro.vm.translator import translate_loop
from repro.workloads.generator import GeneratorSpec, generate_loop
from repro.workloads.suite import DEFAULT_SCALARS, all_benchmarks
from tests.conftest import seeded_memory


@pytest.fixture(autouse=True)
def _fresh_code_cache():
    jit.clear_code_cache()
    yield
    jit.clear_code_cache()


def _same(a, b) -> bool:
    """Equal value *and* type (NaN equals NaN, -0.0 differs from 0.0)."""
    return type(a) is type(b) and repr(a) == repr(b)


def _canonical(values: dict) -> dict:
    return {key: (type(v).__name__, repr(v)) for key, v in values.items()}


# -- per-opcode typed forms ---------------------------------------------------

_TOP, _BOTTOM = (1 << 63) - 1, -(1 << 63)

#: Sample values of each operand kind.  An ``unknown`` load may hold
#: anything memory holds: ints beyond 64 bits, floats, ``np.float64``,
#: NaN and infinities.
_SAMPLES = {
    jit.INT64: [0, 1, -1, 5, -7, 63, 64, _TOP, _BOTTOM],
    jit.INT: [0, -3, _TOP, _BOTTOM, 1 << 64, (1 << 64) + 3, -(1 << 70)],
    jit.FLOAT: [0.0, -0.0, 1.5, -2.25, 1e308, math.nan, math.inf,
                -math.inf],
    jit.UNKNOWN: [0, -9, _BOTTOM, 1 << 63, (1 << 64) + 5, 10 ** 400,
                  2.75, -0.5, math.nan, math.inf, np.float64(3.5),
                  np.float64(math.nan)],
}
#: Immediate operands: shift amounts 0, 63, 64 and -1 among them.
_IMMEDIATES = [0, 1, 2, 63, 64, -1, -8, _TOP, _BOTTOM, 1 << 64, 2.5,
               -0.0, math.nan]

_UNARY = [Opcode.NEG, Opcode.ABS, Opcode.NOT, Opcode.MOV, Opcode.LDI,
          Opcode.FNEG, Opcode.FABS, Opcode.ITOF, Opcode.FTOI]
_BINARY = [Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.REM,
           Opcode.MIN, Opcode.MAX, Opcode.AND, Opcode.OR, Opcode.XOR,
           Opcode.SHL, Opcode.SHR, Opcode.SHRU, Opcode.CMPEQ, Opcode.CMPNE,
           Opcode.CMPLT, Opcode.CMPLE, Opcode.CMPGT, Opcode.CMPGE,
           Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV,
           Opcode.FMIN, Opcode.FMAX, Opcode.FCMPLT, Opcode.FCMPLE,
           Opcode.FCMPEQ]
_TERNARY = [Opcode.SELECT]

#: Operand slots: a register of each kind, or each immediate.
_SLOTS = [("reg", kind) for kind in _SAMPLES] + [
    ("imm", value) for value in _IMMEDIATES]


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 -- the type is compared
        return "raise", type(exc)


def _reference(opcode, srcs, values):
    out = Reg("r")
    op = Operation(opid=0, opcode=opcode, dests=[out], srcs=srcs)
    regs = dict(zip((s for s in srcs if isinstance(s, Reg)), values))

    def run():
        Interpreter(Memory(), mode="reference").execute_op(op, regs)
        return regs[out]
    return _outcome(run)


def _check_form(opcode, slots) -> int:
    """Every value combination of one (opcode, operand slots) form."""
    names = ["a", "b", "c"][:len(slots)]
    srcs, operands, pools = [], [], []
    for name, (what, payload) in zip(names, slots):
        if what == "reg":
            srcs.append(Reg(name))
            operands.append(jit._Val(name, payload))
            pools.append(_SAMPLES[payload])
        else:
            srcs.append(Imm(payload))
            operands.append(jit._imm(payload))
    op = Operation(opid=0, opcode=opcode, dests=[Reg("r")], srcs=srcs)
    expr, kind, raises = jit._value_expr(op, operands)
    params = [n for n, (what, _p) in zip(names, slots) if what == "reg"]
    fn = eval(f"lambda {', '.join(params)}: {expr}", dict(jit._HELPERS))
    checked = 0
    for values in itertools.product(*pools):
        got = _outcome(fn, *values)
        want = _reference(opcode, srcs, values)
        context = f"{opcode.name}{slots} on {values}: {expr}"
        assert got[0] == want[0], f"{context}: {got} != {want}"
        if got[0] == "raise":
            assert got[1] is want[1], f"{context}: {got} != {want}"
            assert raises, f"{context}: raised where proven not to"
        else:
            assert _same(got[1], want[1]), f"{context}: {got} != {want}"
            if kind == jit.INT64:
                assert type(got[1]) is int and _BOTTOM <= got[1] <= _TOP
            elif kind == jit.INT:
                assert type(got[1]) is int
            elif kind == jit.FLOAT:
                assert type(got[1]) is float
        checked += 1
    return checked


@pytest.mark.parametrize("opcode", _UNARY + _BINARY + _TERNARY,
                         ids=lambda oc: oc.name)
def test_typed_form_matches_execute_op(opcode):
    arity = 1 if opcode in _UNARY else 2 if opcode in _BINARY else 3
    checked = 0
    for slots in itertools.product(_SLOTS, repeat=arity):
        if all(what == "imm" for what, _p in slots):
            continue  # constant operands are covered in mixed forms
        if arity == 3 and sum(what == "imm" for what, _p in slots) > 1:
            continue  # keep SELECT's cube small
        checked += _check_form(opcode, slots)
    assert checked > 0


@pytest.mark.parametrize("value,kind", [
    (5, jit.INT64), (-(1 << 63), jit.INT64), (1 << 63, jit.INT),
    (1.5, jit.FLOAT), (math.inf, jit.FLOAT), (True, jit.UNKNOWN)])
def test_immediate_kinds(value, kind):
    val = jit._imm(value)
    assert val.kind == kind
    assert _same(eval(val.expr), value)


def test_typed_edge_cases():
    """Edges named in the typed-form contract, spelled out."""
    def run(opcode, a, b=None):
        srcs = [Reg("a")] + ([] if b is None else [Imm(b)])
        operands = [jit._Val("a", jit.INT64)] + (
            [] if b is None else [jit._imm(b)])
        op = Operation(opid=0, opcode=opcode, dests=[Reg("r")], srcs=srcs)
        expr = jit._value_expr(op, operands)[0]
        got = eval(expr, dict(jit._HELPERS), {"a": a})
        want = _reference(opcode, srcs, [a])
        assert want[0] == "ok" and _same(got, want[1]), (expr, got, want)
        return got

    assert run(Opcode.ABS, _BOTTOM) == _BOTTOM
    assert run(Opcode.NEG, _BOTTOM) == _BOTTOM
    assert run(Opcode.SHRU, -5, 0) == -5
    assert run(Opcode.SHRU, -1, 1) == _TOP
    assert run(Opcode.SHL, 1, 64) == 1        # amount & 63 == 0
    assert run(Opcode.SHR, -8, -1) == -1      # amount & 63 == 63
    assert type(run(Opcode.CMPLT, 1, 2)) is int
    assert type(run(Opcode.CMPEQ, 2, 2)) is int


def test_min_max_of_out_of_range_ints():
    for opcode in (Opcode.MIN, Opcode.MAX):
        for slots in itertools.product(
                [("reg", jit.INT), ("reg", jit.UNKNOWN)], repeat=2):
            assert _check_form(opcode, slots) > 0


# -- generated corpus ---------------------------------------------------------

#: The loop shapes of the benchmark's ``kernels`` workload
#: (``perfbench/workloads.py`` ``KERNEL_SHAPES``).
KERNEL_SHAPES = (
    dict(n_ops=8, n_load_streams=2, n_store_streams=1, n_recurrences=1,
         recurrence_length=2, fp_fraction=0.0, use_predication=True),
    dict(n_ops=16, n_load_streams=2, n_store_streams=1, n_recurrences=0,
         fp_fraction=0.0, use_predication=False),
    dict(n_ops=22, n_load_streams=3, n_store_streams=1, n_recurrences=1,
         recurrence_length=3, fp_fraction=0.0, use_predication=True),
    dict(n_ops=14, n_load_streams=2, n_store_streams=1, n_recurrences=0,
         fp_fraction=0.4, use_predication=False),
    dict(n_ops=10, n_load_streams=1, n_store_streams=1, n_recurrences=2,
         recurrence_length=4, fp_fraction=0.0, use_predication=True),
    dict(n_ops=18, n_load_streams=3, n_store_streams=0, n_recurrences=1,
         recurrence_length=2, fp_fraction=0.2, use_predication=False),
)
CORPUS_SEEDS = (11, 12, 13)
LONG_TRIPS = 257


def _corpus():
    for index, shape in enumerate(KERNEL_SHAPES):
        for seed in CORPUS_SEEDS:
            yield pytest.param(shape, seed * 100 + index,
                               id=f"shape{index}-seed{seed}")


def _translated(shape, seed):
    loop = generate_loop(GeneratorSpec(trip_count=LONG_TRIPS, seed=seed,
                                       **shape))
    result = translate_loop(loop, PROPOSED_LA)
    if not result.ok:
        pytest.skip(f"not translatable: {result.failure}")
    return loop, result.image


def _trip_counts(image):
    slots = max(1, image.schedule.stage_count) + 1
    return sorted({1, 2, slots, slots + 1, LONG_TRIPS})


def _counter(name: str) -> int:
    return obs.metrics_snapshot()["counters"].get(name, 0)


@pytest.mark.parametrize("shape,seed", _corpus())
def test_generated_loops_match_the_event_executor(shape, seed):
    loop, image = _translated(shape, seed)
    for trips in _trip_counts(image):
        mem_ref = seeded_memory(loop, seed=seed)
        live = standard_live_ins(loop, mem_ref, DEFAULT_SCALARS)
        ref = execute_overlapped(image, mem_ref, live, trip_count=trips)
        mem_spec = seeded_memory(loop, seed=seed)
        before = _counter("vm.specialized")
        with perf.engine_at(2):
            spec = jit.execute_pipelined(image, mem_spec, live,
                                         trip_count=trips)
        assert _counter("vm.specialized") == before + 1, \
            f"trips={trips}: fell back instead of specializing"
        assert _canonical(spec.live_outs) == _canonical(ref.live_outs)
        assert _canonical(mem_spec.snapshot()) == \
            _canonical(mem_ref.snapshot())
        assert (spec.iterations, spec.cycles, spec.max_inflight_iterations,
                spec.utilization) == (ref.iterations, ref.cycles,
                                      ref.max_inflight_iterations,
                                      ref.utilization)


_ADVERSARIAL = [math.nan, math.inf, -math.inf, 2.5, -7.75,
                np.float64(1.25), 1 << 63, -(1 << 63), (1 << 64) + 7,
                -(1 << 64) - 3, 10 ** 400]


def _adversarial_memory(loop, seed, rate):
    """Seeded memory whose arrays hold hostile values at *rate*."""
    memory = seeded_memory(loop, seed=seed)
    rng = np.random.default_rng(seed)
    for arr in loop.arrays:
        base = memory.base_of(arr.name)
        for i in range(arr.length):
            if rng.random() < rate:
                pick = _ADVERSARIAL[int(rng.integers(len(_ADVERSARIAL)))]
                memory.write(base + i, pick)
    return memory


@pytest.mark.parametrize("rate", [0.002, 0.05])
@pytest.mark.parametrize("shape,seed", _corpus())
def test_generated_kernels_on_adversarial_memory(shape, seed, rate):
    loop, image = _translated(shape, seed)
    for trips in _trip_counts(image):
        kernel = jit.kernel_for(image, trips)
        assert kernel is not None
        mem_ref = _adversarial_memory(loop, seed, rate)
        live = standard_live_ins(loop, mem_ref, DEFAULT_SCALARS)
        want = _outcome(execute_overlapped, image, mem_ref, live, trips)
        mem_spec = _adversarial_memory(loop, seed, rate)
        got = _outcome(kernel.run, mem_spec, live)
        assert got[0] == want[0], f"trips={trips}: {got} != {want}"
        if got[0] == "raise":
            assert got[1] is want[1]
            continue
        expected = {reg: want[1].live_outs[reg] for reg in kernel.out_regs}
        assert _canonical(got[1]) == _canonical(expected)
        assert _canonical(mem_spec.snapshot()) == \
            _canonical(mem_ref.snapshot())


def _hand_kernel(loop):
    result = translate_loop(loop, PROPOSED_LA)
    assert result.ok, result.failure
    kernel = jit.kernel_for(result.image, loop.trip_count)
    assert kernel is not None
    return result.image, kernel


def _compare_run(image, kernel, memory_factory, live):
    mem_ref, mem_spec = memory_factory(), memory_factory()
    want = _outcome(execute_overlapped, image, mem_ref, live)
    got = _outcome(kernel.run, mem_spec, live)
    assert got[0] == want[0], (got, want)
    if got[0] == "raise":
        assert got[1] is want[1]
        return None
    expected = {reg: want[1].live_outs[reg] for reg in kernel.out_regs}
    assert _canonical(got[1]) == _canonical(expected)
    assert _canonical(mem_spec.snapshot()) == _canonical(mem_ref.snapshot())
    return got[1]


def test_dead_ops_that_may_raise_still_raise():
    """A dead op is dropped only if it cannot raise: ``int(nan)`` in an
    unread CCA temporary must still raise where the reference does."""
    b = LoopBuilder("dead_raise", trip_count=16)
    x = b.array("x", length=32)
    y = b.array("y", length=32)
    i = b.counter()
    v = b.load(b.add(x, i))
    b.shl(b.xor(b.add(v, Imm(1)), Imm(3)), Imm(2))  # nothing reads these
    b.store(b.add(y, i), v)
    loop = b.finish()
    image, kernel = _hand_kernel(loop)
    # The unread, non-raising ops are gone; the raising add stays.
    shl = next(op for op in image.loop.body if op.opcode is Opcode.SHL)
    assert f"v{shl.opid}_" not in kernel.source
    assert "int(" in kernel.source.split("for _ in range", 1)[1]
    for hostile in (None, math.nan, math.inf, 2.5, 10 ** 400):
        def memory():
            mem = seeded_memory(loop, seed=3)
            if hostile is not None:
                mem.write(mem.base_of("x") + 5, hostile)
            return mem
        live = standard_live_ins(loop, memory(), DEFAULT_SCALARS)
        _compare_run(image, kernel, memory, live)


def test_dead_op_live_ins_stay_required():
    """The reference reads a dead op's operands, and faults on a missing
    live-in: dropping the op must not drop that requirement."""
    b = LoopBuilder("dead_live_in", trip_count=16)
    x = b.array("x", length=32)
    y = b.array("y", length=32)
    i = b.counter()
    scale = b.live_in("scale")
    v = b.load(b.add(x, i))
    copy = b.mov(scale)  # nothing reads it, and a copy cannot raise
    b.store(b.add(y, i), v)
    loop = b.finish()
    image, kernel = _hand_kernel(loop)
    mov = next(op for op in image.loop.body if copy in op.dests)
    assert f"v{mov.opid}_" not in kernel.source
    assert scale in kernel.required


def test_carried_read_of_a_hostile_live_in():
    """Iteration 0's distance-1 read is the live-in, so a value copied
    from it is unknown even though the recurrence itself is int64."""
    b = LoopBuilder("carried", trip_count=16)
    x = b.array("x", length=32)
    y = b.array("y", length=32)
    i = b.counter()
    acc = b.live_in("acc")
    carried = b.mov(acc)
    b.store(b.add(y, i), b.add(carried, b.load(b.add(x, i))))
    b.and_(b.add(acc, Imm(1)), Imm(255), dest=acc)
    b.live_out(acc)
    loop = b.finish()
    image, kernel = _hand_kernel(loop)
    for start in (7, -(1 << 63), 1 << 70, 2.5, np.float64(-3.25),
                  math.nan):
        def memory():
            return seeded_memory(loop, seed=4)
        live = dict(standard_live_ins(loop, memory(), DEFAULT_SCALARS))
        live[acc] = start
        _compare_run(image, kernel, memory, live)


# -- codegen health -----------------------------------------------------------

def test_no_codegen_errors_over_suite_and_corpus():
    """A crashing emitter falls back silently; its count must stay 0."""
    images = []
    for bench in all_benchmarks():
        for loop in bench.kernels:
            result = translate_loop(loop, PROPOSED_LA)
            if result.ok and not loop.annotations.get("while_loop"):
                images.append((result.image, loop.trip_count))
    for index, shape in enumerate(KERNEL_SHAPES):
        for seed in CORPUS_SEEDS:
            loop = generate_loop(GeneratorSpec(trip_count=64,
                                               seed=seed * 100 + index,
                                               **shape))
            result = translate_loop(loop, PROPOSED_LA)
            if result.ok:
                images.append((result.image, loop.trip_count))
    assert images
    before = jit.code_cache_stats()["errors"]
    kernels = [jit.kernel_for(image, trips) for image, trips in images]
    assert jit.code_cache_stats()["errors"] == before
    assert _counter("jit.codegen_errors") == 0
    assert all(kernel is not None for kernel in kernels)


def test_codegen_errors_are_counted_apart(monkeypatch):
    loop = generate_loop(GeneratorSpec(trip_count=16, seed=3))
    result = translate_loop(loop, PROPOSED_LA)
    assert result.ok

    def broken(image, trips):
        raise KeyError("emitter bug")
    monkeypatch.setattr(jit, "specialize", broken)
    before = jit.code_cache_stats()
    seq = len(incident_log())
    assert jit.kernel_for(result.image, 16) is None
    after = jit.code_cache_stats()
    assert after["errors"] - before["errors"] == 1
    assert after["unsupported"] - before["unsupported"] == 1
    assert _counter("jit.codegen_errors") == 1
    [incident] = incident_log().since(seq)
    assert incident.kind == "jit-codegen-error"
    assert "emitter bug" in incident.message


def test_suite_steady_state_calls_no_helpers():
    """The steady loop of a suite kernel is plain typed arithmetic."""
    loop = next(loop for bench in all_benchmarks() for loop in bench.kernels
                if loop.name == "g721e_fir")
    result = translate_loop(loop, PROPOSED_LA)
    assert result.ok
    lines = jit.specialize(result.image, 64).source.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("    for _ in range("))
    steady = []
    for line in lines[start + 1:]:
        if not line.startswith("        "):
            break
        steady.append(line)
    assert any("__cells" in line for line in steady)
    for helper in ("__w(", "__bits(", "__sh("):
        assert not any(helper in line for line in steady), helper
