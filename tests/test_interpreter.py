"""Functional semantics of every opcode, plus the loop driver."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu import Interpreter, Memory, TrapError, wrap64
from repro.ir import Imm, Loop, LoopBuilder, Opcode, Reg
from repro.ir.ops import Operation


def _run_op(opcode, srcs, pred=None, regs=None, memory=None):
    interp = Interpreter(memory or Memory())
    regs = dict(regs or {})
    op = Operation(0, opcode, [Reg("d")] if opcode not in
                   (Opcode.STORE, Opcode.FSTORE, Opcode.BR) else [],
                   [Imm(s) if isinstance(s, (int, float)) else s
                    for s in srcs],
                   predicate=pred)
    interp.execute_op(op, regs)
    return regs.get(Reg("d")), interp


INT_CASES = [
    (Opcode.ADD, (3, 4), 7),
    (Opcode.SUB, (3, 4), -1),
    (Opcode.NEG, (5,), -5),
    (Opcode.ABS, (-5,), 5),
    (Opcode.MIN, (3, -4), -4),
    (Opcode.MAX, (3, -4), 3),
    (Opcode.MUL, (-3, 4), -12),
    (Opcode.DIV, (7, 2), 3),
    (Opcode.DIV, (-7, 2), -3),          # truncating, like C
    (Opcode.DIV, (7, 0), 0),            # defined-zero divide
    (Opcode.REM, (7, 2), 1),
    (Opcode.REM, (-7, 2), -1),
    (Opcode.AND, (0b1100, 0b1010), 0b1000),
    (Opcode.OR, (0b1100, 0b1010), 0b1110),
    (Opcode.XOR, (0b1100, 0b1010), 0b0110),
    (Opcode.NOT, (0,), -1),
    (Opcode.SHL, (1, 4), 16),
    (Opcode.SHR, (-16, 2), -4),         # arithmetic
    (Opcode.SHRU, (-1, 60), 15),        # logical on 64-bit pattern
    (Opcode.CMPEQ, (3, 3), 1),
    (Opcode.CMPNE, (3, 3), 0),
    (Opcode.CMPLT, (2, 3), 1),
    (Opcode.CMPLE, (3, 3), 1),
    (Opcode.CMPGT, (3, 3), 0),
    (Opcode.CMPGE, (3, 3), 1),
    (Opcode.SELECT, (1, 10, 20), 10),
    (Opcode.SELECT, (0, 10, 20), 20),
    (Opcode.MOV, (9,), 9),
    (Opcode.LDI, (9,), 9),
]


@pytest.mark.parametrize("opcode,srcs,expected", INT_CASES,
                         ids=[f"{c[0].value}-{i}" for i, c in
                              enumerate(INT_CASES)])
def test_integer_semantics(opcode, srcs, expected):
    result, _ = _run_op(opcode, srcs)
    assert result == expected


FP_CASES = [
    (Opcode.FADD, (1.5, 2.25), 3.75),
    (Opcode.FSUB, (1.5, 2.25), -0.75),
    (Opcode.FMUL, (1.5, 2.0), 3.0),
    (Opcode.FDIV, (3.0, 2.0), 1.5),
    (Opcode.FDIV, (3.0, 0.0), 0.0),
    (Opcode.FNEG, (1.5,), -1.5),
    (Opcode.FABS, (-1.5,), 1.5),
    (Opcode.FMIN, (1.5, -2.0), -2.0),
    (Opcode.FMAX, (1.5, -2.0), 1.5),
    (Opcode.FCMPLT, (1.0, 2.0), 1),
    (Opcode.FCMPLE, (2.0, 2.0), 1),
    (Opcode.FCMPEQ, (2.0, 2.0), 1),
    (Opcode.ITOF, (3,), 3.0),
    (Opcode.FTOI, (3.9,), 3),
    (Opcode.FTOI, (-3.9,), -3),
]


@pytest.mark.parametrize("opcode,srcs,expected", FP_CASES,
                         ids=[f"{c[0].value}-{i}" for i, c in
                              enumerate(FP_CASES)])
def test_fp_semantics(opcode, srcs, expected):
    result, _ = _run_op(opcode, srcs)
    assert result == expected


def test_wrap64_overflow():
    assert wrap64(2 ** 63) == -(2 ** 63)
    assert wrap64(-(2 ** 63) - 1) == 2 ** 63 - 1
    assert wrap64(5) == 5


def test_mul_wraps_to_64_bits():
    result, _ = _run_op(Opcode.MUL, (2 ** 62, 4))
    assert result == 0


def test_shift_amount_masked_to_six_bits():
    result, _ = _run_op(Opcode.SHL, (1, 64))
    assert result == 1  # 64 & 63 == 0


def test_load_store_roundtrip():
    memory = Memory()
    memory.allocate("a", 8)
    base = memory.base_of("a")
    interp = Interpreter(memory)
    regs = {Reg("addr"): base, Reg("v"): 42}
    store = Operation(0, Opcode.STORE, [], [Reg("addr"), Imm(3), Reg("v")])
    interp.execute_op(store, regs)
    load = Operation(1, Opcode.LOAD, [Reg("d")], [Reg("addr"), Imm(3)])
    interp.execute_op(load, regs)
    assert regs[Reg("d")] == 42


def test_predicated_op_squashes():
    regs = {Reg("p"): 0, Reg("d"): 99}
    interp = Interpreter(Memory())
    op = Operation(0, Opcode.ADD, [Reg("d")], [Imm(1), Imm(2)],
                   predicate=Reg("p"))
    interp.execute_op(op, regs)
    assert regs[Reg("d")] == 99  # unchanged
    regs[Reg("p")] = 1
    interp.execute_op(op, regs)
    assert regs[Reg("d")] == 3


def test_predicated_store_squashes():
    memory = Memory()
    memory.allocate("a", 4)
    interp = Interpreter(memory)
    regs = {Reg("p"): 0, Reg("addr"): memory.base_of("a")}
    op = Operation(0, Opcode.STORE, [], [Reg("addr"), Imm(0), Imm(7)],
                   predicate=Reg("p"))
    interp.execute_op(op, regs)
    assert memory.peek(memory.base_of("a")) == 0


def test_call_traps():
    interp = Interpreter(Memory())
    op = Operation(0, Opcode.CALL, [], [Imm(0)], comment="call sin")
    with pytest.raises(TrapError):
        interp.execute_op(op, {})


def test_uninitialised_register_read_raises():
    interp = Interpreter(Memory())
    op = Operation(0, Opcode.ADD, [Reg("d")], [Reg("ghost"), Imm(1)])
    with pytest.raises(KeyError):
        interp.execute_op(op, {})


def test_cca_compound_executes_inner_ops():
    inner = [Operation(1, Opcode.AND, [Reg("t")], [Reg("a"), Imm(0xF)]),
             Operation(2, Opcode.XOR, [Reg("u")], [Reg("t"), Imm(0x3)])]
    compound = Operation(9, Opcode.CCA_OP, [Reg("u")], [Reg("a")],
                         inner=inner)
    regs = {Reg("a"): 0b1010}
    Interpreter(Memory()).execute_op(compound, regs)
    assert regs[Reg("u")] == (0b1010 & 0xF) ^ 0x3


def test_run_loop_iterates_trip_count():
    b = LoopBuilder("t", trip_count=9)
    loop = b.finish()
    res = Interpreter(Memory()).run_loop(loop, {Reg("i"): 0})
    assert res.iterations == 9


def test_run_loop_live_outs():
    b = LoopBuilder("t", trip_count=5)
    acc = b.live_in("acc")
    b.add(acc, 2, dest=acc)
    loop = b.finish()
    loop.live_outs = [acc]
    res = Interpreter(Memory()).run_loop(loop, {Reg("i"): 0, acc: 0})
    assert res.live_outs[acc] == 10


def test_run_loop_guards_against_nontermination():
    body = [Operation(0, Opcode.MOV, [Reg("c")], [Imm(1)]),
            Operation(1, Opcode.BR, [], [Reg("c")])]
    loop = Loop("forever", body)
    with pytest.raises(TrapError):
        Interpreter(Memory()).run_loop(loop, {}, max_iterations=100)


def test_dynamic_ops_counted():
    b = LoopBuilder("t", trip_count=3)
    b.add(1, 2)
    loop = b.finish()
    res = Interpreter(Memory()).run_loop(loop, {Reg("i"): 0})
    assert res.dynamic_ops == 3 * len(loop.body)


def _run_binop(opcode: Opcode, a: int, b: int) -> int:
    out = Reg("r_out")
    body = [Operation(0, opcode, [out], [Imm(a), Imm(b)]),
            Operation(1, Opcode.BR, [], [Imm(0)])]
    loop = Loop(name=f"tiny_{opcode.name.lower()}", body=body,
                live_ins=[], live_outs=[out], arrays=[], trip_count=1)
    return Interpreter().run_loop(loop, {}).live_outs[out]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(-(2 ** 62), 2 ** 62),
       d=st.integers(-(2 ** 62), 2 ** 62).filter(lambda v: v != 0))
def test_div_rem_exact_beyond_double_precision(n, d):
    """Regression: DIV/REM round toward zero exactly at any magnitude.

    ``int(n / d)`` detours through a float and corrupts quotients once
    the operands exceed 2**53; the interpreter must use integer
    arithmetic.
    """
    q = _run_binop(Opcode.DIV, n, d)
    r = _run_binop(Opcode.REM, n, d)
    expected_q = abs(n) // abs(d)
    if (n < 0) != (d < 0):
        expected_q = -expected_q
    assert q == expected_q
    assert r == n - expected_q * d
    # The specific magnitude class the float path gets wrong:
    assert _run_binop(Opcode.DIV, 2 ** 60 + 3, 3) == (2 ** 60 + 3) // 3


def test_div_rem_by_zero_is_defined_and_identical():
    assert _run_binop(Opcode.DIV, 2 ** 60, 0) == 0
    assert _run_binop(Opcode.REM, -5, 0) == 0
