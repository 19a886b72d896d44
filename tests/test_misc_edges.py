"""Edge cases across small module surfaces."""

import pytest

from repro.cpu import Memory
from repro.ir import Imm, LoopBuilder, Opcode, Reg
from repro.ir.ops import Operation
from repro.perf.codecache import CodeCache


# -- operands / printing ---------------------------------------------------------

def test_imm_and_reg_str():
    assert str(Imm(5)) == "#5"
    assert str(Imm(2.5)) == "#2.5"
    assert str(Reg("x")) == "%x"


def test_operation_str_forms():
    op = Operation(3, Opcode.ADD, [Reg("d")], [Reg("a"), Imm(1)],
                   predicate=Reg("p"), comment="note")
    text = str(op)
    assert "op3" in text and "%d" in text and "add" in text
    assert "if %p" in text and "note" in text
    store = Operation(4, Opcode.STORE, [], [Reg("a"), Imm(0), Reg("v")])
    assert " = " not in str(store)


def test_loop_str():
    loop = LoopBuilder("tiny", trip_count=2).finish()
    assert "tiny" in str(loop)


# -- memory ----------------------------------------------------------------------------

def test_memory_allocate_explicit_base():
    memory = Memory()
    base = memory.allocate("a", 16, base=5000)
    assert base == 5000
    other = memory.allocate("b", 16)
    assert other >= 5000 + 16


def test_memory_read_array_default_length():
    memory = Memory()
    memory.allocate("a", 4)
    memory.write_array("a", [1, 2, 3, 4])
    assert memory.read_array("a") == [1, 2, 3, 4]
    assert memory.read_array("a", 2) == [1, 2]


# -- code cache -------------------------------------------------------------------------

def test_code_cache_contains_and_len():
    cache = CodeCache(capacity=2)
    cache.insert("a", 1)
    assert "a" in cache and "b" not in cache
    assert len(cache) == 1


# -- builder wrappers (the less-used ones) --------------------------------------------------

def test_builder_remaining_wrappers():
    b = LoopBuilder("w", trip_count=2)
    ops = [
        b.div(7, 2), b.rem(7, 2), b.not_(1), b.neg(3), b.abs_(-3),
        b.cmple(1, 2), b.cmpeq(1, 1), b.cmpne(1, 2), b.cmpge(2, 1),
        b.mov(4), b.itof(3), b.ftoi(3.5), b.fsub(1.0, 2.0),
        b.fdiv(1.0, 2.0),
    ]
    loop = b.finish()
    assert all(isinstance(r, Reg) for r in ops)
    opcodes = {op.opcode for op in loop.body}
    assert Opcode.DIV in opcodes and Opcode.ITOF in opcodes


def test_builder_emit_explicit_space():
    b = LoopBuilder("w", trip_count=2)
    r = b.emit(Opcode.MOV, 1, space="fp")
    assert r.space == "fp"
    b.finish()


# -- mrt render multiple ops same cell cycle ---------------------------------------------

def test_mrt_render_two_units_same_cycle():
    from repro.scheduler import ModuloReservationTable
    mrt = ModuloReservationTable(2, {"int": 2})
    text = mrt.render({1: (0, "int"), 2: (0, "int"), 3: (1, "int")})
    assert "op1" in text and "op2" in text and "op3" in text


# -- encoding: fp immediates round trip -------------------------------------------------------

def test_encoding_fp_immediate():
    from repro.isa import decode_loop, encode_loop
    b = LoopBuilder("fpc", trip_count=4)
    x = b.array("fx", is_float=True)
    i = b.counter()
    v = b.fload(b.add(x, i))
    b.fstore(b.add(x, i), b.fmul(v, 0.5))
    loop = b.finish()
    back = decode_loop(encode_loop(loop))
    assert any(isinstance(s, Imm) and s.value == 0.5
               for op in back.body for s in op.srcs)
