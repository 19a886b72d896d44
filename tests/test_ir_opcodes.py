"""Opcode table invariants."""

import pytest

from repro.ir.opcodes import (
    CCA_ARITH_OPCODES,
    CCA_LOGIC_OPCODES,
    CCA_SUPPORTED_OPCODES,
    COMPARE_OPCODES,
    DEFAULT_LATENCY,
    LOAD_OPCODES,
    MEMORY_OPCODES,
    STORE_OPCODES,
    LatencyModel,
    OpKind,
    Opcode,
    ResourceClass,
)


def test_every_opcode_has_info():
    for opcode in Opcode:
        assert isinstance(opcode.kind, OpKind)
        assert isinstance(opcode.resource, ResourceClass)
        assert Opcode(opcode.value) is opcode


def test_latencies_positive():
    for opcode in Opcode:
        assert opcode.latency >= 1


def test_multiply_takes_three_cycles():
    # Figure 5's stated assumption.
    assert Opcode.MUL.latency == 3


def test_cca_compound_takes_two_cycles():
    assert Opcode.CCA_OP.latency == 2


def test_simple_ops_take_one_cycle():
    for opcode in (Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR,
                   Opcode.XOR, Opcode.SHL, Opcode.SHR, Opcode.CMPLT,
                   Opcode.SELECT, Opcode.MOV):
        assert opcode.latency == 1


def test_fp_units_fully_pipelined_latency():
    assert Opcode.FADD.latency == 4
    assert Opcode.FMUL.latency == 4


def test_cca_does_not_support_shifts_or_multiplies():
    # Section 3.1: "multiplication and shifts ... are not handled by
    # the CCA".
    for opcode in (Opcode.SHL, Opcode.SHR, Opcode.SHRU, Opcode.MUL,
                   Opcode.DIV):
        assert opcode not in CCA_SUPPORTED_OPCODES


def test_cca_supports_arith_logic_compare():
    for opcode in (Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR,
                   Opcode.XOR, Opcode.CMPLT, Opcode.MIN, Opcode.MAX):
        assert opcode in CCA_SUPPORTED_OPCODES


def test_cca_arith_and_logic_rows_disjoint_semantics():
    # Logic opcodes may run on any row; arith opcodes only on arith rows.
    assert Opcode.AND in CCA_LOGIC_OPCODES
    assert Opcode.ADD in CCA_ARITH_OPCODES
    assert Opcode.ADD not in CCA_LOGIC_OPCODES
    assert not (CCA_ARITH_OPCODES & CCA_LOGIC_OPCODES)
    assert Opcode.MOV.cca_row == "logic"
    assert Opcode.SELECT.cca_row == "arith"


def test_memory_opcode_sets():
    assert LOAD_OPCODES | STORE_OPCODES == MEMORY_OPCODES
    assert not (LOAD_OPCODES & STORE_OPCODES)
    assert LOAD_OPCODES == {Opcode.LOAD, Opcode.FLOAD}
    assert STORE_OPCODES == {Opcode.STORE, Opcode.FSTORE}
    for opcode in Opcode:
        assert opcode.is_memory == (opcode in MEMORY_OPCODES)
        assert opcode.is_memory == (opcode.kind is OpKind.MEMORY)


def test_compare_opcodes_kind():
    assert COMPARE_OPCODES == {op for op in Opcode
                               if op.kind is OpKind.COMPARE}


def test_resource_classes():
    assert Opcode.ADD.resource is ResourceClass.INT
    assert Opcode.FADD.resource is ResourceClass.FP
    assert Opcode.LOAD.resource is ResourceClass.MEM
    assert Opcode.BR.resource is ResourceClass.BRANCH
    assert Opcode.CCA_OP.resource is ResourceClass.CCA


def test_latency_model_override():
    model = LatencyModel(overrides={Opcode.MUL: 5})
    assert model.latency(Opcode.MUL) == 5
    assert model.latency(Opcode.ADD) == 1


def test_default_latency_matches_info():
    for opcode in Opcode:
        assert DEFAULT_LATENCY.latency(opcode) == opcode.latency


def test_value_ops_are_the_ops_with_semantics():
    # Memory, control and CCA compounds are executed by the interpreter
    # itself; every other opcode is a value op with a scalar function.
    outside = {OpKind.MEMORY, OpKind.CONTROL, OpKind.CCA_COMPOUND}
    for opcode in Opcode:
        assert opcode.is_value == (opcode.kind not in outside)
        assert opcode.is_value == (opcode.semantics is not None)
        if opcode.is_value:
            assert opcode.arity in (1, 2, 3)
            assert opcode.result_type in (int, float, None)


def test_commutativity_flags():
    assert Opcode.ADD.is_commutative
    assert Opcode.MUL.is_commutative
    assert not Opcode.SUB.is_commutative
    assert not Opcode.SHL.is_commutative
