"""Golden scalar semantics of every value opcode.

``data/opcode_golden.json`` records, for each value opcode and every
tuple of operands drawn from a fixed corpus, the result's type and
``repr`` or the class of the exception raised.  It was recorded from
``Interpreter.execute_op`` while each opcode's semantics were still
written out in the interpreter, so it pins the exact values, the result
types and the order in which operands are converted (which conversion
raises first) of the opcode table's functions.
"""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cpu import Interpreter
from repro.ir.opcodes import Opcode
from repro.ir.ops import Operation, Reg

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "opcode_golden.json").read_text())
CORPUS = [0, 1, -1, 2, -2, 2 ** 63, -2 ** 63, 2 ** 64, 2 ** 53 + 1, -0.0,
          float("nan"), float("inf"), float("-inf"), np.float64(-2.5), True]
VALUE_OPS = [op for op in Opcode if op.is_value]


def _outcome(call) -> str:
    try:
        value = call()
    except Exception as exc:
        return f"!{type(exc).__name__}"
    return f"{type(value).__name__}:{value!r}"


def _cases(opcode):
    """(corpus operand tuple, recorded outcome) for every tuple."""
    expected = GOLDEN["results"][opcode.value]
    tuples = list(itertools.product(CORPUS, repeat=opcode.arity))
    assert len(tuples) == len(expected)
    return [(args, GOLDEN["outcomes"][i]) for args, i in zip(tuples, expected)]


def test_corpus_and_coverage():
    assert [_outcome(lambda v=v: v) for v in CORPUS] == GOLDEN["corpus"]
    assert set(GOLDEN["results"]) == {op.value for op in VALUE_OPS}


@pytest.mark.parametrize("opcode", VALUE_OPS, ids=lambda op: op.value)
def test_semantics_match_golden(opcode):
    for args, expected in _cases(opcode):
        got = _outcome(lambda: opcode.semantics(*args))
        assert got == expected, (opcode, args)


@pytest.mark.parametrize("opcode", VALUE_OPS, ids=lambda op: op.value)
def test_execute_op_matches_golden(opcode):
    interp = Interpreter()
    srcs = [Reg(f"s{i}") for i in range(opcode.arity)]
    op = Operation(0, opcode, [Reg("d")], list(srcs))
    for args, expected in _cases(opcode):
        regs = dict(zip(srcs, args))

        def call():
            interp.execute_op(op, regs)
            return regs[Reg("d")]
        assert _outcome(call) == expected, (opcode, args)


@pytest.mark.parametrize("opcode", VALUE_OPS, ids=lambda op: op.value)
def test_result_type_declared(opcode):
    """A declared result type holds on every value; an op without one
    passes one of its operands through as itself."""
    for args in itertools.product(CORPUS, repeat=opcode.arity):
        try:
            value = opcode.semantics(*args)
        except Exception:
            continue
        if opcode.result_type is None:
            assert any(value is a for a in args), (opcode, args)
        else:
            assert type(value) is opcode.result_type, (opcode, args)
