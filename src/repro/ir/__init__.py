"""Baseline-ISA intermediate representation.

Public surface: opcodes, operands, operations, loops, the loop builder,
dataflow graphs, and control flow graphs.
"""

from repro.ir.opcodes import (
    DEFAULT_LATENCY,
    LatencyModel,
    OpKind,
    Opcode,
    ResourceClass,
)
from repro.ir.ops import Imm, Operand, Operation, Reg
from repro.ir.loop import ArrayDecl, Loop, validate_loop
from repro.ir.builder import LoopBuilder
from repro.ir.dfg import DataflowGraph, Edge, build_dfg
from repro.ir.cfg import (
    BasicBlock,
    ControlFlowGraph,
    Function,
    IdentifiedLoop,
    Program,
    identify_loops,
    linear_program,
)

__all__ = [
    "ArrayDecl", "BasicBlock", "ControlFlowGraph", "DEFAULT_LATENCY",
    "DataflowGraph", "Edge", "Function", "IdentifiedLoop", "Imm",
    "LatencyModel", "Loop", "LoopBuilder", "OpKind", "Opcode", "Operand",
    "Operation", "Program", "Reg", "ResourceClass", "build_dfg",
    "identify_loops", "linear_program", "validate_loop",
]
