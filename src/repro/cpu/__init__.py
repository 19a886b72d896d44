"""Scalar baseline processor: functional interpreter and timing models."""

from repro.cpu.interpreter import (
    ExecResult,
    Interpreter,
    TrapError,
    standard_live_ins,
)
from repro.cpu.memory import Memory, Value
from repro.cpu.pipeline import (
    ARM11,
    CORTEX_A8,
    CPUConfig,
    InOrderPipeline,
    QUAD_ISSUE,
)
from repro.ir.opcodes import wrap64

__all__ = [
    "ARM11", "CORTEX_A8", "CPUConfig", "ExecResult", "InOrderPipeline",
    "Interpreter", "Memory", "QUAD_ISSUE", "TrapError", "Value",
    "standard_live_ins", "wrap64",
]
