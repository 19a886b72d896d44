"""Opcode definitions for the baseline RISC instruction set.

VEAL expresses loops in the baseline instruction set of a general purpose
processor (paper Section 2.3).  This module defines that instruction set:
a small RISC-like ISA with integer, floating point, memory, compare and
control operations, together with the resource class each opcode occupies
and the default latency model used throughout the reproduction.

The paper's worked example (Figure 5) assumes multiplies take 3 cycles,
the CCA takes 2 cycles and all other ops take 1 cycle; those are the
defaults here.  Double-precision floating point units are fully pipelined
with a 4 cycle latency, consistent with the design space exploration in
Section 3.1 ("if a floating-point unit is fully pipelined (which was
assumed), modulo scheduling does a very good job utilizing the unit").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class ResourceClass(enum.Enum):
    """Execution resource class an operation occupies for one cycle.

    The loop accelerator template (Figure 1) provides integer units,
    floating point units, a CCA, address generators for memory streams,
    and dedicated loop control hardware.  ``BRANCH`` and ``ADDRESS`` ops
    consume no FU slot on the accelerator: control is implemented by the
    loop control hardware and address computation by the address
    generators (Section 2.1).
    """

    INT = "int"
    FP = "fp"
    MEM = "mem"
    CCA = "cca"
    BRANCH = "branch"


class OpKind(enum.Enum):
    """Broad semantic category used by analyses and transforms."""

    ARITH = "arith"          # simple integer arithmetic (CCA rows 1/3)
    LOGIC = "logic"          # bitwise logic (all CCA rows)
    SHIFT = "shift"          # shifts: integer unit only, not CCA-able
    MUL = "mul"              # multiplies: integer unit only, not CCA-able
    DIV = "div"              # divides / remainders
    COMPARE = "compare"      # comparisons producing 0/1 (CCA rows 1/3)
    SELECT = "select"        # predicated select (if-conversion result)
    FLOAT = "float"          # floating point arithmetic
    MEMORY = "memory"        # loads and stores
    CONTROL = "control"      # branches, calls
    MOVE = "move"            # register moves / immediate materialisation
    CCA_COMPOUND = "cca"     # a collapsed CCA subgraph instruction


class Opcode(enum.Enum):
    """Every opcode in the baseline instruction set."""

    # Integer arithmetic.
    ADD = "add"
    SUB = "sub"
    NEG = "neg"
    ABS = "abs"
    MIN = "min"
    MAX = "max"
    # Multiplication / division.
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    # Bitwise logic.
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    # Shifts.
    SHL = "shl"
    SHR = "shr"          # arithmetic shift right
    SHRU = "shru"        # logical shift right
    # Comparisons (result is 0 or 1).
    CMPEQ = "cmpeq"
    CMPNE = "cmpne"
    CMPLT = "cmplt"
    CMPLE = "cmple"
    CMPGT = "cmpgt"
    CMPGE = "cmpge"
    # Predication.
    SELECT = "select"    # select(pred, a, b) == a if pred else b
    # Moves.
    MOV = "mov"
    LDI = "ldi"          # load immediate
    # Floating point (double precision).
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FNEG = "fneg"
    FABS = "fabs"
    FMIN = "fmin"
    FMAX = "fmax"
    FCMPLT = "fcmplt"
    FCMPLE = "fcmple"
    FCMPEQ = "fcmpeq"
    ITOF = "itof"        # int -> double conversion
    FTOI = "ftoi"        # double -> int conversion (truncating)
    # Memory.
    LOAD = "load"
    STORE = "store"
    FLOAD = "fload"
    FSTORE = "fstore"
    # Control.
    BR = "br"            # conditional loop-back branch
    JUMP = "jump"        # unconditional branch
    CALL = "call"        # function call (precludes modulo scheduling)
    BRL = "brl"          # branch-and-link (procedural abstraction, Fig. 9)
    # Collapsed CCA subgraph (created by the CCA mapper, not by frontends).
    CCA_OP = "cca_op"


@dataclass(frozen=True)
class OpcodeInfo:
    """Static properties of one opcode."""

    opcode: Opcode
    kind: OpKind
    resource: ResourceClass
    latency: int
    is_commutative: bool = False


_INFO: dict[Opcode, OpcodeInfo] = {}


def _register(opcode: Opcode, kind: OpKind, resource: ResourceClass,
              latency: int, commutative: bool = False) -> None:
    _INFO[opcode] = OpcodeInfo(opcode, kind, resource, latency, commutative)


# Integer arithmetic: 1 cycle on an integer unit.
for _op in (Opcode.ADD, Opcode.MIN, Opcode.MAX):
    _register(_op, OpKind.ARITH, ResourceClass.INT, 1, commutative=True)
for _op in (Opcode.SUB, Opcode.NEG, Opcode.ABS):
    _register(_op, OpKind.ARITH, ResourceClass.INT, 1)
# Multiplies take 3 cycles (paper Figure 5); divides are long-latency.
_register(Opcode.MUL, OpKind.MUL, ResourceClass.INT, 3, commutative=True)
_register(Opcode.DIV, OpKind.DIV, ResourceClass.INT, 8)
_register(Opcode.REM, OpKind.DIV, ResourceClass.INT, 8)
# Logic: 1 cycle.
for _op in (Opcode.AND, Opcode.OR, Opcode.XOR):
    _register(_op, OpKind.LOGIC, ResourceClass.INT, 1, commutative=True)
_register(Opcode.NOT, OpKind.LOGIC, ResourceClass.INT, 1)
# Shifts: 1 cycle, integer unit, not supported by the CCA (Section 3.1).
for _op in (Opcode.SHL, Opcode.SHR, Opcode.SHRU):
    _register(_op, OpKind.SHIFT, ResourceClass.INT, 1)
# Comparisons: 1 cycle.
for _op in (Opcode.CMPEQ, Opcode.CMPNE, Opcode.CMPLT, Opcode.CMPLE,
            Opcode.CMPGT, Opcode.CMPGE):
    _register(_op, OpKind.COMPARE, ResourceClass.INT, 1)
_register(Opcode.SELECT, OpKind.SELECT, ResourceClass.INT, 1)
_register(Opcode.MOV, OpKind.MOVE, ResourceClass.INT, 1)
_register(Opcode.LDI, OpKind.MOVE, ResourceClass.INT, 1)
# Floating point: fully pipelined 4 cycle FUs; divide is long-latency.
for _op in (Opcode.FADD, Opcode.FMUL, Opcode.FMIN, Opcode.FMAX):
    _register(_op, OpKind.FLOAT, ResourceClass.FP, 4, commutative=True)
for _op in (Opcode.FSUB, Opcode.FNEG, Opcode.FABS, Opcode.ITOF,
            Opcode.FTOI, Opcode.FCMPLT, Opcode.FCMPLE, Opcode.FCMPEQ):
    _register(_op, OpKind.FLOAT, ResourceClass.FP, 4)
_register(Opcode.FDIV, OpKind.FLOAT, ResourceClass.FP, 16)
# Memory: 2 cycle load-use latency; stores commit asynchronously.
for _op in (Opcode.LOAD, Opcode.FLOAD):
    _register(_op, OpKind.MEMORY, ResourceClass.MEM, 2)
for _op in (Opcode.STORE, Opcode.FSTORE):
    _register(_op, OpKind.MEMORY, ResourceClass.MEM, 1)
# Control.
for _op in (Opcode.BR, Opcode.JUMP, Opcode.CALL, Opcode.BRL):
    _register(_op, OpKind.CONTROL, ResourceClass.BRANCH, 1)
# The collapsed CCA instruction executes in 2 cycles (paper Section 3.1).
_register(Opcode.CCA_OP, OpKind.CCA_COMPOUND, ResourceClass.CCA, 2)


def info(opcode: Opcode) -> OpcodeInfo:
    """Return the static :class:`OpcodeInfo` for *opcode*."""
    return _INFO[opcode]


COMPARE_OPCODES = frozenset({
    Opcode.CMPEQ, Opcode.CMPNE, Opcode.CMPLT, Opcode.CMPLE,
    Opcode.CMPGT, Opcode.CMPGE,
})

LOAD_OPCODES = frozenset({Opcode.LOAD, Opcode.FLOAD})
STORE_OPCODES = frozenset({Opcode.STORE, Opcode.FSTORE})
MEMORY_OPCODES = LOAD_OPCODES | STORE_OPCODES
CALL_OPCODES = frozenset({Opcode.CALL, Opcode.BRL})

# Per-member copies of the memory and call classes.  The hot
# ``Operation.is_load``/``is_store``/``is_memory``/``is_call``
# predicates read these plain attributes: a frozenset membership test
# would run the Python-level ``Enum.__hash__`` on every call.
for _op in Opcode:
    _op.is_load = _op in LOAD_OPCODES
    _op.is_store = _op in STORE_OPCODES
    _op.is_memory = _op in MEMORY_OPCODES
    _op.is_call = _op in CALL_OPCODES

#: Opcodes the CCA can execute.  The CCA supports simple arithmetic
#: (add, subtract, comparison) and bitwise logical ops; it does not
#: support shifts or multiplies (paper Section 3.1).
CCA_ARITH_OPCODES = frozenset({
    Opcode.ADD, Opcode.SUB, Opcode.NEG, Opcode.ABS, Opcode.MIN, Opcode.MAX,
    Opcode.CMPEQ, Opcode.CMPNE, Opcode.CMPLT, Opcode.CMPLE,
    Opcode.CMPGT, Opcode.CMPGE, Opcode.SELECT, Opcode.MOV,
})
CCA_LOGIC_OPCODES = frozenset({
    Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.NOT, Opcode.MOV,
})
CCA_SUPPORTED_OPCODES = CCA_ARITH_OPCODES | CCA_LOGIC_OPCODES


@dataclass
class LatencyModel:
    """Overridable operation latency model.

    The static priority encoding argument (Section 4.2, footnote 3) notes
    recurrence criticality is architecture independent only while FU
    latencies stay consistent; this class lets experiments perturb
    latencies to study exactly that.
    """

    overrides: dict[Opcode, int] = field(default_factory=dict)

    def latency(self, opcode: Opcode) -> int:
        """Latency in cycles of *opcode* under this model."""
        if opcode in self.overrides:
            return self.overrides[opcode]
        return info(opcode).latency


DEFAULT_LATENCY = LatencyModel()
