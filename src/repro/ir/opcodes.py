"""Opcode definitions for the baseline RISC instruction set.

VEAL expresses loops in the baseline instruction set of a general purpose
processor (paper Section 2.3).  This module defines that instruction set:
a small RISC-like ISA with integer, floating point, memory, compare and
control operations.  Each opcode is declared once, as one row of the
:class:`Opcode` table: its timing, its CCA row class and its scalar
semantics.  The interpreter, the CCA model, the schedulers and the JIT
all read those rows.

The paper's worked example (Figure 5) assumes multiplies take 3 cycles,
the CCA takes 2 cycles and all other ops take 1 cycle; those are the
defaults here.  Double-precision floating point units are fully pipelined
with a 4 cycle latency, consistent with the design space exploration in
Section 3.1 ("if a floating-point unit is fully pipelined (which was
assumed), modulo scheduling does a very good job utilizing the unit").

Integer arithmetic wraps to 64-bit two's complement, matching a 64-bit
baseline processor.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional


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


# -- scalar semantics helpers -------------------------------------------------

_MASK = (1 << 64) - 1


def wrap64(value: int) -> int:
    """Wrap *value* to a signed 64-bit integer."""
    value &= _MASK
    if value >= 1 << 63:
        value -= 1 << 64
    return value


def trunc_div(n: int, d: int) -> int:
    """Sign-correct truncating (round-toward-zero) integer division.

    Exact at any magnitude — ``int(n / d)`` detours through a float and
    silently corrupts quotients once operands exceed 2**53.
    """
    q = abs(n) // abs(d)
    return -q if (n < 0) != (d < 0) else q


def trunc_rem(n: int, d: int) -> int:
    """Remainder matching :func:`trunc_div` (sign follows the dividend)."""
    return n - trunc_div(n, d) * d


def _div(a, b):
    d = int(b)  # the divisor converts first
    return 0 if d == 0 else wrap64(trunc_div(int(a), d))


def _rem(a, b):
    d = int(b)  # the divisor, then the dividend, then the zero test
    n = int(a)
    return 0 if d == 0 else wrap64(trunc_rem(n, d))


def _fdiv(a, b):
    d = float(b)
    return 0.0 if d == 0.0 else float(a) / d


_K, _R = OpKind, ResourceClass
_TRAITS = frozenset({"commutative", "modular", "cca-arith", "cca-logic",
                     "load", "store", "call"})


class Opcode(enum.Enum):
    """Every opcode in the baseline instruction set, one row each.

    A row is ``mnemonic, kind, resource, latency, traits[, result_type,
    semantics]`` and binds these member attributes:

    * ``kind``, ``resource``, ``latency`` — the static timing facts;
    * ``is_commutative`` and ``is_modular`` (the 64-bit result depends
      only on the operands mod 2**64), from the traits;
    * ``cca_row`` — ``"arith"`` (the CCA's arithmetic rows only),
      ``"logic"`` (any row) or None (not CCA-able; Section 3.1);
    * ``is_load``/``is_store``/``is_memory``/``is_call`` — plain flags,
      so the hot ``Operation`` predicates never hash the enum;
    * ``semantics`` — for a *value op*, the function from operand
      values to the result, converting operands in the order the
      scalar core does; None for memory, control and ``CCA_OP``, which
      the interpreter executes itself.  ``arity`` is its parameter
      count and ``is_value`` whether it exists;
    * ``result_type`` — ``int`` or ``float`` for a value op whose
      result is always that type, None for one that passes an operand
      through unconverted (``MOV``, ``LDI``, ``SELECT``).

    ``value`` is the mnemonic, so ``Opcode("add")`` and the binary
    encoding are unchanged.
    """

    kind: OpKind
    resource: ResourceClass
    latency: int
    is_commutative: bool
    is_modular: bool
    cca_row: Optional[str]
    is_load: bool
    is_store: bool
    is_memory: bool
    is_call: bool
    result_type: Optional[type]
    semantics: Optional[Callable]
    arity: Optional[int]
    is_value: bool

    def __new__(cls, mnemonic: str, kind: OpKind, resource: ResourceClass,
                latency: int, traits: str = "",
                result_type: Optional[type] = None,
                semantics: Optional[Callable] = None) -> "Opcode":
        member = object.__new__(cls)
        member._value_ = mnemonic
        flags = set(traits.split())
        if not flags <= _TRAITS:
            raise ValueError(f"{mnemonic}: unknown traits "
                             f"{sorted(flags - _TRAITS)}")
        member.kind, member.resource, member.latency = kind, resource, latency
        member.is_commutative = "commutative" in flags
        member.is_modular = "modular" in flags
        member.cca_row = ("logic" if "cca-logic" in flags else
                          "arith" if "cca-arith" in flags else None)
        member.is_load = "load" in flags
        member.is_store = "store" in flags
        member.is_memory = member.is_load or member.is_store
        member.is_call = "call" in flags
        member.result_type = result_type
        member.semantics = semantics
        member.is_value = semantics is not None
        member.arity = semantics.__code__.co_argcount if semantics else None
        return member

    # Integer arithmetic: 1 cycle on an integer unit.  MIN and MAX
    # compare the converted operands and do not wrap.
    ADD = ("add", _K.ARITH, _R.INT, 1, "commutative modular cca-arith", int,
           lambda a, b: wrap64(int(a) + int(b)))
    SUB = ("sub", _K.ARITH, _R.INT, 1, "modular cca-arith", int,
           lambda a, b: wrap64(int(a) - int(b)))
    NEG = ("neg", _K.ARITH, _R.INT, 1, "cca-arith", int,
           lambda a: wrap64(-int(a)))
    ABS = ("abs", _K.ARITH, _R.INT, 1, "cca-arith", int,
           lambda a: wrap64(abs(int(a))))
    MIN = ("min", _K.ARITH, _R.INT, 1, "commutative cca-arith", int,
           lambda a, b: min(int(a), int(b)))
    MAX = ("max", _K.ARITH, _R.INT, 1, "commutative cca-arith", int,
           lambda a, b: max(int(a), int(b)))
    # Multiplies take 3 cycles (paper Figure 5); divides are
    # long-latency and yield 0 for a zero divisor.
    MUL = ("mul", _K.MUL, _R.INT, 3, "commutative modular", int,
           lambda a, b: wrap64(int(a) * int(b)))
    DIV = "div", _K.DIV, _R.INT, 8, "", int, _div
    REM = "rem", _K.DIV, _R.INT, 8, "", int, _rem
    # Bitwise logic: 1 cycle.  Python's bitwise ops on unbounded ints
    # agree with the 64-bit ones mod 2**64.
    AND = ("and", _K.LOGIC, _R.INT, 1, "commutative modular cca-logic", int,
           lambda a, b: wrap64(int(a) & int(b)))
    OR = ("or", _K.LOGIC, _R.INT, 1, "commutative modular cca-logic", int,
          lambda a, b: wrap64(int(a) | int(b)))
    XOR = ("xor", _K.LOGIC, _R.INT, 1, "commutative modular cca-logic", int,
           lambda a, b: wrap64(int(a) ^ int(b)))
    NOT = ("not", _K.LOGIC, _R.INT, 1, "cca-logic", int,
           lambda a: wrap64(~int(a)))
    # Shifts: 1 cycle, integer unit, not supported by the CCA (Section
    # 3.1); the amount is taken mod 64.  SHR is arithmetic, SHRU logical.
    SHL = ("shl", _K.SHIFT, _R.INT, 1, "", int,
           lambda a, b: wrap64(int(a) << (int(b) & 63)))
    SHR = ("shr", _K.SHIFT, _R.INT, 1, "", int,
           lambda a, b: wrap64(int(a) >> (int(b) & 63)))
    SHRU = ("shru", _K.SHIFT, _R.INT, 1, "", int,
            lambda a, b: wrap64((int(a) & _MASK) >> (int(b) & 63)))
    # Comparisons: 1 cycle, result 0 or 1, operands unconverted.
    CMPEQ = ("cmpeq", _K.COMPARE, _R.INT, 1, "cca-arith", int,
             lambda a, b: int(a == b))
    CMPNE = ("cmpne", _K.COMPARE, _R.INT, 1, "cca-arith", int,
             lambda a, b: int(a != b))
    CMPLT = ("cmplt", _K.COMPARE, _R.INT, 1, "cca-arith", int,
             lambda a, b: int(a < b))
    CMPLE = ("cmple", _K.COMPARE, _R.INT, 1, "cca-arith", int,
             lambda a, b: int(a <= b))
    CMPGT = ("cmpgt", _K.COMPARE, _R.INT, 1, "cca-arith", int,
             lambda a, b: int(a > b))
    CMPGE = ("cmpge", _K.COMPARE, _R.INT, 1, "cca-arith", int,
             lambda a, b: int(a >= b))
    # Predication: select(pred, a, b) == a if pred else b.
    SELECT = ("select", _K.SELECT, _R.INT, 1, "cca-arith", None,
              lambda p, a, b: a if p else b)
    # Moves; LDI loads an immediate.
    MOV = "mov", _K.MOVE, _R.INT, 1, "cca-logic", None, lambda a: a
    LDI = "ldi", _K.MOVE, _R.INT, 1, "", None, lambda a: a
    # Floating point (double precision): fully pipelined 4 cycle FUs;
    # divide is long-latency and yields 0.0 for a zero divisor.
    FADD = ("fadd", _K.FLOAT, _R.FP, 4, "commutative", float,
            lambda a, b: float(a) + float(b))
    FSUB = ("fsub", _K.FLOAT, _R.FP, 4, "", float,
            lambda a, b: float(a) - float(b))
    FMUL = ("fmul", _K.FLOAT, _R.FP, 4, "commutative", float,
            lambda a, b: float(a) * float(b))
    FDIV = "fdiv", _K.FLOAT, _R.FP, 16, "", float, _fdiv
    FNEG = "fneg", _K.FLOAT, _R.FP, 4, "", float, lambda a: -float(a)
    FABS = "fabs", _K.FLOAT, _R.FP, 4, "", float, lambda a: abs(float(a))
    FMIN = ("fmin", _K.FLOAT, _R.FP, 4, "commutative", float,
            lambda a, b: min(float(a), float(b)))
    FMAX = ("fmax", _K.FLOAT, _R.FP, 4, "commutative", float,
            lambda a, b: max(float(a), float(b)))
    FCMPLT = ("fcmplt", _K.FLOAT, _R.FP, 4, "", int,
              lambda a, b: int(float(a) < float(b)))
    FCMPLE = ("fcmple", _K.FLOAT, _R.FP, 4, "", int,
              lambda a, b: int(float(a) <= float(b)))
    FCMPEQ = ("fcmpeq", _K.FLOAT, _R.FP, 4, "", int,
              lambda a, b: int(float(a) == float(b)))
    # int -> double, and double -> int truncating.
    ITOF = "itof", _K.FLOAT, _R.FP, 4, "", float, lambda a: float(int(a))
    FTOI = ("ftoi", _K.FLOAT, _R.FP, 4, "", int,
            lambda a: wrap64(int(float(a))))
    # Memory: 2 cycle load-use latency; stores commit asynchronously.
    LOAD = "load", _K.MEMORY, _R.MEM, 2, "load"
    STORE = "store", _K.MEMORY, _R.MEM, 1, "store"
    FLOAD = "fload", _K.MEMORY, _R.MEM, 2, "load"
    FSTORE = "fstore", _K.MEMORY, _R.MEM, 1, "store"
    # Control: BR is the conditional loop-back branch, CALL precludes
    # modulo scheduling, BRL is branch-and-link (procedural
    # abstraction, Fig. 9).
    BR = "br", _K.CONTROL, _R.BRANCH, 1
    JUMP = "jump", _K.CONTROL, _R.BRANCH, 1
    CALL = "call", _K.CONTROL, _R.BRANCH, 1, "call"
    BRL = "brl", _K.CONTROL, _R.BRANCH, 1, "call"
    # A collapsed CCA subgraph (created by the CCA mapper, not by
    # frontends) executes in 2 cycles (paper Section 3.1).
    CCA_OP = "cca_op", _K.CCA_COMPOUND, _R.CCA, 2


# Views of the table.
def _where(test: Callable[[Opcode], bool]) -> frozenset:
    return frozenset(op for op in Opcode if test(op))


COMPARE_OPCODES = _where(lambda op: op.kind is OpKind.COMPARE)
LOAD_OPCODES = _where(lambda op: op.is_load)
STORE_OPCODES = _where(lambda op: op.is_store)
MEMORY_OPCODES = LOAD_OPCODES | STORE_OPCODES
CALL_OPCODES = _where(lambda op: op.is_call)
#: Opcodes the CCA can execute: simple arithmetic (add, subtract,
#: comparison) on its arithmetic rows and bitwise logic on every row;
#: not shifts or multiplies (paper Section 3.1).
CCA_ARITH_OPCODES = _where(lambda op: op.cca_row == "arith")
CCA_LOGIC_OPCODES = _where(lambda op: op.cca_row == "logic")
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
        if self.overrides:
            return self.overrides.get(opcode, opcode.latency)
        return opcode.latency


DEFAULT_LATENCY = LatencyModel()
