"""Configurable Compute Accelerator (CCA) architectural model.

Section 3.1: "The CCA is a combinational structure specifically designed
to efficiently implement the most common types of integer computations.
It supports 4 inputs, 2 outputs, and can execute as many as 15 standard
RISC ops atomically in 2 clock cycles.  The 15 RISC ops are organized
into 4 rows, where the first and third row can execute simple arithmetic
(add, subtract, comparison) and bitwise logical ops, and the second and
fourth rows execute only bitwise ops."

The triangular row widths ``[6, 4, 3, 2]`` realise the 15-op capacity.
Shifts and multiplies are not supported ("Some integer units are still
needed to support multiplication and shifts, which are not handled by
the CCA").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.opcodes import Opcode
from repro.ir.ops import Operation


@dataclass(frozen=True)
class CCAConfig:
    """Shape of one CCA instance.

    Attributes:
        row_widths: Op capacity of each row, top to bottom.
        arith_rows: Row indices (0-based) that can execute arithmetic;
            the remaining rows execute only bitwise logic.
        num_inputs: Maximum distinct external register inputs.
        num_outputs: Maximum distinct external register outputs.
        latency: Cycles for the whole array to produce its outputs.
    """

    row_widths: tuple[int, ...] = (6, 4, 3, 2)
    arith_rows: frozenset[int] = frozenset({0, 2})
    num_inputs: int = 4
    num_outputs: int = 2
    latency: int = 2

    @property
    def depth(self) -> int:
        return len(self.row_widths)

    @property
    def capacity(self) -> int:
        return sum(self.row_widths)

    def supports(self, opcode: Opcode) -> bool:
        """Can this opcode execute on *some* row of the array?"""
        return opcode.cca_row is not None

    def row_accepts(self, row: int, opcode: Opcode) -> bool:
        """Can *opcode* execute on *row*?"""
        if opcode.cca_row == "logic":
            return True
        return opcode.cca_row == "arith" and row in self.arith_rows


#: The CCA used throughout the paper's evaluation (from [5]).
DEFAULT_CCA = CCAConfig()


def assign_rows(ops: list[Operation],
                preds_within: dict[int, list[int]],
                config: CCAConfig) -> dict[int, int] | None:
    """Place each op of a candidate subgraph onto a CCA row.

    Processes ops in topological order (the caller supplies *ops* in a
    valid topological order of the subgraph); each op goes on the first
    row that is (a) strictly below all of its in-subgraph predecessors,
    (b) type-compatible, and (c) not full.  Returns ``None`` if no
    placement exists, else ``opid -> row``.

    This is the row-constrained placement that makes the triangular
    array shape bite: two dependent arithmetic ops must land on rows 0
    and 2, so an arithmetic chain longer than ``len(arith_rows)`` can
    never map.
    """
    placement: dict[int, int] = {}
    used = [0] * config.depth
    for op in ops:
        if not config.supports(op.opcode):
            return None
        min_row = 0
        for pred in preds_within.get(op.opid, []):
            if pred in placement:
                min_row = max(min_row, placement[pred] + 1)
        row = None
        for candidate in range(min_row, config.depth):
            if used[candidate] < config.row_widths[candidate] and \
                    config.row_accepts(candidate, op.opcode):
                row = candidate
                break
        if row is None:
            return None
        placement[op.opid] = row
        used[row] += 1
    return placement
