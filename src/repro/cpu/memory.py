"""Flat physical memory model.

The accelerator operates on physical addresses (Section 2.1: "The
accelerators also operate using physical addresses, so that no address
translation is needed"), so both the scalar interpreter and the loop
accelerator machine share this simple element-addressed memory.  One
address holds one element (int or double); the stream model, not byte
layout, is what the experiments exercise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from repro.ir.loop import ArrayDecl

Value = Union[int, float]


class Memory:
    """Sparse element-addressed memory with array allocation support."""

    def __init__(self) -> None:
        self._cells: dict[int, Value] = {}
        self._next_base = 0x1000
        self._arrays: dict[str, tuple[int, int]] = {}  # name -> (base, length)
        self.load_count = 0
        self.store_count = 0

    # -- allocation -----------------------------------------------------------

    def allocate(self, name: str, length: int, base: int | None = None) -> int:
        """Reserve *length* elements for array *name*; returns its base."""
        if name in self._arrays:
            raise ValueError(f"array {name!r} already allocated")
        if base is None:
            base = self._next_base
        self._next_base = max(self._next_base, base + length + 64)
        self._arrays[name] = (base, length)
        return base

    def allocate_arrays(self, arrays: Iterable[ArrayDecl]) -> dict[str, int]:
        """Allocate every array, sharing bases inside alias groups."""
        bases: dict[str, int] = {}
        group_base: dict[str, int] = {}
        for arr in arrays:
            if arr.may_alias is not None and arr.may_alias in group_base:
                base = group_base[arr.may_alias]
                self._arrays[arr.name] = (base, arr.length)
            else:
                base = self.allocate(arr.name, arr.length)
                if arr.may_alias is not None:
                    group_base[arr.may_alias] = base
            bases[arr.name] = base
        return bases

    def base_of(self, name: str) -> int:
        return self._arrays[name][0]

    # -- access ----------------------------------------------------------------

    def read(self, addr: int) -> Value:
        self.load_count += 1
        return self._cells.get(int(addr), 0)

    def write(self, addr: int, value: Value) -> None:
        self.store_count += 1
        self._cells[int(addr)] = value

    def peek(self, addr: int) -> Value:
        """Read without counting (for test assertions)."""
        return self._cells.get(int(addr), 0)

    def write_array(self, name: str, values: Sequence[Value]) -> None:
        base, length = self._arrays[name]
        if len(values) > length:
            raise ValueError(f"{len(values)} values exceed array "
                             f"{name!r} length {length}")
        self._cells.update(zip(range(base, base + len(values)), values))

    def read_array(self, name: str, count: int | None = None) -> list[Value]:
        base, length = self._arrays[name]
        n = length if count is None else count
        return [self._cells.get(base + i, 0) for i in range(n)]

    def snapshot(self) -> dict[int, Value]:
        """A copy of all touched cells, for equivalence checking."""
        return dict(self._cells)

    def clone(self) -> "Memory":
        """Deep copy (same allocations, same contents, fresh counters)."""
        other = Memory()
        other._cells = dict(self._cells)
        other._next_base = self._next_base
        other._arrays = dict(self._arrays)
        return other

    def restore_from(self, other: "Memory") -> None:
        """Adopt *other*'s cell contents (commit or roll back a clone).

        The guarded runtime executes kernels on clones and commits
        whichever clone the verdict blesses; access counters stay local.
        """
        self._cells = dict(other._cells)
        self._next_base = max(self._next_base, other._next_base)
        self._arrays = dict(other._arrays)
