"""Flat physical memory model.

The accelerator operates on physical addresses (Section 2.1: "The
accelerators also operate using physical addresses, so that no address
translation is needed"), so both the scalar interpreter and the loop
accelerator machine share this simple element-addressed memory.  One
address holds one element (int or double); the stream model, not byte
layout, is what the experiments exercise.

Arrays are allocated contiguously from :data:`REGION_BASE`, so the
cells of every array (and the gaps between them) form one flat region
held as three parallel numpy buffers: int64 values, float64 values and
an int8 tag per cell saying which object the cell holds (:data:`INT`,
:data:`FLOAT` for a Python ``float``, :data:`NPFLOAT` for an
``np.float64``, :data:`OBJECT` for anything the buffers cannot hand
back, or 0 for a missing cell).  Streams read and write the region as
slices (:meth:`Memory.gather`, :meth:`Memory.scatter`); single cells go
through memoryviews, so a scalar access boxes no numpy scalar.  Cells
the buffers cannot hold -- ints outside int64, other types, addresses
outside the region -- live in a sparse dict.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro.ir.loop import ArrayDecl

Value = Union[int, float]

#: First address :meth:`Memory.allocate` hands out; the region starts here.
REGION_BASE = 0x1000
#: Cell tags, as bit flags so one OR over a stream's tags classifies it.
#: A missing cell is 0 and reads as int ``0``.
INT, FLOAT, NPFLOAT, OBJECT = 1, 2, 4, 8
#: Most cells the region grows to; an array allocated at an explicit
#: base beyond it lives in the object dict instead of costing buffers.
MAX_REGION = 1 << 24

_LO, _HI = -(1 << 63), 1 << 63


class Memory:
    """Element-addressed memory with array allocation support."""

    def __init__(self) -> None:
        self.__next_base = REGION_BASE
        #: name -> (base, length)
        self.__arrays: dict[str, tuple[int, int]] = {}
        #: Cells the buffers cannot hold: OBJECT-tagged region cells and
        #: every written address outside the region.
        self.__objects: dict[int, Value] = {}
        self.load_count = 0
        self.store_count = 0
        self.__adopt(np.zeros(0, np.int8), np.zeros(0, np.int64),
                     np.zeros(0, np.float64))

    def __adopt(self, tags: np.ndarray, ints: np.ndarray,
                floats: np.ndarray) -> None:
        """Make these the region's buffers (one cell each, from
        :data:`REGION_BASE`)."""
        self.__tag, self.__int, self.__float = tags, ints, floats
        self.__size = len(tags)
        self.__tv, self.__iv, self.__fv = (
            memoryview(tags), memoryview(ints), memoryview(floats))

    def __cover(self, end: int) -> None:
        """Grow the region to hold every address below *end*."""
        size = end - REGION_BASE
        old = self.__size
        if not old < size <= MAX_REGION:
            return
        tags = np.zeros(size, np.int8)
        ints = np.zeros(size, np.int64)
        floats = np.zeros(size, np.float64)
        tags[:old] = self.__tag
        ints[:old] = self.__int
        floats[:old] = self.__float
        for addr in self.__objects:  # now inside: tag them in place
            if old <= addr - REGION_BASE < size:
                tags[addr - REGION_BASE] = OBJECT
        self.__adopt(tags, ints, floats)

    # -- allocation -----------------------------------------------------------

    def __reserve(self, name: str, length: int, base: int | None) -> int:
        if name in self.__arrays:
            raise ValueError(f"array {name!r} already allocated")
        if base is None:
            base = self.__next_base
        self.__next_base = max(self.__next_base, base + length + 64)
        self.__arrays[name] = (base, length)
        return base

    def allocate(self, name: str, length: int, base: int | None = None) -> int:
        """Reserve *length* elements for array *name*; returns its base."""
        base = self.__reserve(name, length, base)
        self.__cover(self.__next_base)
        return base

    def allocate_arrays(self, arrays: Iterable[ArrayDecl]) -> dict[str, int]:
        """Allocate every array, sharing bases inside alias groups."""
        bases: dict[str, int] = {}
        group_base: dict[str, int] = {}
        end = self.__next_base
        for arr in arrays:
            if arr.may_alias is not None and arr.may_alias in group_base:
                base = group_base[arr.may_alias]
                self.__arrays[arr.name] = (base, arr.length)
                end = max(end, base + arr.length)
            else:
                base = self.__reserve(arr.name, arr.length, None)
                if arr.may_alias is not None:
                    group_base[arr.may_alias] = base
            bases[arr.name] = base
        self.__cover(max(end, self.__next_base))
        return bases

    def base_of(self, name: str) -> int:
        return self.__arrays[name][0]

    # -- scalar access --------------------------------------------------------

    def read(self, addr: int) -> Value:
        self.load_count += 1
        return self.peek(addr)

    def peek(self, addr: int) -> Value:
        """Read without counting (for test assertions)."""
        addr = int(addr)
        i = addr - REGION_BASE
        if 0 <= i < self.__size:
            tag = self.__tv[i]
            if tag == INT:
                return self.__iv[i]
            if tag == FLOAT:
                return self.__fv[i]
            if tag == NPFLOAT:
                return self.__float[i]  # the np.float64 itself
            if not tag:
                return 0
        return self.__objects.get(addr, 0)

    def write(self, addr: int, value: Value) -> None:
        self.store_count += 1
        self.__put(int(addr), value)

    def __put(self, addr: int, value: Value, keep: bool = False) -> None:
        """Store *value* at *addr*; with *keep*, anything but an int64
        int is kept as the object itself."""
        i = addr - REGION_BASE
        if not 0 <= i < self.__size:
            self.__objects[addr] = value
            return
        kind = type(value)
        if kind is int and _LO <= value < _HI:
            self.__iv[i] = value
            tag = INT
        elif kind is float and not keep:
            self.__fv[i] = value
            tag = FLOAT
        elif kind is np.float64 and not keep:
            self.__fv[i] = value
            tag = NPFLOAT
        else:
            self.__objects[addr] = value
            self.__tv[i] = OBJECT
            return
        if self.__tv[i] == OBJECT:
            del self.__objects[addr]
        self.__tv[i] = tag

    # -- arrays and streams ---------------------------------------------------

    def __index(self, base: int, stride: int, n: int):
        """Region index of *n* cells from *base* by *stride* (a slice,
        or an index array for stride 0), or None when one lies outside
        the region."""
        first = base - REGION_BASE
        last = first + stride * (n - 1)
        if min(first, last) < 0 or max(first, last) >= self.__size:
            return None
        if not stride:
            return np.full(n, first)
        stop = first + stride * n
        return slice(first, stop if stop >= 0 else None, stride)

    def write_array(self, name: str, values: Sequence[Value]) -> None:
        """Store *values* from the base of array *name*, each element
        kept as the object passed (an int64 int in the int buffer)."""
        base, length = self.__arrays[name]
        if len(values) > length:
            raise ValueError(f"{len(values)} values exceed array "
                             f"{name!r} length {length}")
        for i, value in enumerate(values):
            self.__put(base + i, value, keep=True)

    @classmethod
    def seeded(cls, arrays: Sequence[ArrayDecl], rng: np.random.Generator,
               ints: tuple[int, int], floats: tuple[float, float]
               ) -> "Memory":
        """Fresh memory with *arrays* allocated and filled from *rng*,
        one draw per array in order: ``rng.uniform(*floats)`` for a
        float array (its cells read as ``np.float64``), else
        ``rng.integers(*ints)`` (cells read as ints)."""
        memory = cls()
        memory.allocate_arrays(arrays)
        for arr in arrays:
            base, length = memory.__arrays[arr.name]
            if arr.is_float:
                values, tag = rng.uniform(*floats, length), NPFLOAT
                buffer = memory.__float
            else:
                values, tag = rng.integers(*ints, length), INT
                buffer = memory.__int
            index = memory.__index(base, 1, length)
            if index is None:  # beyond MAX_REGION: cell by cell
                for k, value in enumerate(values if arr.is_float
                                          else values.tolist()):
                    memory.__put(base + k, value)
                continue
            buffer[index] = values
            memory.__tag[index] = tag
        return memory

    def read_array(self, name: str, count: int | None = None) -> list[Value]:
        base, length = self.__arrays[name]
        return self.cells(base, 1, length if count is None else count)

    def __union(self, index) -> int:
        """The OR of the tags at *index*, a missing cell counting as an
        int (it reads as int ``0``)."""
        tags = self.__tag[index]
        union = int(np.bitwise_or.reduce(tags))
        if union > INT and not tags.all():
            union |= INT
        return union

    def cells(self, base: int, stride: int, n: int) -> list[Value]:
        """What :meth:`peek` returns for each of *n* cells from *base*
        by *stride*."""
        index = self.__index(base, stride, n) if n > 0 else None
        if index is not None:
            union = self.__union(index)
            if union <= INT:
                return self.__int[index].tolist()
            if union == FLOAT:
                return self.__float[index].tolist()
            if union == NPFLOAT:
                return list(self.__float[index])
        return [self.peek(base + stride * k) for k in range(n)]

    def gather(self, base: int, stride: int, n: int
               ) -> Optional[tuple[str, np.ndarray]]:
        """A stream's *n* cells from *base* by *stride* as its class and
        a copy of its values, or None for a stream of mixed or other
        types: ``"i"`` with int64 when every cell reads as an int64 int
        (a missing one as ``0``), ``"f"`` with float64 when every cell
        holds a Python float, ``"r"`` with float64 when they hold floats
        at least one of which is an ``np.float64`` (whose objects
        :meth:`cells` reads)."""
        index = self.__index(base, stride, n)
        if index is not None:
            union = self.__union(index)
            if union <= INT:
                return "i", self.__int[index].copy()
            if not union & (INT | OBJECT):
                return ("f" if union == FLOAT else "r",
                        self.__float[index].copy())
            if not union & OBJECT:
                return None
        # Objects, or cells outside the region: classify by type.
        objs = self.cells(base, stride, n)
        types = set(map(type, objs))
        if types == {int}:
            try:
                return "i", np.fromiter(objs, np.int64, n)
            except OverflowError:
                return None
        if types <= {float, np.float64}:
            return ("f" if types == {float} else "r",
                    np.fromiter(objs, np.float64, n))
        return None

    def scatter(self, base: int, stride: int, n: int, values,
                mask: Optional[np.ndarray] = None) -> None:
        """Store a stream, lane ``k`` at ``base + stride * k`` for every
        lane *mask* selects.  *values* is an int64 array (stored as
        Python ints), a float64 array (stored as Python floats) or a
        list of objects, each stored as :meth:`write` stores it."""
        index = self.__index(base, stride, n) if stride else None
        tag = None
        if index is not None and type(values) is list:
            types = set(map(type, values))
            if types == {float}:
                tag = FLOAT
            elif types == {np.float64}:
                tag = NPFLOAT
            elif types == {float, np.float64}:
                tag = np.where([type(v) is float for v in values],
                               FLOAT, NPFLOAT).astype(np.int8)
            else:
                index = None
            if index is not None:
                values = np.array(values, np.float64)
        elif index is not None and values.dtype not in (np.int64,
                                                        np.float64):
            index = None
        if index is None:  # lane by lane, so the last write wins
            objs = values if type(values) is list else values.tolist()
            lanes = range(n) if mask is None else np.flatnonzero(mask)
            for k in lanes if stride else lanes[-1:]:
                self.__put(base + stride * int(k), objs[k])
            return
        if tag is None:
            tag = INT if values.dtype == np.int64 else FLOAT
        if mask is not None:
            lanes = np.flatnonzero(mask)
            index = (base - REGION_BASE) + stride * lanes
            values = values[lanes]
            if type(tag) is not int:
                tag = tag[lanes]
        if self.__objects:
            self.__release(index)
        (self.__int if values.dtype == np.int64 else self.__float)[index] = \
            values
        self.__tag[index] = tag

    def __release(self, index) -> None:
        """Drop the object-store entries of the OBJECT cells at *index*."""
        hit = self.__tag[index] == OBJECT
        if hit.any():
            for i in np.arange(self.__size)[index][hit].tolist():
                del self.__objects[i + REGION_BASE]

    # -- whole-memory views ---------------------------------------------------

    def snapshot(self) -> dict[int, Value]:
        """Every touched cell and the object :meth:`peek` returns for
        it, for equivalence checking."""
        cells: dict[int, Value] = {}
        for tag, values, convert in ((INT, self.__int, None),
                                     (FLOAT, self.__float, None),
                                     (NPFLOAT, self.__float, np.float64)):
            where = np.flatnonzero(self.__tag == tag)
            found = values[where].tolist()
            cells.update(zip((where + REGION_BASE).tolist(),
                             found if convert is None
                             else map(convert, found)))
        cells.update(self.__objects)
        return cells

    def clone(self) -> "Memory":
        """Deep copy (same allocations, same contents, fresh counters)."""
        other = Memory()
        other.restore_from(self)
        return other

    def restore_from(self, other: "Memory") -> None:
        """Adopt *other*'s cell contents (commit or roll back a clone).

        The guarded runtime executes kernels on clones and commits
        whichever clone the verdict blesses; access counters stay local.
        """
        self.__adopt(other.__tag.copy(), other.__int.copy(),
                     other.__float.copy())
        self.__objects = dict(other.__objects)
        self.__next_base = max(self.__next_base, other.__next_base)
        self.__arrays = dict(other.__arrays)
