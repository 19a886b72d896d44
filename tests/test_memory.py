"""The element-addressed memory (:mod:`repro.cpu.memory`).

Every access path returns exactly the object type a cell holds: a
Python ``int``, the ``np.float64`` that seeding writes, or the Python
``float`` that a computed store writes, including values a 64-bit
buffer cannot hold (ints outside int64, NaN and infinities).  A missing
cell reads as int ``0`` and is absent from ``snapshot``.  Alias groups
share cells, a clone is independent of its original, and only
``read``/``write`` move the access counters.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cpu import Memory
from repro.ir import LoopBuilder
from repro.ir.loop import ArrayDecl
from repro.vm.runtime import _prepare_memory


def _seeded() -> Memory:
    """A VM-seeded memory: int array ``ints``, float array ``floats``."""
    b = LoopBuilder("memtypes", trip_count=8)
    ints = b.array("ints", length=16)
    floats = b.array("floats", length=16, is_float=True)
    i = b.counter()
    b.store(b.add(ints, i), b.load(b.add(ints, i)))
    b.fstore(b.add(floats, i), b.fload(b.add(floats, i)))
    return _prepare_memory(b.finish(), seed=3)


def _same(got, want) -> bool:
    """Equal value and exact type (NaN equals NaN)."""
    if type(got) is not type(want):
        return False
    if isinstance(want, float) and math.isnan(want):
        return math.isnan(got)
    return got == want


#: (label, array written into, value, type it reads back as).
_WRITTEN = [
    ("computed float", "floats", -2.75, float),
    ("nan", "floats", math.nan, float),
    ("+inf", "floats", math.inf, float),
    ("-inf", "floats", -math.inf, float),
    ("2**63", "ints", 1 << 63, int),
    ("-(2**63)", "ints", -(1 << 63), int),
    ("10**400", "ints", 10 ** 400, int),
    ("-(10**400)", "floats", -(10 ** 400), int),
    ("float into an int array", "ints", 2.5, float),
    ("np.float64 into an int array", "ints", np.float64(-0.5), np.float64),
    ("int into a float array", "floats", 7, int),
]


def _all_paths(memory: Memory, addr: int, name: str, index: int) -> list:
    """The cell at *addr* (element *index* of array *name*) through
    ``read``, ``peek``, ``snapshot`` and ``read_array``."""
    return [memory.read(addr), memory.peek(addr), memory.snapshot()[addr],
            memory.read_array(name)[index]]


def test_seeded_cells_keep_their_types():
    memory = _seeded()
    for name, want in (("ints", int), ("floats", np.float64)):
        base = memory.base_of(name)
        for index in (0, 5, 15):
            for got in _all_paths(memory, base + index, name, index):
                assert type(got) is want, (name, index, got)
        assert all(type(v) is want for v in memory.read_array(name))


@pytest.mark.parametrize("label,name,value,kind", _WRITTEN,
                         ids=[row[0] for row in _WRITTEN])
def test_written_cells_keep_their_types(label, name, value, kind):
    memory = _seeded()
    addr = memory.base_of(name) + 6
    memory.write(addr, value)
    for got in _all_paths(memory, addr, name, 6):
        assert type(got) is kind, (label, got)
        assert _same(got, value), (label, got)
    # The neighbours keep their seeded type.
    seeded = int if name == "ints" else np.float64
    assert type(memory.peek(addr + 1)) is seeded
    assert type(memory.peek(addr - 1)) is seeded


@pytest.mark.parametrize("offset", [0x10, -3, 1 << 40])
def test_addresses_outside_every_array(offset):
    memory = _seeded()
    for value in (9, 1.25, np.float64(4.5), 1 << 70, math.nan):
        memory.write(offset, value)
        for got in (memory.read(offset), memory.peek(offset),
                    memory.snapshot()[offset]):
            assert _same(got, value), (offset, value, got)


def test_a_gap_cell_between_arrays():
    memory = _seeded()
    gap = memory.base_of("ints") + 16 + 3  # past the end, before floats
    assert memory.peek(gap) == 0 and gap not in memory.snapshot()
    memory.write(gap, -1.5)
    assert _same(memory.peek(gap), -1.5)
    assert _same(memory.snapshot()[gap], -1.5)


def test_an_array_at_a_far_explicit_base():
    memory = Memory()
    base = memory.allocate("far", 8, base=1 << 40)
    memory.write(base + 1, 2.5)
    memory.write(base + 2, 7)
    assert memory.read_array("far", 4) == [0, 2.5, 7, 0]
    assert [type(v) for v in memory.read_array("far", 4)] == \
        [int, float, int, int]
    assert memory.snapshot() == {base + 1: 2.5, base + 2: 7}
    near = memory.allocate("near", 4)
    assert near >= base + 8
    memory.write(near, 1)
    assert memory.peek(near) == 1


def test_a_missing_cell_reads_int_zero_and_stays_out_of_snapshot():
    memory = Memory()
    base = memory.allocate("a", 8)
    memory.write(base + 2, 5)
    for addr in (base, base + 7, base + 8, 0, -1, 1 << 50):
        assert type(memory.read(addr)) is int and memory.read(addr) == 0
        assert type(memory.peek(addr)) is int and memory.peek(addr) == 0
        assert addr not in memory.snapshot()
    assert memory.snapshot() == {base + 2: 5}
    assert memory.read_array("a") == [0, 0, 5, 0, 0, 0, 0, 0]
    assert all(type(v) is int for v in memory.read_array("a"))
    assert Memory().snapshot() == {}


def test_snapshot_holds_exactly_the_touched_cells():
    memory = _seeded()
    snap = memory.snapshot()
    for name in ("ints", "floats"):
        base = memory.base_of(name)
        assert [snap[base + i] for i in range(16)] == \
            memory.read_array(name)
    assert len(snap) == 32
    snap[memory.base_of("ints")] = "changed"  # a copy, not a view
    assert type(memory.snapshot()[memory.base_of("ints")]) is int


def test_alias_groups_share_cells():
    memory = Memory()
    bases = memory.allocate_arrays([ArrayDecl("a", 8, may_alias="g"),
                                    ArrayDecl("b", 12, may_alias="g"),
                                    ArrayDecl("c", 8)])
    assert bases["a"] == bases["b"] != bases["c"]
    memory.write(bases["a"] + 3, 2.5)
    assert _same(memory.read_array("b")[3], 2.5)
    memory.write_array("b", list(range(12)))
    assert memory.read_array("a") == list(range(8))
    assert memory.read_array("b", 12)[8:] == [8, 9, 10, 11]
    assert memory.read_array("c") == [0] * 8


def test_a_clone_is_independent_until_restored():
    memory = _seeded()
    addr = memory.base_of("floats") + 2
    original = memory.peek(addr)
    other = memory.clone()
    assert other.snapshot() == memory.snapshot()
    other.write(addr, 0.5)
    other.write(addr + 1, 1 << 64)
    other.write(0x20, 3)
    assert _same(memory.peek(addr), original)
    assert 0x20 not in memory.snapshot()
    memory.restore_from(other)
    assert _same(memory.peek(addr), 0.5)
    assert _same(memory.peek(addr + 1), 1 << 64)
    assert _same(memory.peek(0x20), 3)
    assert memory.snapshot() == other.snapshot()
    # Restoring copies: later writes on either side stay apart.
    other.write(addr, 9.0)
    memory.write(addr + 3, 4)
    assert _same(memory.peek(addr), 0.5)
    assert type(other.peek(addr + 3)) is np.float64
    assert memory.base_of("ints") == other.base_of("ints")


def test_restore_from_keeps_allocations():
    memory = Memory()
    memory.allocate("a", 4)
    other = memory.clone()
    base_b = other.allocate("b", 4)
    other.write(base_b, 1.5)
    memory.restore_from(other)
    assert memory.base_of("b") == base_b
    assert _same(memory.read_array("b")[0], 1.5)
    assert memory.allocate("c", 4) >= base_b + 4


def test_access_counters():
    memory = _seeded()
    assert memory.load_count == 0 and memory.store_count == 0
    base = memory.base_of("ints")
    memory.read(base)
    memory.read(base + 1)
    memory.read(1 << 40)
    memory.write(base, 1)
    memory.peek(base)
    memory.read_array("ints")
    memory.snapshot()
    memory.write_array("ints", [1, 2])
    assert memory.load_count == 3 and memory.store_count == 1
    clone = memory.clone()
    assert clone.load_count == 0 and clone.store_count == 0
    clone.read(base)
    memory.restore_from(clone)
    assert memory.load_count == 3 and memory.store_count == 1
