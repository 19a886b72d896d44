"""Stream access to :class:`repro.cpu.memory.Memory`.

``cells``, ``gather`` and ``scatter`` move whole strided streams
through the typed buffers; each must agree with the cell-by-cell
``peek``/``write`` path on every stream shape (any stride, including 0
and negative, streams reaching outside the buffers' region) and every
cell content (missing cells, ints, floats, ``np.float64``, objects the
buffers cannot hold).
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cpu import Memory
from repro.cpu import memory as cell
from repro.ir.loop import ArrayDecl

_CONTENTS = st.one_of(
    st.integers(-(1 << 63), (1 << 63) - 1), st.integers(-(1 << 70), 1 << 70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True).map(np.float64), st.just(True))


def _canonical(values) -> list:
    return [(type(v).__name__, repr(v)) for v in values]


def _memory(writes) -> Memory:
    memory = Memory()
    memory.allocate_arrays([ArrayDecl("a", 24), ArrayDecl("b", 24)])
    for offset, value in writes:
        memory.write(cell.REGION_BASE + offset, value)
    return memory


_WRITES = st.lists(st.tuples(st.integers(-8, 120), _CONTENTS), max_size=30)
_STREAMS = st.tuples(st.integers(-12, 110), st.integers(-3, 3),
                     st.integers(1, 40))


@settings(max_examples=150, deadline=None)
@given(writes=_WRITES, stream=_STREAMS)
def test_cells_and_gather_agree_with_peek(writes, stream):
    memory = _memory(writes)
    offset, stride, n = stream
    base = cell.REGION_BASE + offset
    want = [memory.peek(base + stride * k) for k in range(n)]
    assert _canonical(memory.cells(base, stride, n)) == _canonical(want)
    gathered = memory.gather(base, stride, n)
    types = set(map(type, want))
    if types == {int} and all(-(1 << 63) <= v < 1 << 63 for v in want):
        assert gathered[0] == "i" and gathered[1].tolist() == want
    elif types <= {float, np.float64}:
        cls, values = gathered
        assert cls == ("f" if types == {float} else "r")
        assert _canonical(values.tolist()) == _canonical(map(float, want))
    else:
        assert gathered is None


_VALUES = st.one_of(
    st.lists(st.integers(-(1 << 63), (1 << 63) - 1), min_size=40,
             max_size=40).map(lambda v: np.array(v, np.int64)),
    st.lists(st.floats(), min_size=40, max_size=40).map(
        lambda v: np.array(v, np.float64)),
    st.lists(st.one_of(st.floats().map(np.float64), st.floats()),
             min_size=40, max_size=40),
    st.lists(_CONTENTS, min_size=40, max_size=40))


@settings(max_examples=150, deadline=None)
@given(writes=_WRITES, stream=_STREAMS, values=_VALUES,
       mask=st.one_of(st.none(), st.lists(st.booleans(), min_size=40,
                                          max_size=40)))
def test_scatter_agrees_with_write(writes, stream, values, mask):
    offset, stride, n = stream
    base = cell.REGION_BASE + offset
    values = values[:n]
    mask = None if mask is None else np.array(mask[:n])
    want, got = _memory(writes), _memory(writes)
    objs = values if type(values) is list else values.tolist()
    for k in range(n):
        if mask is None or mask[k]:
            want.write(base + stride * k, objs[k])
    got.scatter(base, stride, n, values, mask)
    assert {a: (type(v).__name__, repr(v))
            for a, v in got.snapshot().items()} == \
        {a: (type(v).__name__, repr(v)) for a, v in want.snapshot().items()}
    assert got.store_count == len(writes)  # the set-up writes only


def test_seeded_draws_one_array_per_declaration():
    arrays = [ArrayDecl("i", 10), ArrayDecl("f", 6, is_float=True),
              ArrayDecl("j", 4, may_alias="g"),
              ArrayDecl("k", 8, may_alias="g")]
    memory = Memory.seeded(arrays, np.random.default_rng(11),
                           ints=(-5, 5), floats=(-1.0, 1.0))
    rng = np.random.default_rng(11)
    want_i = rng.integers(-5, 5, 10).tolist()
    want_f = list(rng.uniform(-1.0, 1.0, 6))
    rng.integers(-5, 5, 4)  # j, overwritten by its alias k
    want_k = rng.integers(-5, 5, 8).tolist()
    assert memory.read_array("i") == want_i
    assert _canonical(memory.read_array("f")) == _canonical(want_f)
    assert memory.read_array("j") == want_k[:4]
    assert memory.read_array("k") == want_k
    assert memory.load_count == memory.store_count == 0


def test_seeded_past_the_region_goes_cell_by_cell(monkeypatch):
    monkeypatch.setattr(cell, "MAX_REGION", 16)
    arrays = [ArrayDecl("i", 10), ArrayDecl("f", 20, is_float=True)]
    memory = Memory.seeded(arrays, np.random.default_rng(5),
                           ints=(-5, 5), floats=(-1.0, 1.0))
    rng = np.random.default_rng(5)
    assert memory.read_array("i") == rng.integers(-5, 5, 10).tolist()
    assert _canonical(memory.read_array("f")) == \
        _canonical(list(rng.uniform(-1.0, 1.0, 20)))


def test_a_scatter_over_object_cells_drops_them():
    memory = _memory([(3, 1 << 70), (4, "x"), (5, math.nan)])
    base = cell.REGION_BASE + 2
    memory.scatter(base, 1, 4, np.arange(4, dtype=np.int64))
    assert memory.snapshot() == {base + k: k for k in range(4)}
    assert memory.cells(base, 1, 4) == [0, 1, 2, 3]
