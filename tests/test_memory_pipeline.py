"""Memory model and in-order pipeline timing."""

import zlib

import numpy as np
import pytest

from repro.cpu import ARM11, CORTEX_A8, CPUConfig, InOrderPipeline, Memory, QUAD_ISSUE
from repro.ir import LoopBuilder
from repro.ir.loop import ArrayDecl
from repro.vm.runtime import _prepare_memory


# -- Memory --------------------------------------------------------------------

def test_allocate_and_rw():
    m = Memory()
    base = m.allocate("a", 16)
    m.write(base + 3, 5)
    assert m.read(base + 3) == 5
    assert m.read(base + 4) == 0


def test_double_allocate_rejected():
    m = Memory()
    m.allocate("a", 4)
    with pytest.raises(ValueError):
        m.allocate("a", 4)


def test_alias_groups_share_base():
    m = Memory()
    bases = m.allocate_arrays([ArrayDecl("a", 8, may_alias="g"),
                               ArrayDecl("b", 8, may_alias="g"),
                               ArrayDecl("c", 8)])
    assert bases["a"] == bases["b"]
    assert bases["c"] != bases["a"]


def test_distinct_arrays_never_overlap():
    m = Memory()
    bases = m.allocate_arrays([ArrayDecl("a", 100), ArrayDecl("b", 100)])
    assert abs(bases["a"] - bases["b"]) >= 100


def test_write_array_bounds():
    m = Memory()
    m.allocate("a", 4)
    with pytest.raises(ValueError):
        m.write_array("a", [1, 2, 3, 4, 5])


def test_write_array_keeps_each_element_object():
    m = Memory()
    base = m.allocate("a", 6)
    values = [3, -1.5, 2 ** 70, 0]
    m.write_array("a", values)
    assert [m.peek(base + i) for i in range(4)] == values
    assert all(m.peek(base + i) is v for i, v in enumerate(values))
    assert m.peek(base + 4) == 0 and m.store_count == 0


def test_prepared_memory_element_types():
    """The VM's seeded memory: Python ints in int arrays, ``np.float64``
    in float arrays, the same values the per-element build gave."""
    builder = LoopBuilder("seeded", trip_count=4)
    ints = builder.array("ints", length=16)
    floats = builder.array("floats", length=16, is_float=True)
    i = builder.counter()
    builder.store(builder.add(ints, i), builder.load(builder.add(ints, i)))
    builder.fstore(builder.add(floats, i),
                   builder.fload(builder.add(floats, i)))
    loop = builder.finish()
    memory = _prepare_memory(loop, seed=5)
    rng = np.random.default_rng(5 ^ zlib.crc32(loop.name.encode()))
    for arr in loop.arrays:
        got = memory.read_array(arr.name)
        if arr.is_float:
            assert all(type(v) is np.float64 for v in got)
            assert got == list(rng.uniform(-64.0, 64.0, arr.length))
        else:
            assert all(type(v) is int for v in got)
            assert got == [int(v) for v in
                           rng.integers(-128, 128, arr.length)]


def test_access_counters_and_peek():
    m = Memory()
    base = m.allocate("a", 4)
    m.write(base, 1)
    m.read(base)
    m.peek(base)
    assert m.store_count == 1 and m.load_count == 1


def test_clone_is_independent():
    m = Memory()
    base = m.allocate("a", 4)
    m.write(base, 1)
    c = m.clone()
    c.write(base, 2)
    assert m.peek(base) == 1 and c.peek(base) == 2
    assert c.base_of("a") == base


# -- pipeline -------------------------------------------------------------------

def _serial_loop(n_ops=6):
    """A fully serial dependence chain — IPC can never exceed 1."""
    b = LoopBuilder("serial", trip_count=16)
    v = b.add(1, 1)
    for _ in range(n_ops - 1):
        v = b.add(v, 1)
    return b.finish()


def _parallel_loop(n_ops=6):
    """Independent ops — wider issue should help."""
    b = LoopBuilder("parallel", trip_count=16)
    for k in range(n_ops):
        b.add(k, 1)
    return b.finish()


def test_wider_issue_helps_parallel_code():
    loop = _parallel_loop(8)
    arm = InOrderPipeline(ARM11).steady_cycles_per_iteration(loop)
    quad = InOrderPipeline(QUAD_ISSUE).steady_cycles_per_iteration(loop)
    assert quad < arm


def test_wider_issue_cannot_help_serial_chain():
    loop = _serial_loop(8)
    arm = InOrderPipeline(ARM11).steady_cycles_per_iteration(loop)
    quad = InOrderPipeline(QUAD_ISSUE).steady_cycles_per_iteration(loop)
    # The serial chain plus control is the floor for both.
    assert quad >= arm - 2.1


def test_single_issue_at_least_one_cycle_per_op():
    loop = _parallel_loop(8)
    arm = InOrderPipeline(ARM11).steady_cycles_per_iteration(loop)
    assert arm >= len(loop.body)


def test_load_use_stall():
    b = LoopBuilder("t", trip_count=8)
    x = b.array("x")
    i = b.counter()
    v = b.load(b.add(x, i))
    b.add(v, 1)
    with_use = b.finish()

    b2 = LoopBuilder("t2", trip_count=8)
    x2 = b2.array("x")
    i2 = b2.counter()
    b2.load(b2.add(x2, i2))
    b2.add(1, 1)  # independent
    without_use = b2.finish()
    pipe = InOrderPipeline(ARM11)
    assert pipe.steady_cycles_per_iteration(with_use) > \
        pipe.steady_cycles_per_iteration(without_use)


def test_multiply_latency_stalls():
    b = LoopBuilder("m", trip_count=8)
    v = b.mul(3, 3)
    b.add(v, 1)
    mul_loop = b.finish()
    b2 = LoopBuilder("a", trip_count=8)
    v2 = b2.add(3, 3)
    b2.add(v2, 1)
    add_loop = b2.finish()
    pipe = InOrderPipeline(ARM11)
    assert pipe.steady_cycles_per_iteration(mul_loop) > \
        pipe.steady_cycles_per_iteration(add_loop)


def test_taken_branch_penalty_applies():
    no_penalty = CPUConfig("np", 1, 1, 1, 1, taken_branch_penalty=0)
    with_penalty = CPUConfig("wp", 1, 1, 1, 1, taken_branch_penalty=3)
    loop = _parallel_loop(2)
    a = InOrderPipeline(no_penalty).steady_cycles_per_iteration(loop)
    b = InOrderPipeline(with_penalty).steady_cycles_per_iteration(loop)
    assert b == a + 3


def test_loop_cycles_scales_with_trip_count():
    loop = _parallel_loop(4)
    pipe = InOrderPipeline(ARM11)
    c100 = pipe.loop_cycles(loop, 100)
    c200 = pipe.loop_cycles(loop, 200)
    per_iter = pipe.steady_cycles_per_iteration(loop)
    assert abs((c200 - c100) - 100 * per_iter) < 1e-6


def test_loop_cycles_zero_trips():
    with pytest.raises(ValueError, match="trip count 0"):
        InOrderPipeline(ARM11).loop_cycles(_parallel_loop(2), 0)


def test_mem_port_structural_hazard():
    narrow = CPUConfig("n", 4, 4, 1, 1)
    wide = CPUConfig("w", 4, 4, 1, 4)
    b = LoopBuilder("l", trip_count=8)
    x = b.array("x")
    i = b.counter()
    base = b.add(x, i)
    for k in range(4):
        b.load(base, k)
    loop = b.finish()
    assert InOrderPipeline(narrow).steady_cycles_per_iteration(loop) > \
        InOrderPipeline(wide).steady_cycles_per_iteration(loop)


def test_config_constants():
    assert ARM11.issue_width == 1
    assert CORTEX_A8.issue_width == 2
    assert QUAD_ISSUE.issue_width == 4
    assert ARM11.area_mm2 == pytest.approx(4.34)
    assert CORTEX_A8.area_mm2 == pytest.approx(10.2)
