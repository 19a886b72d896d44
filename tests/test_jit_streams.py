"""Whole-array JIT bodies over streams seeded as typed buffers.

``_prepare_memory`` fills float arrays with ``np.float64`` cells, so
their load streams are raw: the body builds their object lists only
where it reads them.  These loops pin the cases where that lazy build
meets a recurrence scan or a store of an immediate; each must take the
vector path and agree with ``execute_overlapped`` on live-outs and
memory, type-exactly.
"""

from __future__ import annotations

import pytest

from repro.accelerator import PROPOSED_LA, jit
from repro.cpu import standard_live_ins
from repro.ir import LoopBuilder
from repro.ir.ops import Imm
from repro.vm.runtime import _prepare_memory
from repro.vm.translator import translate_loop
from repro.workloads.suite import DEFAULT_SCALARS
from tests.test_jit_vector import _check_paths


@pytest.fixture(autouse=True)
def _fresh_code_cache():
    jit.clear_code_cache()
    yield
    jit.clear_code_cache()


def _vector_agrees(loop, trips: int) -> None:
    result = translate_loop(loop, PROPOSED_LA)
    assert result.ok, result.failure
    for seed in range(3):
        def memory():
            return _prepare_memory(loop, seed)
        live = standard_live_ins(loop, memory(), DEFAULT_SCALARS)
        assert _check_paths(result.image, trips, memory, live) is not None


def test_a_recurrence_reading_two_raw_loads():
    """``t = s + a[i]; s = t + b[i]``: each raw load feeds the scan its
    own elements."""
    b = LoopBuilder("two_raw", trip_count=64)
    a_arr = b.array("a", length=80, is_float=True)
    b_arr = b.array("b", length=80, is_float=True)
    out = b.array("out", length=80, is_float=True)
    i = b.counter()
    s = b.live_in("s", "fp")
    t = b.fadd(s, b.fload(b.add(a_arr, i)))
    b.fadd(t, b.fload(b.add(b_arr, i)), dest=s)
    b.fstore(b.add(out, i), t)
    b.live_out(s)
    _vector_agrees(b.finish(), 64)


@pytest.mark.parametrize("value", [1 << 64, -(1 << 63) - 1, 7, -2.5])
def test_a_store_of_an_immediate(value):
    """An immediate outside int64 is committed as its object, one in
    range through the value buffers."""
    b = LoopBuilder("store_imm", trip_count=48)
    x = b.array("x", length=64)
    y = b.array("y", length=64)
    i = b.counter()
    acc = b.live_in("acc")
    b.add(acc, b.load(b.add(x, i)), dest=acc)
    b.store(b.add(y, i), Imm(value))
    b.live_out(acc)
    _vector_agrees(b.finish(), 48)
