"""Loop nests: repeated accelerator invocation over an outer loop."""

import numpy as np
import pytest

from repro import perf
from repro.accelerator import LoopAccelerator, PROPOSED_LA
from repro.cpu import ARM11, InOrderPipeline, Memory
from repro.ir import LoopBuilder, Reg
from repro.ir.nest import (
    LoopNest,
    execute_nest_accelerated,
    execute_nest_scalar,
)
from repro.vm import translate_loop

ROWS, COLS = 12, 32


def _row_blur():
    """Inner loop: one row of a 2D 3-tap horizontal blur."""
    b = LoopBuilder("row_blur", trip_count=COLS)
    src = b.array("img", length=(ROWS + 1) * (COLS + 4))
    dst = b.array("blur", length=(ROWS + 1) * (COLS + 4))
    i = b.counter()
    base = b.add(src, i)
    s = b.add(b.add(b.load(base, 0), b.load(base, 1)), b.load(base, 2))
    b.store(b.add(dst, i), b.shr(s, 1))
    return b.finish()


def _blur_nest():
    inner = _row_blur()
    return LoopNest(
        name="blur2d", inner=inner, outer_trips=ROWS,
        live_in_steps={Reg("img"): COLS + 4, Reg("blur"): COLS + 4})


def _fresh_memory(inner):
    memory = Memory()
    memory.allocate_arrays(inner.arrays)
    rng = np.random.default_rng(44)
    memory.write_array("img", [int(v) for v in
                               rng.integers(0, 255,
                                            (ROWS + 1) * (COLS + 4))])
    return memory


def _base_live_ins(memory):
    return {Reg("img"): memory.base_of("img"),
            Reg("blur"): memory.base_of("blur"), Reg("i"): 0}


def test_nest_scalar_vs_accelerated_equivalence():
    nest = _blur_nest()
    result = translate_loop(nest.inner, PROPOSED_LA)
    assert result.ok

    mem_s = _fresh_memory(nest.inner)
    scalar = execute_nest_scalar(nest, mem_s, _base_live_ins(mem_s),
                                 InOrderPipeline(ARM11))
    runs = []
    for level in (0, 2):  # at tier 2 the JIT sees new stream bases per row
        mem_a = _fresh_memory(nest.inner)
        with perf.engine_at(level):
            accel = execute_nest_accelerated(nest, result.image,
                                             LoopAccelerator(PROPOSED_LA),
                                             mem_a, _base_live_ins(mem_a))
        assert mem_s.snapshot() == mem_a.snapshot(), level
        assert scalar.inner_iterations == accel.inner_iterations \
            == ROWS * COLS
        assert accel.cycles < scalar.cycles
        runs.append(accel.cycles)
    assert runs[0] == runs[1]


def test_nest_live_in_stepping():
    nest = _blur_nest()
    base = {Reg("img"): 1000, Reg("blur"): 5000, Reg("i"): 0}
    row3 = nest.live_ins_for(base, 3)
    assert row3[Reg("img")] == 1000 + 3 * (COLS + 4)
    assert row3[Reg("i")] == 0


def test_nest_carried_live_out():
    """A checksum threaded through outer iterations (reduction nest)."""
    b = LoopBuilder("row_sum", trip_count=8)
    data = b.array("nd", length=128)
    acc = b.live_in("acc")
    i = b.counter()
    b.add(acc, b.load(b.add(data, i)), dest=acc)
    inner = b.finish()
    inner.live_outs = [acc]
    nest = LoopNest(name="sum2d", inner=inner, outer_trips=4,
                    live_in_steps={Reg("nd"): 8},
                    carried_live_ins={acc: acc})
    memory = Memory()
    memory.allocate_arrays(inner.arrays)
    memory.write_array("nd", list(range(32)))
    base = {Reg("nd"): memory.base_of("nd"), Reg("i"): 0, acc: 0}
    run = execute_nest_scalar(nest, memory, base, InOrderPipeline(ARM11))
    assert run.live_outs[acc] == sum(range(32))


def test_nest_invocation_overhead_visible():
    """The same total work split into more, shorter invocations costs
    more on the accelerator — the amortization crossover, nest-shaped."""
    def nest_cycles(outer, cols):
        b = LoopBuilder("strip", trip_count=cols)
        src = b.array("s2", length=outer * cols + 8)
        dst = b.array("d2", length=outer * cols + 8)
        i = b.counter()
        b.store(b.add(dst, i), b.shl(b.load(b.add(src, i)), 1))
        inner = b.finish()
        nest = LoopNest(name="strips", inner=inner, outer_trips=outer,
                        live_in_steps={Reg("s2"): cols, Reg("d2"): cols})
        result = translate_loop(inner, PROPOSED_LA)
        assert result.ok
        memory = Memory()
        memory.allocate_arrays(inner.arrays)
        run = execute_nest_accelerated(
            nest, result.image, LoopAccelerator(PROPOSED_LA), memory,
            {Reg("s2"): memory.base_of("s2"),
             Reg("d2"): memory.base_of("d2"), Reg("i"): 0})
        assert run.inner_iterations == outer * cols
        return run.cycles

    fat = nest_cycles(outer=4, cols=256)     # 4 long invocations
    thin = nest_cycles(outer=256, cols=4)    # 256 short invocations
    assert thin > 2 * fat
