"""Parallel experiment fan-out.

Covers ``parallel_map`` determinism (item order, serial fallback,
nested-worker safety), ``run_suite``/``sweep`` producing identical
results at any job count, the shared baseline/infinite memoisation
that replaced the ``id()``-keyed cache, and the guard's interpreter
cross-check.
"""

from __future__ import annotations

import pytest

from repro import perf
from repro.accelerator.config import INFINITE_LA, PROPOSED_LA
from repro.api import fraction_of_infinite, run_suite, sweep
from repro.cpu import standard_live_ins
from repro.experiments.common import suite_digest
from repro.perf.parallel import parallel_map
from repro.vm import VMConfig, translate_loop
from repro.vm.guard import GuardConfig, GuardedExecutor, \
    interpreter_cross_check
from repro.workloads.suite import DEFAULT_SCALARS, media_fp_benchmarks
from tests.conftest import seeded_memory


@pytest.fixture(autouse=True)
def clean_cache():
    perf.clear_caches()
    yield
    perf.clear_caches()


def _square(x):
    return x * x


def _small_suite():
    return media_fp_benchmarks()[:2]


def test_parallel_map_preserves_item_order():
    items = list(range(20))
    assert parallel_map(_square, items, jobs=1) == [x * x for x in items]
    assert parallel_map(_square, items, jobs=4) == [x * x for x in items]


def test_parallel_map_falls_back_on_unpicklable_payloads():
    # A lambda cannot cross a process boundary; the pool must degrade
    # to the serial path rather than fail the experiment.
    assert parallel_map(lambda x: x + 1, [1, 2, 3], jobs=2) == [2, 3, 4]


def _reciprocal(x):
    return 1 // x


def test_parallel_map_raises_typed_worker_failures():
    """Task failures are never silently swallowed (the old broad
    handler could eat them on the pool path): they surface as typed
    WorkerTaskError with the originating item attached and the real
    exception chained, identically at every job count."""
    from repro.errors import WorkerTaskError
    for jobs in (1, 2):
        with pytest.raises(WorkerTaskError) as info:
            parallel_map(_reciprocal, [1, 0], jobs=jobs,
                         label_of=lambda i: f"recip[x={[1, 0][i]}]")
        assert isinstance(info.value.__cause__, ZeroDivisionError)
        assert info.value.item_index == 1
        assert info.value.point == "recip[x=0]"
        assert info.value.kind == "worker-task"


def test_workers_run_nested_maps_serially(monkeypatch):
    monkeypatch.setenv(perf.IN_WORKER_ENV, "1")
    assert perf.get_jobs() == 1  # no oversubscription inside a worker


def test_run_suite_identical_at_any_job_count():
    benches = _small_suite()
    from repro.cpu.pipeline import ARM11
    config = VMConfig(cpu=ARM11, accelerator=PROPOSED_LA,
                      charge_translation=False, functional=False)
    serial = run_suite(config, benchmarks=benches, jobs=1)
    fanned = run_suite(config, benchmarks=benches, jobs=2)
    assert list(serial) == list(fanned)  # merge order is bench order
    for name in serial:
        assert serial[name].total_cycles == fanned[name].total_cycles


def test_worker_cache_counters_merge_into_parent():
    """Cache entries stay worker-local, but the hit/miss accounting a
    fanned run reports must cover the workers' translations too."""
    benches = _small_suite()
    from repro.cpu.pipeline import ARM11
    config = VMConfig(cpu=ARM11, accelerator=PROPOSED_LA,
                      charge_translation=False, functional=False)
    run_suite(config, benchmarks=benches, jobs=2)
    stats = perf.cache_stats()["translation"]
    assert stats["hits"] + stats["misses"] > 0


def test_sweep_identical_at_any_job_count():
    benches = _small_suite()
    xs = [1, 2, 4]
    serial = sweep("iex", xs, lambda k: INFINITE_LA.with_(num_int_units=k),
                   benchmarks=benches, jobs=1)
    fanned = sweep("iex", xs, lambda k: INFINITE_LA.with_(num_int_units=k),
                   benchmarks=benches, jobs=2)
    assert serial.fractions == fanned.fractions
    assert serial.xs == fanned.xs


def test_baseline_and_infinite_computed_once_per_suite():
    """The old ``_cache: dict = {}`` default keyed baselines by ``id()``
    of the list — collision-prone and never shared.  The replacement
    keys by content and computes once per distinct suite."""
    benches = _small_suite()
    fraction_of_infinite(INFINITE_LA.with_(num_int_units=4),
                         benchmarks=benches)
    assert len(perf.baseline_cache) == 1
    fraction_of_infinite(INFINITE_LA.with_(num_int_units=8),
                         benchmarks=benches)
    assert len(perf.baseline_cache) == 1  # same suite, same entry
    assert suite_digest(benches) in perf.baseline_cache
    # A structurally identical rebuild of the suite shares the entry.
    fraction_of_infinite(INFINITE_LA.with_(num_fp_units=2),
                         benchmarks=_small_suite())
    assert len(perf.baseline_cache) == 1


def test_guard_interpreter_cross_check_clean_on_suite():
    """The two loop drivers must agree everywhere the guard looks."""
    checked = 0
    for bench in _small_suite():
        for loop in bench.kernels:
            memory = seeded_memory(loop, seed=13)
            live = standard_live_ins(loop, memory, DEFAULT_SCALARS)
            mismatches = interpreter_cross_check(loop, memory, live)
            assert mismatches == [], (loop.name, mismatches)
            checked += 1
    assert checked > 0


def test_guarded_executor_with_interpreter_cross_check():
    guard = GuardConfig.checked_mode(cross_check_interpreter=True)
    executor = GuardedExecutor(PROPOSED_LA, guard)
    for bench in _small_suite():
        for loop in bench.kernels:
            if not translate_loop(loop, PROPOSED_LA).ok:
                continue
            memory = seeded_memory(loop, seed=13)
            live = standard_live_ins(loop, memory, DEFAULT_SCALARS)
            run = executor.run(loop, memory, live)
            assert run.verdict is not None and run.verdict.ok
            return  # one guarded kernel is enough for the smoke check
