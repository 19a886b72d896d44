"""Worker supervision: crash salvage, stall detection, degradation.

Covers the tentpole's second pillar: a killed worker loses nothing
(completed results are salvaged, the rest retried in a fresh pool), a
hung pool is detected by the completion heartbeat and abandoned, the
retry budget is bounded, and when the pool is unsalvageable the work
degrades to the serial path — all with results identical to a
fault-free serial run, and every recovery recorded as an incident.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro import perf
from repro.errors import WorkerTaskError
from repro.faults import infra
from repro.perf.parallel import parallel_map
from repro.resilience.incidents import incident_log
from repro.resilience.supervisor import SupervisorConfig, supervised_map


@pytest.fixture(autouse=True)
def clean_state(monkeypatch):
    monkeypatch.delenv(infra.CHAOS_SPEC_ENV, raising=False)
    monkeypatch.delenv(perf.IN_WORKER_ENV, raising=False)
    incident_log().clear()
    yield
    infra.disarm()
    incident_log().clear()


def _kinds():
    return [i.kind for i in incident_log().incidents]


FAST = SupervisorConfig(stall_timeout_s=30.0, max_pool_retries=2,
                        backoff_s=0.01, poll_s=0.02)


def _square(x):
    return x * x


def _crash_if_worker(x):
    """SIGKILL the host process — but only inside a real pool worker,
    so the serial-fallback pass (parent process) completes."""
    if os.environ.get(perf.IN_WORKER_ENV):
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def _sleep_once(payload):
    """Hang on the first attempt only: the sentinel claims the hang."""
    x, state_dir = payload
    if x == 2 and infra._claim(state_dir, "hang"):
        time.sleep(4.0)
    return x * x


def test_injected_worker_kill_is_salvaged_and_retried(tmp_path):
    items = list(range(8))
    infra.arm([infra.InfraFaultSpec(mode=infra.InfraFaultMode.WORKER_KILL,
                                    token="kill-t", task_index=3)],
              str(tmp_path / "state"))
    try:
        results = parallel_map(_square, items, jobs=2, supervision=FAST)
    finally:
        infra.disarm()
    assert results == [x * x for x in items]  # identical to serial
    assert infra.fired(str(tmp_path / "state"), "kill-t")
    assert "worker-lost" in _kinds()


def test_unhealthy_pool_degrades_to_serial():
    """Every pool attempt crashes; the retry budget spends, then the
    remaining items run serially in the parent, bit-identical."""
    items = list(range(6))
    config = SupervisorConfig(stall_timeout_s=30.0, max_pool_retries=1,
                              backoff_s=0.01, poll_s=0.02)
    results = parallel_map(_crash_if_worker, items, jobs=2,
                           supervision=config)
    assert results == [x * x for x in items]
    kinds = _kinds()
    assert kinds.count("worker-lost") == 2  # initial + 1 retry
    assert "retry-exhausted" in kinds
    assert "serial-fallback" in kinds


def test_stalled_pool_is_detected_and_work_retried(tmp_path):
    """No completion for stall_timeout_s => pool abandoned; the hung
    item's retry (sentinel already claimed) completes normally."""
    state = str(tmp_path / "state")
    os.makedirs(state, exist_ok=True)
    items = [(x, state) for x in range(3)]
    config = SupervisorConfig(stall_timeout_s=0.6, max_pool_retries=2,
                              backoff_s=0.01, poll_s=0.02)
    results = parallel_map(_sleep_once, items, jobs=2, supervision=config)
    assert results == [x * x for x, _ in items]
    assert "worker-timeout" in _kinds()


def test_serial_fallback_on_unpicklable_payload_records_incident():
    assert parallel_map(lambda x: x + 1, [1, 2, 3], jobs=2) == [2, 3, 4]
    assert "serial-fallback" in _kinds()


def _stagger(i):
    time.sleep(0.05 * (5 - i))  # earlier items finish last
    return i * 10


def test_supervised_map_merges_by_index_not_completion_order():
    results = supervised_map(_stagger, 5, 2, config=FAST)
    assert results == [0, 10, 20, 30, 40]


def test_task_errors_are_not_retried():
    """A deterministic task failure propagates typed on the first
    attempt — the supervisor must not burn its retry budget on it."""
    with pytest.raises(WorkerTaskError) as info:
        parallel_map(_boom, [1, 2, 3], jobs=2, supervision=FAST,
                     label_of=lambda i: f"pt{i}")
    assert info.value.point in {"pt0", "pt1", "pt2"}
    assert "worker-lost" not in _kinds()
    assert "retry-exhausted" not in _kinds()


def _boom(x):
    raise ValueError(f"bad point {x}")


def test_kill_hook_never_fires_in_parent(tmp_path, monkeypatch):
    """Degraded-to-serial execution must not SIGKILL the experiment:
    the hook requires REPRO_IN_WORKER."""
    infra.arm([infra.InfraFaultSpec(mode=infra.InfraFaultMode.WORKER_KILL,
                                    token="t", task_index=0)],
              str(tmp_path / "state"))
    try:
        infra.maybe_kill_worker(0)  # parent process: must be a no-op
        assert not infra.fired(str(tmp_path / "state"), "t")
    finally:
        infra.disarm()


def test_sweep_failure_names_the_originating_point():
    """The satellite fix: a failing sweep point surfaces typed with the
    series label and x value attached, never silently swallowed."""
    from repro.api import sweep
    from repro.workloads.suite import media_fp_benchmarks

    perf.clear_caches()
    try:
        with pytest.raises(WorkerTaskError) as info:
            # A nonsense config blows up deep inside the VM; the error
            # must climb out with every fan-out level's coordinates.
            sweep("IEx demo", [1], lambda x: object(),
                  benchmarks=media_fp_benchmarks()[:1], jobs=1)
    finally:
        perf.clear_caches()
    assert info.value.kind == "worker-task"
    assert info.value.point == "IEx demo[x=1]"
    # The inner fan-out (run_suite) contributed the benchmark name.
    inner = info.value.__cause__
    assert isinstance(inner, WorkerTaskError)
    assert inner.point.startswith("benchmark ")
