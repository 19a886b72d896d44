"""Tests of the benchmark itself, at minimal sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import harness  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402



def minimal(name: str, seed: int = 3):
    if name == "sweep":
        return workloads.Sweep(seed, figures=("fig4b",))
    if name == "kernels":
        return workloads.Kernels(seed, trips=(64, 128),
                                 shapes=workloads.KERNEL_SHAPES[:3],
                                 suite=False)
    return workloads.Service(seed, requests=20, run_pool=2, hot_limit=6)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_minimal_run_passes_its_checks(name):
    result = harness.run(minimal(name), seconds=0)
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert list(result["metrics"]) == list(harness.END_TO_END_UNITS)
    for metric in result["metrics"].values():
        assert metric["value"] > 0
    json.dumps(result)


def test_corrupted_figure_counts_as_failed():
    sweep = minimal("sweep")
    sweep.expected["fig4b"] += "x"
    result = harness.run(sweep, seconds=0)
    assert not result["correct"]
    # Every fig4b call is wrong: warm-up plus MIN_ROUNDS rounds, each a
    # cold and a warm pass.
    assert result["failed"] == result["attempted"] \
        == 2 * (1 + harness.MIN_ROUNDS)


def test_corrupted_reference_outcome_counts_as_failed():
    class Corrupted(workloads.Kernels):
        def _reference(self):
            reference = super()._reference()
            reference[0].ii = -1
            return reference

    kernels = Corrupted(5, trips=(64,), shapes=workloads.KERNEL_SHAPES[:2],
                        suite=False)
    result = harness.run(kernels, seconds=0)
    # Loop 0 is invoked INVOCATIONS times per pass, two passes a round,
    # in the warm-up and in every measured round.
    assert result["failed"] == \
        workloads.INVOCATIONS * 2 * (1 + harness.MIN_ROUNDS)


def test_service_references_bypass_the_translation_cache():
    from repro import perf
    service = minimal("service")
    service.setup()
    try:
        rec = workloads.Recorder()
        service.round(rec)
        before = perf.counter_snapshot()
        service.verify(rec)
        assert perf.counter_snapshot() == before
        assert rec.failed == 0 and rec.attempted == 2 * service.requests
    finally:
        service.teardown()


def test_every_service_pass_sends_fresh_loops():
    service = workloads.Service(4, requests=40, run_pool=2, hot_limit=6)
    service.hot = [None] * 6
    service.run_pool = [None] * 2
    passes = [service._build_pass() for _ in range(2)]
    fresh = [{key for key, _op, _args in requests if key[0] == "fresh"}
             for requests in passes]
    assert len(fresh[0]) == len(fresh[1]) == service.fresh > 0
    assert not fresh[0] & fresh[1]


def _bindings() -> dict:
    """Every callable bound in a repro module or a traced class."""
    found = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "repro"
                                or mod_name.startswith("repro.")):
            for key, value in vars(mod).items():
                if callable(value):
                    found[(mod_name, key)] = value
    for _name, cls, attr in harness.METHODS:
        found[(cls.__qualname__, attr)] = cls.__dict__[attr]
    return found


def test_traced_run_restores_every_wrapped_function():
    before = _bindings()
    result = harness.run(minimal("sweep"), seconds=0, trace=True)
    after = _bindings()
    changed = [key for key, value in before.items()
               if after.get(key) is not value]
    assert changed == []
    assert list(result["metrics"]) == list(harness.LAYER_UNITS)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["vm.translator.calls"] > 0
    assert metrics["trace_reconcile_error"] <= harness.RECONCILE_TOLERANCE


def test_wrappers_reach_names_bound_by_callers():
    from repro.scheduler import sms
    from repro.vm import translator
    original = sms.modulo_schedule
    tracer = Tracer()
    harness.install(tracer)
    try:
        assert translator.modulo_schedule is not original
        assert translator.modulo_schedule is sms.modulo_schedule
        patched = tracer.patched()
        assert patched
    finally:
        tracer.restore()
    assert translator.modulo_schedule is original
    for owner, attr, value in patched:
        assert getattr(owner, attr) is value


def test_traced_service_round_reports_client_side_layers():
    result = harness.run(minimal("service"), seconds=0, trace=True)
    assert result["correct"], result
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["service.wire.bytes"] > 0
    assert metrics["service.admission.calls"] > 0
    assert metrics["service.client.wait_s"] > 0
    assert metrics["trace_reconcile_error"] <= harness.RECONCILE_TOLERANCE


def test_same_seed_same_inputs():
    from repro.perf.digest import loop_digest

    def corpus(seed):
        kernels = workloads.Kernels(seed, trips=(64,), suite=False)
        kernels.setup()
        return [loop_digest(loop) for loop, _scalars in kernels.loops]

    assert corpus(9) == corpus(9)
    assert corpus(9) != corpus(10)
