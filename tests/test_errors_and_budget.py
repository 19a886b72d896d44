"""The structured failure taxonomy and translation budgets."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.accelerator import PROPOSED_LA
from repro.errors import (
    RegisterPressureError,
    SchedulabilityError,
    StreamLimitError,
    TranslationBudgetExceeded,
    TranslationError,
)
from repro.ir.work import charge_run, memoised
from repro.vm import TranslationMeter, TranslationOptions, translate_loop
from repro.vm.guard import GuardConfig, GuardedExecutor
from repro.vm.runtime import VMConfig, VirtualMachine
from repro.workloads import kernels as K
from repro.workloads.generator import GeneratorSpec, generate_loop
from tests import budget_golden, fresh_meter_golden
from tests.conftest import seeded_memory


# -- typed failure reasons ----------------------------------------------------

def test_success_has_no_failure_reason():
    result = translate_loop(K.daxpy(trip_count=16), PROPOSED_LA)
    assert result.ok
    assert result.failure_reason is None
    assert result.failure is None
    assert result.failure_kind is None


def test_subroutine_loop_is_schedulability_error():
    result = translate_loop(K.libm_loop(trip_count=16), PROPOSED_LA)
    assert not result.ok
    assert isinstance(result.failure_reason, SchedulabilityError)
    assert result.failure_kind == "schedulability"
    assert result.failure_reason.loop_name == result.loop_name
    # The backward-compatible string still carries the old text.
    assert "call" in result.failure


def test_while_loop_is_schedulability_error():
    result = translate_loop(K.while_scan(trip_count=16), PROPOSED_LA)
    assert isinstance(result.failure_reason, SchedulabilityError)
    assert "while" in result.failure


def test_stream_limit_error_carries_counts():
    config = PROPOSED_LA.with_(load_streams=1)
    result = translate_loop(K.mgrid_resid(trip_count=16), config)
    assert isinstance(result.failure_reason, StreamLimitError)
    assert result.failure_reason.stream_kind == "load"
    assert result.failure_reason.required > 1
    assert result.failure_reason.available == 1


def test_register_pressure_error_carries_demand():
    result = translate_loop(K.mesa_transform(trip_count=16), PROPOSED_LA)
    assert isinstance(result.failure_reason, RegisterPressureError)
    assert result.failure_reason.fp_required > \
        result.failure_reason.fp_available


def test_failure_kinds_are_stable_tags():
    # The blacklist and reports aggregate on kind strings; pin them.
    assert SchedulabilityError("x").kind == "schedulability"
    assert StreamLimitError("x").kind == "stream-limit"
    assert RegisterPressureError("x").kind == "register-pressure"
    assert TranslationBudgetExceeded("x").kind == "budget"
    assert isinstance(TranslationBudgetExceeded("x"), TranslationError)


# -- translation budget -------------------------------------------------------

def test_meter_enforces_budget():
    meter = TranslationMeter(budget_units=10)
    meter.charge("identify", 10)
    with pytest.raises(TranslationBudgetExceeded) as exc:
        meter.charge("priority", 1)
    assert exc.value.budget_units == 10
    assert exc.value.spent_units == 11
    assert exc.value.phase == "priority"


def test_meter_without_budget_is_unbounded():
    meter = TranslationMeter()
    meter.charge("scheduling", 10 ** 6)
    assert meter.total_units() == 10 ** 6


def _adversarial_loop():
    """A large generated loop whose translation is work-heavy."""
    return generate_loop(GeneratorSpec(
        n_ops=80, n_load_streams=4, n_store_streams=2, n_recurrences=2,
        recurrence_length=3, trip_count=16, seed=99))


def test_budget_aborts_translation_cleanly():
    loop = _adversarial_loop()
    budget = 500
    options = TranslationOptions(work_budget=budget)
    result = translate_loop(loop, PROPOSED_LA, options)  # must not raise
    assert not result.ok
    assert isinstance(result.failure_reason, TranslationBudgetExceeded)
    assert result.failure_kind == "budget"
    # The abort happened promptly: only the single over-budget charge
    # is allowed past the limit.
    assert result.meter.total_units() <= budget + 100
    # Without a budget the same loop translates a lot more work.
    unbounded = translate_loop(loop, PROPOSED_LA)
    assert unbounded.meter.total_units() > budget


def test_budget_falls_back_to_scalar_in_vm():
    loop = _adversarial_loop()
    config = VMConfig(accelerator=PROPOSED_LA,
                      options=TranslationOptions(work_budget=500))
    outcome = VirtualMachine(config).run_loop(loop)
    assert not outcome.accelerated
    assert outcome.failure_kind == "budget"
    assert "budget" in outcome.reason


def test_budget_falls_back_to_scalar_in_guarded_executor():
    loop = _adversarial_loop()
    executor = GuardedExecutor(
        PROPOSED_LA, GuardConfig.checked_mode(),
        options=TranslationOptions(work_budget=500))
    memory = seeded_memory(loop, seed=5)
    from repro.cpu import standard_live_ins
    run = executor.run(loop, memory, standard_live_ins(loop, memory))
    assert run.source == "scalar"
    assert "budget" in run.reason
    # Deterministic failure: the loop is permanently benched, and the
    # next invocation skips translation entirely.
    assert executor.blacklist.permanently_blocked(executor.key_for(loop))
    before = executor.stats.translations
    memory2 = seeded_memory(loop, seed=5)
    run2 = executor.run(loop, memory2, standard_live_ins(loop, memory2))
    assert run2.source == "scalar"
    assert executor.stats.translations == before


def test_wall_clock_deadline():
    meter = TranslationMeter(deadline_s=0.0)
    with pytest.raises(TranslationBudgetExceeded):
        meter.charge("identify", 1)


# -- run charges ----------------------------------------------------------------

def _unit_charges(meter, phase, n):
    for _ in range(n):
        meter.charge(phase, 1)


def _meter_after(charges, budget, run):
    """(meter units, total, abort) after *charges* on a fresh meter."""
    meter = TranslationMeter(budget_units=budget)
    abort = None
    try:
        for phase, n, bulk in charges:
            if bulk:
                meter.charge(phase, n)
            elif run:
                meter.charge_run(phase, n)
            else:
                _unit_charges(meter, phase, n)
    except TranslationBudgetExceeded as exc:
        abort = (exc.phase, exc.spent_units, exc.budget_units)
    return meter.units, meter.total_units(), abort


@settings(max_examples=300, deadline=None)
@given(charges=st.lists(st.tuples(
           st.sampled_from(["cca", "priority", "scheduling"]),
           st.integers(0, 12), st.booleans()), max_size=12),
       budget=st.one_of(st.none(), st.integers(0, 60)))
@example(charges=[("cca", 0, False), ("priority", 5, False)], budget=2)
@example(charges=[("cca", 4, True), ("priority", 3, False)], budget=2)
def test_run_charge_equals_unit_charges(charges, budget):
    """``charge_run(phase, n)`` leaves the meter exactly as n
    ``charge(phase, 1)`` calls: same units (no entry for an empty run),
    same total, same abort."""
    assert _meter_after(charges, budget, run=True) == \
        _meter_after(charges, budget, run=False)


def test_charge_run_helper_falls_back_to_unit_calls():
    calls = []
    charge_run(calls.append, 3)
    charge_run(None, 3)
    assert calls == [1, 1, 1]


def test_memoised_step_reaches_work_as_one_charge():
    """A miss and a hit each charge the step's total in one call; with
    no memo the step charges as it goes.  A step whose only charge is
    ``work(0)`` still charges 0 (it records its phase on a meter), and
    one that charges nothing charges nothing."""
    def step(work):
        work(2)
        charge_run(work, 3)
        work(0)
        return "value"

    calls, memo = [], {}
    assert memoised(memo, "k", calls.append, step) == "value"
    assert memoised(memo, "k", calls.append, step) == "value"
    assert calls == [5, 5]
    calls.clear()
    assert memoised(None, "k", calls.append, step) == "value"
    assert calls == [2, 1, 1, 1, 0]
    calls.clear()
    memoised(memo, "zero", calls.append, lambda work: work(0))
    memoised(memo, "none", calls.append, lambda work: None)
    assert calls == [0]


def test_budget_aborts_match_the_golden_table():
    """Budget aborts of 12 loops at ~30 budgets each, through the cache
    and around it, are where the unit-at-a-time meter put them: a run
    charge that moved any abort fails here."""
    with open(budget_golden.TABLE_PATH, encoding="utf-8") as handle:
        want = json.load(handle)
    got = json.loads(json.dumps(budget_golden.build_table()))
    assert sorted(got) == sorted(want)
    for label in want:
        assert got[label] == want[label], label


def test_fresh_meters_match_the_golden_table():
    """About 60 generated loops charge the units the per-unit meter
    charged, phase by phase and in the same first-charge order: at
    engine 0, cold at engine 1 (every memo misses) and warm (every memo
    hits).  A host-side speed-up that moved any unit fails here."""
    with open(fresh_meter_golden.TABLE_PATH, encoding="utf-8") as handle:
        want = json.load(handle)
    got = json.loads(json.dumps(fresh_meter_golden.build_table()))
    assert sorted(got) == sorted(want)
    for label in want:
        assert got[label] == want[label], label
