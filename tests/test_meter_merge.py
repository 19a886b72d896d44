"""Regression tests for TranslationMeter merge/replay semantics.

The merge path used to fold another meter's charges in blindly: a
budget-carrying meter could silently exceed ``budget_units`` and an
unknown phase name would be accepted and then silently dropped by
``instructions()``.  The replay path (cache hits reconstructing meter
state) must count against the work budget but never against the
wall-clock deadline — replayed units consumed no wall clock *now*.
"""

from __future__ import annotations

import pytest

from repro.errors import TranslationBudgetExceeded
from repro.perf.transcache import MeterSnapshot
from repro.vm.costmodel import PHASES, TranslationMeter


def _meter_with(charges: dict[str, int],
                **kwargs) -> TranslationMeter:
    meter = TranslationMeter(**kwargs)
    for phase, amount in charges.items():
        meter.charge(phase, amount)
    return meter


class TestMerge:
    def test_merge_accumulates_phases_and_total(self):
        a = _meter_with({"priority": 5, "cca": 3})
        b = _meter_with({"priority": 2, "scheduling": 7})
        a.merge(b)
        assert a.units == {"priority": 7, "cca": 3, "scheduling": 7}
        assert a.total_units() == 17

    def test_merge_rejects_unknown_phase(self):
        a = TranslationMeter()
        b = TranslationMeter()
        b.units["made-up-phase"] = 3
        b._total = 3
        with pytest.raises(KeyError, match="made-up-phase"):
            a.merge(b)
        # Nothing was folded in before the validation tripped.
        assert a.units == {}
        assert a.total_units() == 0

    def test_merge_rejects_unknown_phase_names_all(self):
        a = TranslationMeter()
        b = TranslationMeter()
        b.units["zeta"] = 1
        b.units["alpha"] = 1
        b._total = 2
        with pytest.raises(KeyError) as exc_info:
            a.merge(b)
        # Both offenders are reported, sorted.
        message = str(exc_info.value)
        assert "alpha" in message and "zeta" in message

    def test_merge_enforces_budget(self):
        a = _meter_with({"priority": 6}, budget_units=10)
        b = _meter_with({"scheduling": 5})
        with pytest.raises(TranslationBudgetExceeded) as exc_info:
            a.merge(b)
        exc = exc_info.value
        assert exc.budget_units == 10
        assert exc.spent_units == 11
        # Charge-then-check: the crossing units are already recorded.
        assert a.total_units() == 11

    def test_merge_budget_abort_is_deterministic_in_phase_order(self):
        # The crossing phase is decided by PHASES order, not by the
        # insertion order of the other meter's dict.
        a = _meter_with({"identify": 4}, budget_units=8)
        b = TranslationMeter()
        b.units = {"regalloc": 5, "cca": 5}  # insertion order reversed
        b._total = 10
        with pytest.raises(TranslationBudgetExceeded) as exc_info:
            a.merge(b)
        assert exc_info.value.phase == "cca"  # cca precedes regalloc

    def test_merge_within_budget_succeeds(self):
        a = _meter_with({"priority": 4}, budget_units=10)
        a.merge(_meter_with({"cca": 6}))
        assert a.total_units() == 10

    def test_merge_ignores_other_meters_deadline_clock(self):
        a = _meter_with({"priority": 1})
        a.deadline_s = 0.0
        a._started_at -= 10.0
        b = _meter_with({"cca": 100})
        # A merge charges no wall clock against this meter's deadline,
        # even though _started_at is long past the (expired) deadline.
        a.merge(b)
        assert a.total_units() == 101


class TestReplay:
    def test_replay_reproduces_charges(self):
        meter = TranslationMeter()
        meter.replay({"priority": 9, "cca": 4})
        assert meter.units == {"priority": 9, "cca": 4}
        assert meter.total_units() == 13

    def test_replay_rejects_unknown_phase_before_charging(self):
        meter = TranslationMeter()
        with pytest.raises(KeyError, match="bogus"):
            meter.replay({"priority": 2, "bogus": 1})
        assert meter.total_units() == 0

    def test_replay_counts_against_budget(self):
        meter = TranslationMeter(budget_units=5)
        with pytest.raises(TranslationBudgetExceeded):
            meter.replay({"priority": 6})
        assert meter.total_units() == 6  # charge-then-check

    def test_replay_does_not_trip_deadline(self):
        # A meter rebuilt for cache replay has a fresh _started_at; the
        # replayed charges happened in another translation's time and
        # must not spuriously hit deadline_s mid-replay.
        meter = TranslationMeter(deadline_s=0.0)
        meter._started_at -= 10.0  # clock is far past the deadline
        meter.replay({phase: 3 for phase in PHASES})
        assert meter.total_units() == 3 * len(PHASES)

    def test_fresh_charge_after_replay_still_trips_deadline(self):
        meter = TranslationMeter(deadline_s=0.0)
        meter._started_at -= 10.0
        meter.replay({"priority": 3})
        with pytest.raises(TranslationBudgetExceeded):
            meter.charge("priority", 1)

    def test_snapshot_restore_preserves_charges(self):
        original = _meter_with({"priority": 5, "regalloc": 2})
        restored = MeterSnapshot.of(original).restore()
        assert restored.units == original.units
        assert restored.total_units() == original.total_units()
        assert restored.instructions() == original.instructions()


class TestPickle:
    def test_round_trip_restarts_the_deadline_clock(self):
        import pickle
        import time

        meter = _meter_with({"priority": 5}, deadline_s=1.0)
        # A sender whose monotonic clock reads far from ours.
        meter._started_at = time.monotonic() - 1000.0
        with pytest.raises(TranslationBudgetExceeded):
            meter.charge("priority")
        restored = pickle.loads(pickle.dumps(meter))
        assert "_started_at" not in meter.__getstate__()
        restored.charge("priority")  # does not trip the deadline
        assert restored.units == {"priority": 7}
        assert restored.total_units() == 7

    def test_identical_cache_hits_pack_to_identical_bytes(self):
        from repro import api, perf
        from repro.service import wire
        from repro.workloads import kernels as K

        perf.clear_caches()
        loop = K.fir_filter(taps=4)
        api.translate(loop)  # fills the cache
        first, second = api.translate(loop), api.translate(loop)
        assert first.meter is not second.meter
        assert wire.pack_body(first) == wire.pack_body(second)
        perf.clear_caches()
