"""TranslationMeter state that crosses a boundary: snapshots and pickles.

A cached core entry carries its meters as ``MeterSnapshot``s, and a
meter sent over the wire or to disk is pickled; either way the charges
must come back exactly.  (A memo hit reaches a meter only through
``repro.ir.work.memoised``; its tests are in ``test_transcache.py``.)
"""

from __future__ import annotations

import pytest

from repro.errors import TranslationBudgetExceeded
from repro.perf.transcache import MeterSnapshot
from repro.vm.costmodel import TranslationMeter


def _meter_with(charges: dict[str, int],
                **kwargs) -> TranslationMeter:
    meter = TranslationMeter(**kwargs)
    for phase, amount in charges.items():
        meter.charge(phase, amount)
    return meter


class TestSnapshot:
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
