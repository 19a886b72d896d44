"""Sweep baseline memoisation.

The design-space sweeps normalise every point against one baseline and
one infinite-resource run per suite.  Those runs are memoised by the
suite's content digest, so every sweep series over the same suite
shares one computation.
"""

from __future__ import annotations

import pytest

from repro import perf
from repro.accelerator.config import INFINITE_LA
from repro.api import fraction_of_infinite
from repro.experiments.common import suite_digest
from repro.workloads.suite import media_fp_benchmarks


@pytest.fixture(autouse=True)
def clean_cache():
    perf.clear_caches()
    yield
    perf.clear_caches()


def _small_suite():
    return media_fp_benchmarks()[:2]


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
