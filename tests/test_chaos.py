"""Seeded chaos campaign: figures survive infrastructure faults.

A deliberately small campaign (one cheap figure, a handful of faults),
run once and shared by every test here so the tier-1 suite stays fast;
the full default campaign (``python -m repro chaos``) runs 24 faults
over all four sweep figures on demand, and CI's chaos-smoke job runs
8 over two.  The schedule itself (seed determinism, the cap, token
accounting, the verdict) is pinned by ``test_chaos_engine``.
"""

from __future__ import annotations

import os

import pytest

from repro import perf
from repro.resilience import infra
from repro.resilience import campaign
from repro.resilience.chaos import Sweep
from repro.resilience.incidents import incident_log, read_jsonl

FAULTS = 5


@pytest.fixture(scope="module")
def chaos_run(tmp_path_factory):
    """(report, globals right after the run, globals before it)."""
    def snapshot() -> dict:
        return {"disk_dir": perf.translation_cache().disk_dir,
                "spec": os.environ.get(infra.CHAOS_SPEC_ENV),
                "spec_file": os.environ.get(infra.CHAOS_SPEC_FILE_ENV),
                "sink": incident_log().sink_path}

    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(infra.CHAOS_SPEC_ENV, raising=False)
        incident_log().clear()
        before = snapshot()
        try:
            report = campaign.run(
                Sweep(("fig4b",)), FAULTS, seed=11,
                workdir=str(tmp_path_factory.mktemp("chaos")))
            yield report, snapshot(), before
        finally:
            infra.disarm()
            incident_log().clear()
            incident_log().configure_sink(None)


def test_small_seeded_campaign_passes(chaos_run):
    report, _after, _before = chaos_run
    text = campaign.format_report(report)
    assert report.ok, text
    assert report.injected >= FAULTS
    assert report.accounted == report.injected
    # Every injector family exercised, even in a small campaign.
    for family in ("cache-corruption", "io-error"):
        assert report.by_family.get(family, 0) > 0, family
    assert report.checks["final figures intact"].ok
    assert report.orphaned_tmp == []

    # Each fault left a JSONL incident record with a taxonomy kind.
    records = read_jsonl(report.incident_log_path)
    assert len(records) >= report.injected
    kinds = {r["kind"] for r in records}
    assert kinds <= {"cache-corruption", "io-error"}

    assert "verdict: PASS" in text
    assert f"target {FAULTS}" in text


def test_campaign_leaves_global_state_clean(chaos_run):
    _report, after, before = chaos_run
    assert after == before
    assert after["disk_dir"] is None
    assert after["spec"] is None
    assert after["sink"] is None
