"""The network chaos campaign and the loadgen saturation probe."""

from __future__ import annotations

import pytest

from repro import perf
from repro.faults import infra
from repro.resilience.incidents import incident_log


@pytest.fixture(autouse=True)
def _clean_slate():
    perf.clear_caches()
    incident_log().clear()
    infra.disarm()
    yield
    infra.disarm()
    perf.clear_caches()
    incident_log().clear()
    incident_log().configure_sink(None)


@pytest.fixture(scope="module")
def netchaos_report(tmp_path_factory):
    """One small seeded campaign, shared by the tests below (the seeded
    schedule itself is pinned by ``test_chaos_engine``)."""
    from repro.resilience import campaign
    from repro.resilience.netchaos import Transport
    try:
        yield campaign.run(Transport("fig2"), 6, seed=7,
                           workdir=str(tmp_path_factory.mktemp("net")))
    finally:
        infra.disarm()
        incident_log().clear()
        incident_log().configure_sink(None)


def test_small_seeded_campaign_passes(netchaos_report):
    from repro.resilience.campaign import format_report
    report = netchaos_report
    assert report.ok, format_report(report)
    assert report.injected >= 6
    # Every family fired at least once, every fired fault is
    # token-accounted in the incident log, nothing leaked.
    assert set(report.by_family) == {
        mode.value for mode in infra.NET_FAULT_MODES} | {"slow-client"}
    assert all(count > 0 for count in report.by_family.values())
    assert report.accounted == report.injected
    assert report.checks["figure under faults"].ok
    assert report.checks["figure after campaign"].ok
    assert report.checks["orphaned connections"].shown == "0"
    assert report.orphaned_tmp == []


def test_campaign_formatter_names_verdict(netchaos_report):
    from repro.resilience.campaign import format_report
    text = format_report(netchaos_report)
    assert "verdict: PASS" in text
    assert "faults accounted" in text
    assert "target 6" in text


def test_saturation_probe_shows_degraded_but_progressing():
    from repro.service.loadgen import saturation_probe
    evidence = saturation_probe()
    assert evidence["ok"], evidence
    # Uncached work was shed with an honest hint ...
    assert evidence["shed_seen"]
    assert evidence["retry_hint_s"] > 0.0
    # ... cached work kept progressing through the same saturation ...
    assert evidence["cached_ok"]
    # ... and a client honouring the hints eventually landed the shed
    # request (progress, not starvation).
    assert evidence["retried_ok"]
    assert evidence["admission_retries"] >= 1
    assert evidence["admission"].get("saturated", 0) >= 1
