"""Fault-injection model and the acceptance campaign.

The campaign test here is the acceptance gate of the ``faults`` plugin:
>=100 seeded injections across regfile/FIFO/CCA sites (and the JIT's
live-outs at engine tier 2), zero silent corruptions, every faulted run
recovered bit-exact against a fault-free scalar execution.
"""

import math

import pytest

from repro import perf
from repro.accelerator import jit
from repro.cli import main as cli_main
from repro.resilience import campaign, faults
from repro.resilience.faults import (
    Datapath,
    FaultInjector,
    FaultSite,
    FaultSpec,
    flip_bit,
)
from repro.workloads import kernels as K

SITES = {"regfile", "fifo", "cca"}


# -- flip_bit -----------------------------------------------------------------

def test_flip_bit_int_is_involution():
    for value in (0, 1, -1, 12345, -98765, 2 ** 62):
        for bit in (0, 7, 31, 63):
            flipped = flip_bit(value, bit)
            assert flipped != value
            assert flip_bit(flipped, bit) == value


def test_flip_bit_int_stays_wrapped():
    # Flipping the sign bit of a large value must stay in int64 range.
    flipped = flip_bit(2 ** 62, 63)
    assert -(2 ** 63) <= flipped < 2 ** 63


def test_flip_bit_float_ieee754():
    assert flip_bit(1.0, 51) != 1.0
    assert flip_bit(flip_bit(3.25, 40), 40) == 3.25
    # Flipping an exponent bit of 1.0 can reach inf; that's physical.
    value = flip_bit(0.0, 62)
    assert value != 0.0 and (math.isfinite(value) or math.isinf(value))


def test_flip_bit_wraps_bit_index():
    assert flip_bit(5, 64) == flip_bit(5, 0)


# -- injector -----------------------------------------------------------------

class _Op:
    opid = 7


def test_injector_fires_exactly_once_at_target():
    spec = FaultSpec(site=FaultSite.REGFILE, target_index=2, bit=0)
    injector = FaultInjector(spec)
    values = [injector("regfile", _Op, k, "d0", 10) for k in range(5)]
    assert values == [10, 10, 11, 10, 10]
    assert injector.fired
    assert injector.events == 5
    assert "bit 0" in injector.corrupted_detail


def test_injector_ignores_other_sites():
    spec = FaultSpec(site=FaultSite.CCA, target_index=0, bit=3)
    injector = FaultInjector(spec)
    assert injector("regfile", _Op, 0, "d0", 10) == 10
    assert injector("fifo", _Op, 0, "d1", 10) == 10
    assert not injector.fired
    assert injector("cca", _Op, 0, "d2", 10) == 10 ^ 8
    assert injector.fired
    assert injector.site_events == {"regfile": 1, "fifo": 1, "cca": 1}


def test_injector_can_miss():
    spec = FaultSpec(site=FaultSite.FIFO, target_index=99, bit=1)
    injector = FaultInjector(spec)
    for k in range(3):
        injector("fifo", _Op, k, "d0", 1)
    assert not injector.fired
    assert injector.corrupted_detail is None


# -- acceptance campaign ------------------------------------------------------

def _campaign(tmp_path, faults_wanted, seed, guard="checked", name="run"):
    plugin = Datapath(guard)
    report = campaign.run(plugin, faults_wanted, seed,
                          workdir=str(tmp_path / name))
    return plugin, report


def _recovered(report) -> int:
    return sum(s.injected for s in report.scenarios if s.correct)


@pytest.fixture(scope="module")
def acceptance(tmp_path_factory):
    with perf.engine_at(2):
        return _campaign(tmp_path_factory.mktemp("faults"), 120, 2008)


def test_campaign_meets_acceptance_criteria(acceptance):
    plugin, report = acceptance
    # >= 100 injections actually fired ...
    assert report.injected >= 100
    # ... across all three datapath sites (and the JIT's live-outs) ...
    fired = {family for family, n in report.by_family.items() if n}
    assert fired == SITES | {faults.JIT_LIVE_OUT}
    # ... with every corrupted execution detected and deoptimized:
    # no fault ever escaped to architectural state undetected ...
    assert plugin.outcomes["silent corruption"] == 0
    # ... and every faulted invocation ended bit-identical to the
    # fault-free scalar run of the same loop on the same data.
    assert _recovered(report) == report.injected
    assert report.ok
    # The campaign is not vacuous: the guard actually caught faults
    # and tore down cached kernels.
    detected = plugin.outcomes["detected"]
    executors = plugin.executors.values()
    assert detected > 50
    assert sum(e.stats.deopts for e in executors) == detected
    assert sum(e.cache.stats.invalidations for e in executors) == detected
    # Detected == fired minus benign (masked/dead landings).
    assert detected + plugin.outcomes["benign"] == report.injected
    # Every detection left its guard-violation incident.
    assert report.incident_counts == {"guard-violation": detected}


def test_campaign_summary_reports_counts(acceptance):
    plugin, report = acceptance
    text = campaign.format_report(report)
    assert f"faults injected       : {report.injected}" in text
    assert (f"recovered bit-exact   : {_recovered(report)}/"
            f"{report.injected}") in text
    assert "silent corruptions    : 0" in text
    assert f"guard-violation    {plugin.outcomes['detected']:4d}" in text
    for site in SITES:
        assert site in text
    assert "PASS" in text


def test_campaign_is_deterministic(tmp_path):
    a = _campaign(tmp_path, 20, 77, name="a")[1]
    b = _campaign(tmp_path, 20, 77, name="b")[1]
    assert a.scenarios == b.scenarios


def test_campaign_off_mode_shows_silent_corruption(tmp_path):
    # With the guard off the same faults reach architectural state:
    # this is the baseline the checked mode exists to fix.
    plugin, report = _campaign(tmp_path, 30, 2008, guard="off")
    assert plugin.outcomes["detected"] == 0 \
        or plugin.outcomes["silent corruption"] > 0
    assert plugin.outcomes["silent corruption"] > 0
    assert not report.ok
    assert "FAIL" in campaign.format_report(report)


def test_campaign_runs_via_cli(tmp_path, capsys):
    exit_code = cli_main(["faults", "-n", "20", "--seed", "11",
                          "--workdir", str(tmp_path)])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "Fault-injection campaign" in captured.out
    assert "PASS" in captured.out


def test_cli_exit_code_reports_a_guard_off_failure(tmp_path, capsys):
    assert cli_main(["faults", "-n", "8", "--guard", "off",
                     "--workdir", str(tmp_path)]) == 1
    assert "FAIL" in capsys.readouterr().out


# -- the JIT family -----------------------------------------------------------

def _jit_scenarios(report):
    return [s for s in report.scenarios
            if s.family == faults.JIT_LIVE_OUT and s.injected]


def test_jit_family_fires_and_every_firing_is_detected(tmp_path):
    with perf.engine_at(2):
        plugin, report = _campaign(tmp_path, 8, 7)
    fired = report.by_family[faults.JIT_LIVE_OUT]
    assert fired > 0
    assert report.tables["detected by family"][faults.JIT_LIVE_OUT] == fired
    assert all(s.ok and s.detail.startswith("detected")
               for s in _jit_scenarios(report))
    assert report.ok


def test_jit_family_needs_engine_tier_2():
    with perf.engine_at(1):
        assert set(Datapath().families) == SITES
    with perf.engine_at(2):
        assert set(Datapath().families) == SITES | {faults.JIT_LIVE_OUT}


def test_jit_family_unguarded_is_silent_corruption(tmp_path):
    with perf.engine_at(2):
        _plugin, report = _campaign(tmp_path, 8, 7, guard="off")
    scenarios = _jit_scenarios(report)
    assert scenarios
    assert all(not s.correct and s.detail.startswith("silent corruption")
               for s in scenarios)
    assert not report.ok


def test_campaign_leaves_the_jit_hook_unset(tmp_path, monkeypatch):
    with perf.engine_at(2):
        _campaign(tmp_path, 4, 7, name="clean")
    assert jit._test_corruption is None
    # A campaign that crashes is put back by close() too.
    jit.set_test_corruption(lambda name, live_outs: live_outs)
    monkeypatch.setattr(faults, "default_campaign_kernels", lambda: [])
    with pytest.raises(ValueError, match="no usable kernels"):
        _campaign(tmp_path, 4, 7, name="crash")
    assert jit._test_corruption is None


def test_campaign_with_benched_draws_still_finishes(tmp_path, monkeypatch):
    # One kernel whose first detection benches it for good in that
    # family's executor: every later draw lands on a benched loop.  The
    # skip budget (20 scalar runs per fault asked for) must end those
    # draws, so the campaign stops at the engine's scenario cap.
    monkeypatch.setattr(faults, "BACKOFF_INVOCATIONS", 10 ** 9)
    monkeypatch.setattr(faults, "default_campaign_kernels",
                        lambda: [K.sad_16(trip_count=24)])
    with perf.engine_at(1):
        plugin, report = _campaign(tmp_path, 4, 7)
    assert report.tables["guarded runtime"]["blacklist skips"] == \
        faults.SKIP_BUDGET_PER_FAULT * 4
    assert any(s.detail.startswith("benched") for s in report.scenarios)
    assert len(report.scenarios) <= 4 * max(2 * len(plugin.families), 4)
