"""The chaos engine, driven by an in-process fake family plugin.

No processes, sockets or sleeps: each fake fault is claimed and logged
in-process, so these tests pin the engine's schedule, accounting,
verdict and restore logic in milliseconds.  The real plugins are
exercised end to end by ``test_chaos``, ``test_netchaos`` and
``test_cluster``.
"""

from __future__ import annotations

import dataclasses
import functools
import os

import pytest

from repro import perf
from repro.errors import TransportError
from repro.faults import infra
from repro.resilience import campaign
from repro.resilience.incidents import incident_log, record_incident

MODES = (infra.InfraFaultMode.SHARD_KILL, infra.InfraFaultMode.MAP_STALE)
FAMILIES = tuple(mode.value for mode in MODES)


class Fake(campaign.Plugin):
    """Two families; each scenario arms one fault, and the call claims
    and logs it unless the family is told to misbehave."""

    name = "fake"
    title = "Fake campaign"
    guarantee = "the fake held"

    def __init__(self, silent=(), unlogged=(), wrong=(), give_up=(),
                 fail_setup=False, spec_file=False):
        self.silent, self.unlogged = silent, unlogged
        self.wrong, self.give_up = wrong, give_up
        self.fail_setup = fail_setup
        self.spec_file = spec_file
        self.closed = False
        self.seen_env: dict[str, str] = {}
        self.families = {mode.value: functools.partial(self._family, mode)
                         for mode in MODES}

    def describe(self) -> str:
        return "in-process"

    def setup(self, run: campaign.Campaign) -> None:
        perf.set_jobs(3)
        self.seen_env = {
            "spec_file": os.environ.get(infra.CHAOS_SPEC_FILE_ENV, "")}
        if self.fail_setup:
            raise RuntimeError("setup blew up")

    def _family(self, mode, run: campaign.Campaign) -> campaign.Scenario:
        family = mode.value
        target = f"item-{int(run.rng.integers(0, 1000))}"
        token = f"{family}-{run.index}"

        def call() -> str:
            if family in self.give_up:
                raise TransportError("retries exhausted")
            spec = (None if family in self.silent
                    else infra.claim_shard_fault(mode))
            if spec is not None and family not in self.unlogged:
                record_incident(family, "fake", "fired", token=spec.token)
            return "wrong" if family in self.wrong else "right"

        return run.drive(family, target,
                         [infra.InfraFaultSpec(mode=mode, token=token)],
                         call, "right")

    def finish(self, run: campaign.Campaign) -> None:
        run.check("fake check", True)

    def close(self) -> None:
        self.closed = True


@pytest.fixture(autouse=True)
def _clean_slate():
    incident_log().clear()
    infra.disarm()
    yield
    infra.disarm()
    incident_log().clear()
    incident_log().configure_sink(None)


def _run(tmp_path, plugin=None, faults=4, seed=7, name="run"):
    return campaign.run(plugin or Fake(), faults, seed,
                        workdir=str(tmp_path / name))


def _plan(report) -> list[tuple[str, str]]:
    return [(s.family, s.target) for s in report.scenarios]


def test_healthy_fake_campaign_passes(tmp_path):
    report = _run(tmp_path)
    assert report.ok
    assert report.injected == report.accounted == 4
    assert report.by_family == {family: 2 for family in FAMILIES}
    assert [s.family for s in report.scenarios] == list(FAMILIES) * 2
    text = campaign.format_report(report)
    assert "verdict: PASS — the fake held" in text
    assert "faults accounted      : 4/4" in text
    assert "target 4" in text
    assert "FAILED" not in text


def test_seed_gives_identical_plan(tmp_path):
    a = _run(tmp_path, seed=7, name="a")
    b = _run(tmp_path, seed=7, name="b")
    c = _run(tmp_path, seed=8, name="c")
    assert _plan(a) == _plan(b)
    assert [f for f, _ in _plan(a)] == [f for f, _ in _plan(c)]
    assert _plan(a) != _plan(c)


def test_family_that_never_fires_runs_to_the_cap(tmp_path):
    report = _run(tmp_path, Fake(silent=("map-stale",)), faults=3)
    # The loop keeps going while a family has not fired: four times
    # max(two rounds of families, the fault target).
    assert len(report.scenarios) == max(2 * len(FAMILIES), 3) * 4
    assert report.by_family["map-stale"] == 0
    assert report.injected >= 3
    assert all(s.ok for s in report.scenarios)
    assert not report.ok
    assert "verdict: FAIL" in campaign.format_report(report)


def test_once_family_yields_its_slots_after_firing(tmp_path):
    plugin = Fake()
    plugin.once = ("shard-kill",)
    report = _run(tmp_path, plugin, faults=4)
    assert [s.family for s in report.scenarios] == [
        "shard-kill", "map-stale", "map-stale", "map-stale"]
    assert report.ok


def test_a_fault_counts_only_with_an_incident_carrying_its_token(tmp_path):
    report = _run(tmp_path, Fake(unlogged=("map-stale",)))
    stale = [s for s in report.scenarios if s.family == "map-stale"]
    assert stale and all(s.injected == 1 and s.accounted == 0
                         for s in stale)
    assert not report.ok
    assert "FAILED: scenario 1 (map-stale" in \
        campaign.format_report(report)

    spec = infra.InfraFaultSpec(mode=infra.InfraFaultMode.SHARD_KILL,
                                token="shard-kill-3")
    record = {"kind": "shard-kill", "details": {"token": "shard-kill-3"}}
    assert campaign._token_accounted([record], spec)
    assert not campaign._token_accounted(
        [{**record, "kind": "shard-hang"}], spec)
    assert not campaign._token_accounted(
        [{**record, "details": {"token": "shard-kill-4"}}], spec)


def test_client_give_up_becomes_a_failed_scenario(tmp_path):
    report = _run(tmp_path, Fake(give_up=("map-stale",)))
    failed = [s for s in report.scenarios if not s.ok]
    assert failed and all(s.family == "map-stale" for s in failed)
    assert failed[0].detail.startswith(
        "client gave up: TransportError: retries exhausted")
    assert not report.ok
    text = campaign.format_report(report)
    assert "FAILED: scenario" in text and "client gave up" in text


def test_wrong_result_fails_its_scenario(tmp_path):
    report = _run(tmp_path, Fake(wrong=("shard-kill",)))
    assert [s.correct for s in report.scenarios] == [False, True] * 2
    assert report.scenarios[0].detail == "result diverged"
    assert not report.ok


@pytest.mark.parametrize("flip", [
    lambda r: dataclasses.replace(r, faults=r.injected + 1),
    lambda r: dataclasses.replace(
        r, faults=2,
        scenarios=[s for s in r.scenarios if s.family == "shard-kill"]),
    lambda r: dataclasses.replace(
        r, scenarios=[dataclasses.replace(r.scenarios[0], correct=False)]
        + r.scenarios[1:]),
    lambda r: dataclasses.replace(
        r, scenarios=[dataclasses.replace(r.scenarios[0], accounted=0)]
        + r.scenarios[1:]),
    lambda r: dataclasses.replace(r, orphaned_tmp=["cache/x.pkl.tmp"]),
    lambda r: dataclasses.replace(
        r, checks={**r.checks,
                   "fake check": campaign.Check(False, "NO")}),
    lambda r: dataclasses.replace(
        r, incident_counts={**r.incident_counts, "map-stale": 1}),
], ids=["too-few-faults", "family-never-fired", "scenario-wrong",
        "fault-unaccounted", "orphaned-temp-file", "plugin-check",
        "incident-tally"])
def test_each_ok_condition_fails_the_report_on_its_own(tmp_path, flip):
    report = _run(tmp_path)
    assert report.ok
    flipped = flip(report)
    assert not flipped.ok
    text = campaign.format_report(flipped)
    assert "verdict: FAIL" in text


def test_every_global_restored_on_exception(tmp_path, monkeypatch):
    previous_spec_file = str(tmp_path / "outer-spec.json")
    monkeypatch.setenv(infra.CHAOS_SPEC_FILE_ENV, previous_spec_file)
    outer_disk = str(tmp_path / "outer-cache")
    cache = perf.translation_cache()
    previous_disk = cache.disk_dir
    previous_jobs = perf.get_jobs()
    cache.attach_disk(outer_disk)
    plugin = Fake(fail_setup=True, spec_file=True)
    try:
        with pytest.raises(RuntimeError, match="setup blew up"):
            _run(tmp_path, plugin)
        # The campaign ran with its own channels ...
        assert plugin.seen_env["spec_file"] == str(
            tmp_path / "run" / "chaos-spec.json")
        # ... and put every one back.
        assert plugin.closed
        assert perf.get_jobs() == previous_jobs
        assert cache.disk_dir == outer_disk
        assert os.environ[infra.CHAOS_SPEC_FILE_ENV] == previous_spec_file
        assert os.environ.get(infra.CHAOS_SPEC_ENV) is None
        assert incident_log().sink_path is None
    finally:
        cache.detach_disk()
        if previous_disk is not None:
            cache.attach_disk(previous_disk)


def test_plain_run_leaves_spec_file_env_unset(tmp_path, monkeypatch):
    monkeypatch.delenv(infra.CHAOS_SPEC_FILE_ENV, raising=False)
    plugin = Fake()
    report = _run(tmp_path, plugin)
    assert report.ok and plugin.closed
    assert plugin.seen_env["spec_file"] == ""
    assert infra.CHAOS_SPEC_FILE_ENV not in os.environ
    assert perf.translation_cache().disk_dir is None
