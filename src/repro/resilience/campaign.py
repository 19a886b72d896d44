"""One seeded chaos engine for every fault campaign.

VEAL's contract is that the VM can always fall back to a correct path
when anything between translation and execution misbehaves.  Four
campaigns prove it, each a small family plugin driven by this engine:

* ``python -m repro faults`` (:mod:`repro.resilience.faults`) — the
  guarded runtime under datapath bit flips;
* ``python -m repro chaos`` (:mod:`repro.resilience.chaos`) — the
  figure sweeps under cache corruption and I/O errors;
* ``python -m repro netchaos`` (:mod:`repro.resilience.netchaos`) —
  the client/server wire under resets, corruption, truncation, stalls,
  drops and a slow-loris client;
* ``python -m repro clusterchaos`` (:mod:`repro.resilience.
  clusterchaos`) — the sharded cluster under shard kills, hangs, slow
  restarts and stale shard maps.

The engine owns everything they share: the workdir layout, attaching
the strict disk cache and the incident sink (and putting every global
back afterwards), the seeded round-robin schedule, the armed drive
that turns one injected fault into one :class:`Scenario`, token
accounting, the :class:`Report` and its formatter.  A plugin holds its
families, its setup and baseline, one function per family, and its
closing checks.

Campaigns are deterministic in their seed (which families, which
targets); process schedules are racy, which is why the comparison
against the fault-free result is the assertion that matters.
"""

from __future__ import annotations

import os
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from repro import perf
from repro.errors import ReproError
from repro.resilience import infra
from repro.resilience import integrity
from repro.resilience.incidents import incident_log, read_jsonl

#: Family of the fault-free closing steps a plugin drives through
#: :meth:`Campaign.drive` (nothing armed, result still compared).
FAULT_FREE = "fault-free"


def _fingerprint(result) -> Any:
    """The client-visible identity of a result: figure text as is, a
    translation by outcome, loop, II (or failure kind) and modelled
    cost, a list element by element."""
    if isinstance(result, str):
        return result
    if isinstance(result, list):
        return [_fingerprint(item) for item in result]
    return (result.ok, result.loop_name,
            result.image.schedule.ii if result.ok
            else result.failure_kind,
            result.meter.total_units())


def _token_accounted(records: list[dict], spec: infra.InfraFaultSpec
                     ) -> bool:
    """Some incident of the fault's kind carries the fault's token."""
    return any(r.get("kind") == spec.mode.value
               and r.get("details", {}).get("token") == spec.token
               for r in records)


@dataclass
class Scenario:
    """One step of a campaign: usually one injected fault and the
    request or figure driven through it."""

    index: int
    family: str
    target: str
    #: Faults that actually fired (claimed their sentinel).
    injected: int
    #: Fired faults with a matching incident record.
    accounted: int
    #: The guarantee under attack held (result identity, healing).
    correct: bool
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.correct and self.accounted == self.injected


class Check(NamedTuple):
    """One of a plugin's named closing checks, as the report shows it."""

    ok: bool
    shown: str


class Plugin:
    """One fault family set.  Subclasses set the class attributes, map
    each family name to a ``fn(campaign) -> Scenario`` in
    ``self.families``, and implement the hooks."""

    #: CLI subcommand and temp-dir prefix.
    name = ""
    #: Report heading.
    title = ""
    #: What a PASS verdict proves.
    guarantee = ""
    #: Families that run only until they have fired once (each costs a
    #: long timeout); their slots go to the other families afterwards.
    once: tuple[str, ...] = ()
    #: Share a live chaos spec file with already-running processes.
    spec_file = False
    #: Each scenario decides itself whether its faults are accounted
    #: for (their records are not of the family's kind, or a benign
    #: fault leaves none), so the report skips the per-family tally of
    #: the incident log.
    accounted_per_scenario = False

    families: dict[str, Callable[["Campaign"], Scenario]]

    def describe(self) -> str:
        """The targets, for the report heading."""
        raise NotImplementedError

    def setup(self, campaign: "Campaign") -> None:
        """Compute the fault-free baseline and boot what is attacked."""

    def finish(self, campaign: "Campaign") -> None:
        """Closing scenarios and named checks, after the schedule."""

    def close(self) -> None:
        """Stop whatever :meth:`setup` started (idempotent)."""


@dataclass
class Report:
    plugin: Plugin
    faults: int
    seed: int
    incident_log_path: str
    scenarios: list[Scenario] = field(default_factory=list)
    checks: dict[str, Check] = field(default_factory=dict)
    #: Extra counters shown as tables (client recovery and the like).
    tables: dict[str, dict[str, int]] = field(default_factory=dict)
    orphaned_tmp: list[str] = field(default_factory=list)
    incident_counts: dict[str, int] = field(default_factory=dict)

    @property
    def injected(self) -> int:
        return sum(s.injected for s in self.scenarios)

    @property
    def accounted(self) -> int:
        return sum(s.accounted for s in self.scenarios)

    @property
    def by_family(self) -> dict[str, int]:
        table = {family: 0 for family in self.plugin.families}
        for s in self.scenarios:
            if s.family in table:
                table[s.family] += s.injected
        return table

    @property
    def untallied(self) -> list[str]:
        """Families that fired more often than the whole incident log
        holds records of their kind."""
        if self.plugin.accounted_per_scenario:
            return []
        return [family for family, count in self.by_family.items()
                if self.incident_counts.get(family, 0) < count]

    @property
    def ok(self) -> bool:
        """Every guarantee held — and enough faults actually fired
        across every family (an empty campaign proves nothing)."""
        return (self.injected >= self.faults
                and all(n > 0 for n in self.by_family.values())
                and all(s.ok for s in self.scenarios)
                and not self.orphaned_tmp
                and all(check.ok for check in self.checks.values())
                and not self.untallied)


class Campaign:
    """One campaign in flight: the workdir layout, the seeded RNG, the
    incident-log cursor and the report, handed to every plugin hook."""

    def __init__(self, plugin: Plugin, faults: int, seed: int,
                 workdir: str, note: Callable[[str], None]):
        self.cache_dir = os.path.join(workdir, "cache")
        self.state_dir = os.path.join(workdir, "state")
        self.log_path = os.path.join(workdir, "incidents.jsonl")
        self.spec_file = os.path.join(workdir, "chaos-spec.json")
        self.rng = np.random.default_rng(seed)
        self.note = note
        self.report = Report(plugin=plugin, faults=faults, seed=seed,
                             incident_log_path=self.log_path)
        self._seen = 0

    @property
    def index(self) -> int:
        """Index of the scenario being driven."""
        return len(self.report.scenarios)

    def new_records(self) -> list[dict]:
        """Incident records appended since the current scenario began."""
        return read_jsonl(self.log_path)[self._seen:]

    def mark(self) -> None:
        """Start the next scenario's window of incident records."""
        self._seen = len(read_jsonl(self.log_path))

    def add(self, scenario: Scenario) -> Scenario:
        self.report.scenarios.append(scenario)
        self.mark()
        return scenario

    def check(self, name: str, ok: bool, shown: str = "") -> None:
        self.report.checks[name] = Check(
            ok, shown or ("yes" if ok else "NO"))

    def drive(self, family: str, target: str,
              specs: list[infra.InfraFaultSpec], call: Callable[[], Any],
              want: Any, *, done: str = "",
              check: Optional[Callable[[], str]] = None,
              account: Optional[Callable[
                  [list[dict], infra.InfraFaultSpec], bool]] = None
              ) -> Scenario:
        """Arm *specs*, run *call* and compare its fingerprint with that
        of *want*, then disarm and account every fault that fired.

        A :class:`~repro.errors.ReproError` from *call* (a client that
        gave up) fails the scenario instead of the campaign.  *check*
        runs while the faults are still armed — a fault may fire on a
        restart the check waits for — and returns a problem ("" when
        none) that fails an otherwise correct scenario.  *account*
        decides whether a fired fault has its incident record (default:
        one of its kind carrying its token).
        """
        want = _fingerprint(want)
        infra.arm(specs, self.state_dir)
        detail = ""
        try:
            try:
                got = _fingerprint(call())
                correct = got == want
                if not correct:
                    detail = ("result diverged"
                              + (f": {got} != {want}"
                                 if isinstance(want, tuple) else ""))
            except ReproError as exc:
                correct = False
                detail = f"client gave up: {type(exc).__name__}: {exc}"
            problem = check() if check is not None else ""
            if correct and problem:
                correct, detail = False, problem
        finally:
            infra.disarm()
        fired = [s for s in specs if infra.fired(self.state_dir, s.token)]
        records = self.new_records()
        account = account or _token_accounted
        return Scenario(
            index=self.index, family=family, target=target,
            injected=len(fired),
            accounted=sum(1 for s in fired if account(records, s)),
            correct=correct,
            detail=detail or done + ("" if fired or not specs
                                     else " (never fired)"))


def run(plugin: Plugin, faults: int, seed: int = 2008,
        workdir: Optional[str] = None,
        progress: Optional[Callable[[str], None]] = None) -> Report:
    """Drive *plugin*'s campaign until *faults* have fired and every
    family has fired at least once, capped at four times that many
    scenarios.  Every global the campaign touches is put back on the
    way out, and :meth:`Plugin.close` stops what the plugin started."""
    workdir = workdir or tempfile.mkdtemp(prefix=f"repro-{plugin.name}-")
    campaign = Campaign(plugin, faults, seed, workdir,
                        progress or (lambda msg: None))
    report = campaign.report
    os.makedirs(campaign.state_dir, exist_ok=True)
    cache = perf.translation_cache()
    previous_disk = cache.disk_dir
    previous_spec_file = os.environ.get(infra.CHAOS_SPEC_FILE_ENV)
    try:
        perf.clear_caches()
        cache.attach_disk(campaign.cache_dir, strict=True)
        # Both channels exist before the plugin boots anything: the
        # incident sink and the live spec file cross the process
        # boundary through the environment, which spawned processes
        # snapshot at boot.
        incident_log().configure_sink(campaign.log_path)
        if plugin.spec_file:
            os.environ[infra.CHAOS_SPEC_FILE_ENV] = campaign.spec_file
        plugin.setup(campaign)
        campaign.mark()

        families = tuple(plugin.families)
        rest = [f for f in families if f not in plugin.once]
        cap = max(2 * len(families), faults) * 4
        while (report.injected < faults
               or not all(report.by_family.values())) \
                and campaign.index < cap:
            family = families[campaign.index % len(families)]
            if family in plugin.once and report.by_family[family]:
                family = rest[campaign.index % len(rest)]
            campaign.note(f"scenario {campaign.index}: {family} "
                          f"({report.injected}/{faults} faults)")
            campaign.add(plugin.families[family](campaign))

        plugin.finish(campaign)
        report.orphaned_tmp = integrity.orphaned_temp_files(
            campaign.cache_dir)
        report.incident_counts = dict(Counter(
            r.get("kind", "?") for r in read_jsonl(campaign.log_path)))
        return report
    finally:
        infra.disarm()
        if previous_spec_file is None:
            os.environ.pop(infra.CHAOS_SPEC_FILE_ENV, None)
        else:
            os.environ[infra.CHAOS_SPEC_FILE_ENV] = previous_spec_file
        try:
            plugin.close()
        finally:
            incident_log().configure_sink(None)
            cache.detach_disk()
            perf.clear_caches()
            if previous_disk is not None:
                cache.attach_disk(previous_disk)


def format_report(report: Report) -> str:
    """Human-readable campaign summary (CLI output)."""
    plugin = report.plugin
    lines = [
        f"{plugin.title} (seed {report.seed}, {plugin.describe()})",
        "=" * 66,
        f"  scenarios run         : {len(report.scenarios)}",
        f"  faults injected       : {report.injected} "
        f"(target {report.faults})",
        f"  faults accounted      : {report.accounted}/{report.injected}"
        f" in {report.incident_log_path}",
        f"  orphaned temp files   : {len(report.orphaned_tmp)}",
    ]
    lines += [f"  {name:21s} : {check.shown}"
              for name, check in report.checks.items()]
    tables = {"injected by family": report.by_family, **report.tables,
              "incident log by kind": dict(sorted(
                  report.incident_counts.items()))}
    for title, table in tables.items():
        lines += ["", f"  {title}:"]
        lines += [f"    {key:18s} {value:4d}"
                  for key, value in table.items()]
    lines += [f"  FAILED: scenario {s.index} ({s.family} on {s.target}): "
              f"{s.detail}" for s in report.scenarios if not s.ok]
    lines += [f"  FAILED: {name}: {check.shown}"
              for name, check in report.checks.items() if not check.ok]
    lines += [f"  FAILED: {family} fired more often than the incident "
              "log records it" for family in report.untallied]
    lines.append("")
    if report.ok:
        verdict = f"PASS — {plugin.guarantee}"
    elif report.injected < report.faults:
        verdict = (f"FAIL — only {report.injected}/{report.faults} "
                   f"faults fired")
    else:
        verdict = "FAIL — resilience guarantee violated"
    lines.append("  verdict: " + verdict)
    return "\n".join(lines)
