"""The regression gate: aggregated run vs. the committed baseline.

Every gated metric is checked — cached/specialized speedups for
figure configs,
throughput and latency percentiles for service configs — plus the
identity verdicts, which *always* gate: a figure whose text diverged
across engine tiers is a correctness bug, whatever the timings say.

Timing comparisons are honest about provenance: when the run's
machine stamp does not match the baseline's, timing regressions are
downgraded to warnings (cross-machine wall clocks prove nothing), and
a missing baseline is a warning unless ``--strict`` — CI runs strict
against a committed baseline from a known machine class.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

from repro.xp import store
from repro.xp.aggregate import Aggregate

#: ``xp compare`` fails on a gated metric more than this far past the
#: committed baseline's.
DEFAULT_THRESHOLD = 0.10

#: metric -> True when larger is better.  Only metrics listed here
#: gate; raw wall clocks are provenance, not contracts.
GATED_METRICS = {
    "speedup_warm": True,
    "speedup_specialized": True,
    "throughput_rps": True,
    "p50_ms": False,
    "p95_ms": False,
    "p99_ms": False,
}


@dataclass
class CompareResult:
    """What the gate found: gating problems and advisory warnings."""

    config_name: str
    problems: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    #: (row, metric) pairs actually compared against the baseline.
    checked: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def format(self) -> str:
        lines = [f"xp compare: {self.config_name} "
                 f"({len(self.checked)} metric(s) checked)"]
        for message in self.warnings:
            lines.append(f"  warning: {message}")
        for message in self.problems:
            lines.append(f"  REGRESSION: {message}")
        if self.ok:
            lines.append("  ok: no regressions")
        return "\n".join(lines)


def _machine_matches(current: dict, baseline: dict) -> bool:
    """Same machine class: host + platform + cpu count agree."""
    if not current or not baseline:
        return False
    return all(current.get(key) == baseline.get(key)
               for key in ("host", "platform", "cpus"))


def compare_aggregate(agg: Aggregate, baseline: Optional[dict],
                      threshold: float = DEFAULT_THRESHOLD,
                      strict: bool = False) -> CompareResult:
    """Gate *agg* against a committed *baseline* payload.

    Identity failures are always problems.  Timing regressions (gated
    metric medians more than *threshold* past the baseline's) are
    problems on a matching machine, warnings otherwise.  A missing
    baseline, a config-digest mismatch, and partial row overlap are
    warnings — except under *strict*, where no baseline is fatal.
    """
    result = CompareResult(config_name=agg.config_name)
    for name in sorted(agg.verdicts):
        if not agg.verdicts[name]:
            result.problems.append(
                f"{name}: identity verdict failed (figure text / "
                f"service run not consistent)")
    if baseline is None:
        message = (f"no committed baseline for config "
                   f"{agg.config_name!r}; nothing to compare against")
        (result.problems if strict else result.warnings).append(message)
        return result

    if baseline.get("config_digest") not in (None, agg.config_digest):
        result.warnings.append(
            f"baseline was recorded for config digest "
            f"{str(baseline.get('config_digest'))[:8]}, this run is "
            f"{agg.config_digest[:8]}; axes changed since the "
            f"baseline was committed")
    machine_ok = _machine_matches(agg.machine,
                                  baseline.get("machine") or {})
    if not machine_ok:
        result.warnings.append(
            "machine stamp differs from the baseline's; timing "
            "regressions are reported as warnings only")
    timing_sink = result.problems if machine_ok else result.warnings

    baseline_rows = baseline.get("rows") or {}
    current_rows = agg.metrics
    for name in sorted(set(baseline_rows) - set(current_rows)):
        result.warnings.append(
            f"{name}: in the baseline but not measured by this run")
    for name in sorted(set(current_rows) - set(baseline_rows)):
        result.warnings.append(
            f"{name}: measured but absent from the baseline")

    for name in sorted(set(current_rows) & set(baseline_rows)):
        base_metrics = (baseline_rows[name] or {}).get("metrics") or {}
        for metric, higher_better in GATED_METRICS.items():
            stats = current_rows[name].get(metric)
            base = base_metrics.get(metric)
            if stats is None or base is None:
                continue
            try:
                base = float(base)
            except (TypeError, ValueError):
                continue
            if base <= 0:
                continue
            result.checked.append((name, metric))
            current = stats.median
            if higher_better:
                regressed = current < base * (1.0 - threshold)
                drift = 1.0 - current / base
                direction = "below"
            else:
                regressed = current > base * (1.0 + threshold)
                drift = current / base - 1.0
                direction = "above"
            if regressed:
                timing_sink.append(
                    f"{name}: {metric} median {current:.4g} is "
                    f"{drift:.0%} {direction} the committed "
                    f"baseline's {base:.4g} "
                    f"(threshold {threshold:.0%})")
    return result


def baseline_payload(agg: Aggregate) -> dict:
    """The committable baseline document for *agg* (median per metric)."""
    return {
        "schema": store.BASELINE_SCHEMA,
        "config_name": agg.config_name,
        "config_digest": agg.config_digest,
        "kind": agg.kind,
        "created_utc": store.utc_now(),
        "git_sha": agg.git_shas[-1] if agg.git_shas else "unknown",
        "machine": agg.machine,
        "records": agg.records,
        "rows": {
            name: {
                "metrics": {metric: round(stats.median, 6)
                            for metric, stats in metrics.items()},
                "ok": agg.verdicts.get(name, True),
            }
            for name, metrics in agg.metrics.items()
        },
    }


def write_baseline(agg: Aggregate, path: Optional[str] = None,
                   directory: Optional[str] = None,
                   settings=None) -> str:
    """Write *agg* as the committed baseline for its config; returns
    the path written."""
    target = path or store.baseline_path(agg.config_name, directory,
                                         settings)
    os.makedirs(os.path.dirname(target) or ".", exist_ok=True)
    with open(target, "w") as handle:
        json.dump(baseline_payload(agg), handle, indent=2,
                  sort_keys=True)
        handle.write("\n")
    return target

