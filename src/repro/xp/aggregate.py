"""Statistical aggregation across repeated run records.

``--repeat N`` turns every metric into a sample list; this module
collapses them to median / min / max / quartiles / IQR with Tukey
outlier flagging (outside ``[q1 - 1.5*IQR, q3 + 1.5*IQR]``).  The
degenerate ``repeat=1`` case is well-defined: median == min == max ==
the sample, IQR 0, nothing flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of *values* (q in [0, 1])."""
    if not values:
        return 0.0
    ranked = sorted(values)
    if len(ranked) == 1:
        return ranked[0]
    position = q * (len(ranked) - 1)
    low = int(position)
    high = min(low + 1, len(ranked) - 1)
    weight = position - low
    return ranked[low] * (1.0 - weight) + ranked[high] * weight


@dataclass
class MetricStats:
    """Summary of one metric's samples across repeats."""

    n: int
    median: float
    lo: float
    hi: float
    q1: float
    q3: float
    #: Samples outside the Tukey fences — noisy repeats worth a look.
    outliers: int = 0

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


def summarize(values: list[float]) -> Optional[MetricStats]:
    """Median/quartile/outlier summary of *values* (None when empty)."""
    samples = [float(v) for v in values if v is not None]
    if not samples:
        return None
    q1 = quantile(samples, 0.25)
    q3 = quantile(samples, 0.75)
    fence = 1.5 * (q3 - q1)
    outliers = sum(1 for v in samples
                   if v < q1 - fence or v > q3 + fence)
    return MetricStats(n=len(samples), median=quantile(samples, 0.5),
                       lo=min(samples), hi=max(samples), q1=q1, q3=q3,
                       outliers=outliers)


@dataclass
class Aggregate:
    """Every row/metric of one config's records, summarised."""

    config_name: str
    config_digest: str
    kind: str
    records: int
    #: row name -> metric name -> stats, in first-seen row order.
    metrics: dict = field(default_factory=dict)
    #: row name -> True only if every record's verdict passed.
    verdicts: dict = field(default_factory=dict)
    git_shas: list = field(default_factory=list)
    machines: list = field(default_factory=list)
    started_utc: Optional[str] = None
    finished_utc: Optional[str] = None
    #: Last record's machine stamp (what a baseline is matched on).
    machine: dict = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return all(self.verdicts.values())


def _row_verdict(row: dict) -> Optional[bool]:
    if "identical" in row:
        return bool(row["identical"])
    if "ok" in row:
        return bool(row["ok"])
    return None


def aggregate_records(records: list[dict]) -> Aggregate:
    """Collapse *records* (one config) into an :class:`Aggregate`.

    Raises ``ValueError`` on an empty list or on records from more
    than one config digest — mixing design points into one summary
    would silently average apples with oranges.
    """
    if not records:
        raise ValueError("no records to aggregate")
    digests = {r.get("config_digest") for r in records}
    if len(digests) > 1:
        raise ValueError(f"records span {len(digests)} config digests; "
                         f"aggregate one design point at a time")
    samples: dict[str, dict[str, list[float]]] = {}
    verdicts: dict[str, bool] = {}
    shas: list[str] = []
    machines: list[str] = []
    for record in records:
        sha = record.get("git_sha")
        if sha and sha not in shas:
            shas.append(sha)
        stamp = record.get("machine") or {}
        host = f"{stamp.get('host', '?')}/{stamp.get('platform', '?')}"
        if host not in machines:
            machines.append(host)
        for row in record.get("rows", []):
            name = row.get("name") or row.get("axis") or "?"
            per_row = samples.setdefault(name, {})
            for metric, value in row.items():
                if metric in ("name", "axis") or isinstance(value, bool):
                    continue
                if isinstance(value, (int, float)):
                    per_row.setdefault(metric, []).append(float(value))
            verdict = _row_verdict(row)
            if verdict is not None:
                verdicts[name] = verdicts.get(name, True) and verdict
    last = records[-1]
    return Aggregate(
        config_name=last.get("config_name", "?"),
        config_digest=last.get("config_digest", "?"),
        kind=last.get("kind", "figures"),
        records=len(records),
        metrics={name: {metric: summarize(values)
                        for metric, values in per_row.items()
                        if summarize(values) is not None}
                 for name, per_row in samples.items()},
        verdicts=verdicts,
        git_shas=shas,
        machines=machines,
        started_utc=records[0].get("started_utc"),
        finished_utc=last.get("started_utc"),
        machine=dict(last.get("machine") or {}),
    )


def format_aggregate(agg: Aggregate) -> str:
    """Human report: median/IQR/min/max per row metric + provenance."""
    from repro.experiments.common import format_table
    rows = []
    for name, metrics in agg.metrics.items():
        for metric, stats in metrics.items():
            rows.append((
                name, metric, stats.n,
                f"{stats.median:.4f}", f"{stats.iqr:.4f}",
                f"{stats.lo:.4f}", f"{stats.hi:.4f}",
                stats.outliers or "-",
            ))
    table = format_table(
        ("figure", "metric", "n", "median", "IQR", "min", "max",
         "outliers"), rows,
        title=f"xp report: {agg.config_name} "
              f"({agg.records} record(s), digest "
              f"{agg.config_digest[:8]})")
    lines = [table]
    if agg.verdicts:
        failing = sorted(n for n, ok in agg.verdicts.items() if not ok)
        lines.append("verdicts: " + ("all passed" if not failing else
                                     "FAILED: " + ", ".join(failing)))
    lines.append(f"provenance: git {', '.join(agg.git_shas) or '?'} on "
                 f"{', '.join(agg.machines) or '?'}; "
                 f"{agg.started_utc} .. {agg.finished_utc}")
    return "\n".join(lines)
