"""Process-global metrics registry: counters, gauges, histograms.

The registry is the numeric half of the observability layer
(:mod:`repro.obs`): subsystems increment named **counters** (cache
hits, guard deoptimizations, translations performed), set **gauges**
(instantaneous values, process-local by definition), and feed
**histograms** (exact value -> occurrence count maps, e.g. list-
scheduling attempts keyed by candidate II).

Metrics are always on — one dict update under a lock per event, cheap
enough for every instrumented path — and never influence figure text;
they are read out via :func:`MetricsRegistry.snapshot` (the JSON-ready
dump the ``trace`` command embeds) and merged across worker
processes with :meth:`delta`/:meth:`merge`:

* a worker snapshots the registry before running an item, computes the
  increment afterwards, and ships that delta back with the result;
* the parent folds deltas in **item order** (see
  :func:`repro.perf.parallel.parallel_map`), and because counter and
  histogram merges are pure additions the aggregate is identical for
  any job count or completion order — the determinism the figure
  pipeline demands of every shared accounting structure.

Gauges are excluded from cross-process merging (a last-written
instantaneous value has no meaningful sum); they stay process-local.
"""

from __future__ import annotations

import threading
from typing import Any, Optional, Union

Number = Union[int, float]


class MetricsRegistry:
    """Thread-safe counters/gauges/histograms with additive merging."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: dict[str, Number] = {}
        self.gauges: dict[str, Number] = {}
        #: name -> {observed value -> occurrence count}.  Exact values
        #: are kept (not pre-bucketed ranges) so merges stay lossless
        #: and deterministic; summary statistics derive on demand.
        self.histograms: dict[str, dict[Number, int]] = {}

    # -- recording ---------------------------------------------------------

    def inc(self, name: str, amount: Number = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: Number) -> None:
        with self._lock:
            self.gauges[name] = value

    def observe(self, name: str, value: Number) -> None:
        with self._lock:
            bucket = self.histograms.setdefault(name, {})
            bucket[value] = bucket.get(value, 0) + 1

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Deep copy of the current state (JSON-serialisable shape)."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "histograms": {name: dict(bucket)
                               for name, bucket in self.histograms.items()},
            }

    def summary(self, name: str) -> Optional[dict[str, Number]]:
        """count/sum/min/max/mean of one histogram (None if absent)."""
        with self._lock:
            bucket = self.histograms.get(name)
            if not bucket:
                return None
            count = sum(bucket.values())
            total = sum(value * n for value, n in bucket.items())
            return {"count": count, "sum": total,
                    "min": min(bucket), "max": max(bucket),
                    "mean": total / count}

    # -- cross-process merging --------------------------------------------

    def delta(self, before: dict[str, Any]) -> dict[str, Any]:
        """Counter/histogram increments since *before* (a snapshot).

        Gauges are deliberately absent — they do not merge additively.
        Zero entries are dropped so an idle worker ships an empty dict.
        """
        now = self.snapshot()
        before_counters = before.get("counters", {})
        counters = {name: value - before_counters.get(name, 0)
                    for name, value in now["counters"].items()
                    if value != before_counters.get(name, 0)}
        histograms: dict[str, dict[Number, int]] = {}
        before_hists = before.get("histograms", {})
        for name, bucket in now["histograms"].items():
            base = before_hists.get(name, {})
            diff = {value: n - base.get(value, 0)
                    for value, n in bucket.items()
                    if n != base.get(value, 0)}
            if diff:
                histograms[name] = diff
        return {"counters": counters, "histograms": histograms}

    def merge(self, delta: dict[str, Any]) -> None:
        """Fold a :meth:`delta` into this registry (pure addition)."""
        with self._lock:
            for name in sorted(delta.get("counters", {})):
                amount = delta["counters"][name]
                self.counters[name] = self.counters.get(name, 0) + amount
            for name in sorted(delta.get("histograms", {})):
                bucket = self.histograms.setdefault(name, {})
                for value, n in sorted(delta["histograms"][name].items()):
                    bucket[value] = bucket.get(value, 0) + n

    def reset(self) -> None:
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()


_registry: Optional[MetricsRegistry] = None


def registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    global _registry
    if _registry is None:
        _registry = MetricsRegistry()
    return _registry


def empty_delta() -> dict[str, Any]:
    """The zero increment (what a parent-degraded task reports)."""
    return {"counters": {}, "histograms": {}}
