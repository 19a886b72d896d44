"""``repro.obs`` — zero-dependency observability for the pipeline.

Three facilities, shared by every layer of the system (translator,
scheduler, CCA mapper, VM runtime/guard, translation cache, service):

* **Spans** (:mod:`repro.obs.trace`): ``with obs.span("priority_calc",
  component="translator", meter=meter, loop=...)`` — nested, timed,
  with exact per-phase meter-unit attribution, exported as JSONL in
  the incident-log envelope.  Off by default, near-zero overhead,
  enabled by ``REPRO_TRACE`` / ``--trace`` / :func:`collect`.
* **Metrics** (:mod:`repro.obs.metrics`): a process-global registry of
  counters, gauges and histograms, read as snapshots or as the delta
  since one.
* **Stats** (:mod:`repro.obs.stats`, :mod:`repro.obs.schema`): trace
  summarisation and strict schema validation behind ``python -m repro
  trace <figure>`` and ``python -m repro stats``.

This package imports nothing from the rest of ``repro`` (stdlib only),
so any subsystem may instrument itself without import cycles.
Instrumentation is observational by contract: figure text is
byte-identical whether tracing is on or off.
"""

from __future__ import annotations

from typing import Any

from repro.obs import metrics as _metrics
from repro.obs.trace import (
    METRICS_KIND,
    NULL_SPAN,
    SPAN_KIND,
    Span,
    SpanLog,
    TRACE_ENV,
    Tracer,
    collect,
    iter_trace,
    reset_tracing,
    span,
    start_trace,
    stop_trace,
    tracer,
    tracing_active,
    write_metrics_record,
)

MetricsRegistry = _metrics.MetricsRegistry
metrics = _metrics.registry


def inc(name: str, amount=1) -> None:
    """Increment counter *name* in the process-global registry."""
    _metrics.registry().inc(name, amount)


def inc_many(increments) -> None:
    """Apply ``(name, amount)`` counter increments under one lock."""
    _metrics.registry().inc_many(increments)


def observe(name: str, value) -> None:
    """Record one *value* occurrence in histogram *name*."""
    _metrics.registry().observe(name, value)


def ms_bucket(elapsed_ms: float) -> int:
    """The power-of-two millisecond bucket of a duration.

    The least power of two at or above *elapsed_ms*, from 1 (sub-ms
    work) up to ``2**20``: a histogram observed through it keeps at
    most 21 keys however many distinct durations it sees.
    """
    bucket = 1
    while bucket < elapsed_ms and bucket < 1 << 20:
        bucket <<= 1
    return bucket


def set_gauge(name: str, value) -> None:
    """Set gauge *name* (process-local; never part of a delta)."""
    _metrics.registry().set_gauge(name, value)


def metrics_snapshot() -> dict[str, Any]:
    return _metrics.registry().snapshot()


def metrics_delta(before: dict[str, Any]) -> dict[str, Any]:
    return _metrics.registry().delta(before)


def reset_metrics() -> None:
    _metrics.registry().reset()


__all__ = [
    "METRICS_KIND", "MetricsRegistry", "NULL_SPAN", "SPAN_KIND", "Span",
    "SpanLog", "TRACE_ENV", "Tracer", "collect", "inc", "inc_many",
    "iter_trace", "metrics", "metrics_delta",
    "metrics_snapshot", "observe", "reset_metrics", "reset_tracing",
    "set_gauge", "span", "start_trace", "stop_trace", "tracer",
    "tracing_active", "write_metrics_record",
]
