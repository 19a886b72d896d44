"""Span-based structured tracing with JSONL export.

A **span** is one timed region of the pipeline — ``obs.span
("priority_calc", component="translator", loop=...)`` — carrying
wall-clock duration, arbitrary attributes, and (when a
:class:`~repro.vm.costmodel.TranslationMeter` is attached) the exact
per-phase work units the region charged.  Spans nest: a per-process
stack links each span to its parent, so a trace reconstructs the whole
call tree (translate -> front_end/cca_map/schedule/regalloc).

Tracing is **off by default** with near-zero overhead: with no sink
configured :func:`span` returns a shared no-op context manager (one
attribute read and one falsy check per call site) and nothing is
allocated or written.  It activates through

* ``REPRO_TRACE=<path>`` in the environment (read at import, inherited
  by child processes such as cluster shards so their spans append to
  the same file), or
* :func:`start_trace` / the ``--trace`` CLI flag, which also export
  the environment variable for child processes, or
* :func:`collect`, which captures spans into an in-process list for
  the duration of a block — the profiling hook ``fig8_translation``
  uses to consume span data without any file I/O.

Trace records share the envelope of the PR-3 incident log
(:mod:`repro.resilience.incidents`) — ``{"seq", "ts", "kind",
"component", "message", "details"}``, one JSON object per line,
``O_APPEND`` whole-line writes — so one JSONL file can interleave
spans, metrics dumps and incident records, and the same lenient reader
parses them all.  The full schema lives in :mod:`repro.obs.schema`.
Sink I/O failures are swallowed: observability must never fail an
experiment, let alone change a figure.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Iterator, Optional

#: Environment variable naming the JSONL trace sink; inherited by
#: child processes (cluster shards) so a whole run traces into one file.
TRACE_ENV = "REPRO_TRACE"

SPAN_KIND = "span"
METRICS_KIND = "metrics"


class _NullSpan:
    """Shared no-op span returned whenever tracing is inactive."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **details: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


class Span:
    """One live traced region; use as a context manager."""

    __slots__ = ("name", "component", "attrs", "units", "instructions",
                 "span_id", "parent_id", "_tracer", "_meter",
                 "_units_before", "_ts", "_t0")

    def __init__(self, tracer: "Tracer", name: str, component: str,
                 meter, attrs: dict[str, Any]) -> None:
        self.name = name
        self.component = component
        self.attrs = attrs
        self.units: Optional[dict[str, int]] = None
        self.instructions: Optional[dict[str, float]] = None
        self.span_id: int = -1
        self.parent_id: Optional[int] = None
        self._tracer = tracer
        self._meter = meter
        self._units_before: dict[str, int] = {}

    def __bool__(self) -> bool:
        return True

    def set(self, **details: Any) -> None:
        """Attach data discovered mid-span.

        ``units=`` and ``instructions=`` land in the record's dedicated
        per-phase fields; everything else updates ``attrs``.
        """
        units = details.pop("units", None)
        if units is not None:
            self.units = dict(units)
        instructions = details.pop("instructions", None)
        if instructions is not None:
            self.instructions = dict(instructions)
        self.attrs.update(details)

    def __enter__(self) -> "Span":
        if self._meter is not None:
            self._units_before = dict(self._meter.units)
        self._ts = time.time()
        self._t0 = time.perf_counter()
        self._tracer._enter(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur_s = time.perf_counter() - self._t0
        self._tracer._exit(self)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        if self._meter is not None and self.units is None:
            before = self._units_before
            delta = {phase: n - before.get(phase, 0)
                     for phase, n in self._meter.units.items()
                     if n != before.get(phase, 0)}
            if delta:
                self.units = delta
        self._tracer._emit_span(self, dur_s)
        return False


class SpanLog:
    """In-memory record collector handed out by :func:`collect`."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []

    def append(self, record: dict[str, Any]) -> None:
        self.records.append(record)

    def spans(self, name: Optional[str] = None,
              component: Optional[str] = None) -> list[dict[str, Any]]:
        out = []
        for record in self.records:
            if record["kind"] != SPAN_KIND:
                continue
            details = record["details"]
            if name is not None and details["name"] != name:
                continue
            if component is not None and record["component"] != component:
                continue
            out.append(record)
        return out

    def latest(self, name: Optional[str] = None,
               component: Optional[str] = None
               ) -> Optional[dict[str, Any]]:
        matches = self.spans(name=name, component=component)
        return matches[-1] if matches else None

    def __len__(self) -> int:
        return len(self.records)


class Tracer:
    """Process-wide span recorder: JSONL sink + in-memory collectors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seq = 0
        self._next_span_id = 0
        self._stack = threading.local()
        self._collectors: list[SpanLog] = []
        self.sink_path: Optional[str] = os.environ.get(TRACE_ENV) or None
        self.emitted = 0

    @property
    def active(self) -> bool:
        return self.sink_path is not None or bool(self._collectors)

    # -- span construction -------------------------------------------------

    def span(self, name: str, component: str = "", meter=None,
             **attrs: Any):
        if not self.active:
            return NULL_SPAN
        return Span(self, name, component, meter, attrs)

    def _enter(self, span: Span) -> None:
        stack = getattr(self._stack, "spans", None)
        if stack is None:
            stack = self._stack.spans = []
        span.parent_id = stack[-1].span_id if stack else None
        with self._lock:
            span.span_id = self._next_span_id
            self._next_span_id += 1
        stack.append(span)

    def _exit(self, span: Span) -> None:
        stack = getattr(self._stack, "spans", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # tolerate out-of-order exits
            stack.remove(span)

    # -- record emission ---------------------------------------------------

    def _emit_span(self, span: Span, dur_s: float) -> None:
        details: dict[str, Any] = {
            "name": span.name,
            "pid": os.getpid(),
            "span": span.span_id,
            "parent": span.parent_id,
            "dur_s": dur_s,
            "attrs": span.attrs,
        }
        if span.units is not None:
            details["units"] = span.units
        if span.instructions is not None:
            details["instructions"] = span.instructions
        self.emit(SPAN_KIND, span.component or "obs",
                  f"span {span.name}", details, ts=span._ts)

    def emit(self, kind: str, component: str, message: str,
             details: dict[str, Any], ts: Optional[float] = None) -> None:
        """Append one record to every collector and the sink."""
        with self._lock:
            seq = self._seq
            self._seq += 1
            self.emitted += 1
        record = {"seq": seq,
                  "ts": time.time() if ts is None else ts,
                  "kind": kind, "component": component,
                  "message": message, "details": details}
        for collector in list(self._collectors):
            collector.append(record)
        path = self.sink_path
        if path:
            try:
                directory = os.path.dirname(path)
                if directory:
                    os.makedirs(directory, exist_ok=True)
                with open(path, "a") as handle:
                    handle.write(json.dumps(record, sort_keys=True,
                                            default=repr) + "\n")
            except OSError:
                pass  # observability must never fail the experiment

    # -- sink / collector management ---------------------------------------

    def configure_sink(self, path: Optional[str],
                       export_env: bool = True,
                       truncate: bool = False) -> None:
        if path and truncate:
            try:
                directory = os.path.dirname(path)
                if directory:
                    os.makedirs(directory, exist_ok=True)
                open(path, "w").close()
            except OSError:
                pass
        self.sink_path = path
        if export_env:
            if path:
                os.environ[TRACE_ENV] = path
            else:
                os.environ.pop(TRACE_ENV, None)

    def push_collector(self, log: SpanLog) -> None:
        self._collectors.append(log)

    def pop_collector(self, log: SpanLog) -> None:
        if log in self._collectors:
            self._collectors.remove(log)


_tracer: Optional[Tracer] = None


def tracer() -> Tracer:
    """The process-wide tracer (created on first use)."""
    global _tracer
    if _tracer is None:
        _tracer = Tracer()
    return _tracer


def span(name: str, component: str = "", meter=None, **attrs: Any):
    """A span context manager; the shared no-op when tracing is off.

    The returned object is *falsy* when tracing is inactive, so call
    sites can guard expensive ``set(...)`` payload construction with
    ``if sp:``.
    """
    t = _tracer
    if t is None:
        if not os.environ.get(TRACE_ENV):
            return NULL_SPAN
        t = tracer()
    return t.span(name, component=component, meter=meter, **attrs)


def tracing_active() -> bool:
    t = _tracer
    if t is None:
        return bool(os.environ.get(TRACE_ENV))
    return t.active


def start_trace(path: str, export_env: bool = True,
                truncate: bool = True) -> None:
    """Start writing trace records to *path* (truncating by default).

    With ``export_env`` the path is placed in ``REPRO_TRACE`` so child
    processes append their spans to the same file.
    """
    tracer().configure_sink(path, export_env=export_env,
                            truncate=truncate)


def stop_trace() -> None:
    """Detach the trace sink and clear the child environment hint."""
    tracer().configure_sink(None, export_env=True)


class collect:
    """Context manager capturing every record emitted in its block.

    Activates tracing for the duration even when no file sink is
    configured — the in-process profiling hook.  Yields a
    :class:`SpanLog`.
    """

    def __init__(self) -> None:
        self.log = SpanLog()

    def __enter__(self) -> SpanLog:
        tracer().push_collector(self.log)
        return self.log

    def __exit__(self, *exc) -> bool:
        tracer().pop_collector(self.log)
        return False


def write_metrics_record() -> None:
    """Emit the metrics-registry snapshot as one trace record.

    The ``trace`` CLI command calls this exactly once, after the traced
    figure completes, so a trace file carries its own metrics dump for
    ``python -m repro stats``.
    """
    from repro.obs.metrics import registry
    snap = registry().snapshot()
    details = {
        "pid": os.getpid(),
        "counters": snap["counters"],
        "gauges": snap["gauges"],
        "histograms": {name: {str(value): n
                              for value, n in bucket.items()}
                       for name, bucket in snap["histograms"].items()},
    }
    tracer().emit(METRICS_KIND, "obs", "process metrics snapshot",
                  details)


def reset_tracing() -> None:
    """Drop the tracer and clear the env hint (test isolation)."""
    global _tracer
    _tracer = None
    os.environ.pop(TRACE_ENV, None)


def iter_trace(path: str) -> Iterator[dict[str, Any]]:
    """Lenient JSONL reader: skips blank and torn lines (a crash
    mid-append leaves at most one unparseable trailing line)."""
    try:
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except json.JSONDecodeError:
                    continue
    except OSError:
        return
