"""Measurement loop, layer wrappers and metric assembly.

One run of a workload:

1. set up ``SETUP_REPEATS`` times from cleared caches (``setup_s`` is
   the median) and keep the last set-up;
2. run one untimed warm-up round, then rounds (a cold pass and a warm
   pass each) until ``seconds`` of passes have been measured, with
   tracing off;
3. check each round's outputs against references computed outside
   the timed region, and compute the exact modelled metrics;
4. with ``trace``: tear down, install the layer wrappers, then set up
   and run one round again under the tracer.  Per-layer numbers are
   totals over that traced set-up plus round; the ratio of its wall
   time to the untraced median set-up plus round is
   ``trace_overhead_ratio``.

Every reported time is calibrated to the reference machine speed (see
``workloads.speed_factor``); counts and ratios are as counted.
``unattributed_s`` is the time inside the driving threads' root spans
that no layer claims: the benchmark's own loop and checks, and program
code between the wrapped entry points.  Calibrations run outside the
roots.  The metric names and units are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time
from typing import Optional

from repro import obs, perf
from repro.accelerator.machine import LoopAccelerator
from repro.cpu.pipeline import InOrderPipeline
from repro.perf.transcache import TranslationCache
from repro.service.admission import AdmissionController
from repro.service.client import LoopClient
from repro.vm.runtime import VirtualMachine

from tracer import NULL, Tracer
from workloads import REPO_ROOT, Recorder, speed_factor

SETUP_REPEATS = 3
MIN_ROUNDS = 2

#: (span name, module, function) traced wherever a caller binds it.
FUNCTIONS = (
    ("workloads", "repro.workloads.suite", "media_fp_benchmarks"),
    ("workloads", "repro.workloads.suite", "fissioned"),
    ("workloads", "repro.workloads.generator", "generate_loop"),
    ("vm.translator", "repro.vm.translator", "translate_loop"),
    ("scheduler", "repro.scheduler.sms", "modulo_schedule"),
    ("cca", "repro.cca.mapper", "map_cca"),
    ("perf.transcache", "repro.perf.digest", "loop_digest"),
    ("accelerator.jit.compile", "repro.accelerator.jit", "specialize"),
    ("experiments", "repro.api", "run_figure"),
    ("service.wire", "repro.service.wire", "pack_body"),
    ("service.wire", "repro.service.wire", "unpack_body"),
    ("service.wire", "repro.service.wire", "decode_payload"),
    ("service.wire", "repro.service.wire", "decode_frame"),
)

#: (span name, class, method).
METHODS = (
    ("perf.transcache.get", TranslationCache, "get"),
    ("cpu", InOrderPipeline, "loop_cycles"),
    ("accelerator.estimate", LoopAccelerator, "estimate"),
    ("accelerator.event", LoopAccelerator, "invoke"),
    ("vm.runtime", VirtualMachine, "run_loop"),
    ("vm.runtime", VirtualMachine, "run_benchmark"),
    ("service.client", LoopClient, "_call"),
)


def _count_fallback(tracer: Tracer, result) -> None:
    if result is None:
        tracer.count("accelerator.jit.fallbacks", 1)


def _count_rejected(tracer: Tracer, decision) -> None:
    if not decision.admitted:
        tracer.count("service.admission.rejected", 1)


def _count_bytes(tracer: Tracer, frame: bytes) -> None:
    tracer.count("service.wire.bytes", len(frame))


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points (see :meth:`Tracer.restore`)."""
    for name, module, attr in FUNCTIONS:
        tracer.wrap_function(name, module, attr)
    tracer.wrap_function("accelerator.jit", "repro.accelerator.jit",
                         "invoke_specialized", _count_fallback)
    tracer.wrap_function("service.wire", "repro.service.wire",
                         "encode_frame", _count_bytes)
    for name, cls, attr in METHODS:
        tracer.wrap_method(name, cls, attr)
    tracer.wrap_method("service.admission", AdmissionController, "admit",
                       _count_rejected)


with open(os.path.join(REPO_ROOT, "BENCHMARK.json"),
          encoding="utf-8") as _handle:
    _SPEC = json.load(_handle)
#: End-to-end and per-layer metric name -> unit, in report order.
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

#: Largest share by which layer self times plus ``unattributed_s`` may
#: miss the driving threads' measured time inside their root spans.
RECONCILE_TOLERANCE = 0.01


def _counters() -> dict:
    counters = obs.metrics_snapshot()["counters"]
    jit_stats = perf.cache_stats()["specialized"]
    return {
        "core_runs": counters.get("translator.core_runs", 0),
        "tc_hits": counters.get("transcache.hits", 0),
        "tc_misses": counters.get("transcache.misses", 0),
        "jit_hits": jit_stats["hits"],
        "jit_misses": jit_stats["compiled"] + jit_stats["unsupported"],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, before: dict, after: dict,
                  retries: int, driven_s: float) -> dict:
    """Per-layer values from the traced region's spans and counters."""
    self_s, calls = tracer.self_times()

    def own(prefix: str) -> float:
        return sum(seconds for name, seconds in self_s.items()
                   if name == prefix or name.startswith(prefix + "."))

    delta = {key: after[key] - before[key] for key in before}
    recon = tracer.reconcile(driven_s)
    return {
        "workloads.self_s": own("workloads"),
        "vm.translator.calls": calls.get("vm.translator", 0),
        "vm.translator.self_s": own("vm.translator"),
        "vm.translator.core_runs": delta["core_runs"],
        "scheduler.calls": calls.get("scheduler", 0),
        "scheduler.self_s": own("scheduler"),
        "cca.self_s": own("cca"),
        "perf.transcache.lookups": calls.get("perf.transcache.get", 0),
        "perf.transcache.self_s": own("perf.transcache"),
        "perf.transcache.hit_ratio": _ratio(
            delta["tc_hits"], delta["tc_hits"] + delta["tc_misses"]),
        "cpu.self_s": own("cpu"),
        "accelerator.estimate.self_s": own("accelerator.estimate"),
        "accelerator.jit.calls": calls.get("accelerator.jit", 0),
        "accelerator.jit.self_s": own("accelerator.jit"),
        "accelerator.jit.compile_s": own("accelerator.jit.compile"),
        "accelerator.jit.fallbacks":
            tracer.counts.get("accelerator.jit.fallbacks", 0),
        "accelerator.jit.hit_ratio": _ratio(
            delta["jit_hits"], delta["jit_hits"] + delta["jit_misses"]),
        "accelerator.event.calls": calls.get("accelerator.event", 0),
        "accelerator.event.self_s": own("accelerator.event"),
        "vm.runtime.self_s": own("vm.runtime"),
        "experiments.self_s": own("experiments"),
        "service.wire.self_s": own("service.wire"),
        "service.wire.bytes": tracer.counts.get("service.wire.bytes", 0),
        "service.admission.calls": calls.get("service.admission", 0),
        "service.admission.rejected":
            tracer.counts.get("service.admission.rejected", 0),
        "service.client.wait_s": own("service.client"),
        "service.client.retries": retries,
        "unattributed_s": recon["unattributed_s"],
        "trace_reconcile_error": recon["reconcile_error"],
    }


def _client_retries(workload) -> int:
    return sum(client.stats.retries + client.stats.admission_retries
               for client in getattr(workload, "clients", []))


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _timed_setup(workload, tracer=NULL) -> tuple[float, float]:
    """One set-up from cleared caches, in calibrated and raw seconds."""
    perf.clear_caches()
    before = speed_factor()
    started = time.perf_counter()
    with tracer.root():
        workload.setup()
    elapsed = time.perf_counter() - started
    return elapsed * (before + speed_factor()) / 2, elapsed


def run(workload, seconds: float, trace: bool = False,
        trace_path: Optional[str] = None) -> dict:
    """Measure *workload*; returns the result object the CLI prints."""
    setups = []
    for index in range(SETUP_REPEATS):
        setups.append(_timed_setup(workload)[0])
        if index < SETUP_REPEATS - 1:
            workload.teardown()
    warmup, rec = Recorder(), Recorder()
    try:
        # One untimed round first, so one-time process costs (lazy
        # imports, allocator growth) do not land in a measured round.
        workload.round(warmup)
        workload.verify(warmup)
        started = time.perf_counter()
        while len(rec.cold_s) < MIN_ROUNDS or \
                time.perf_counter() - started < seconds:
            # Start every round from the same collector state.
            gc.collect()
            workload.round(rec)
            workload.verify(rec)
            if len(rec.cold_s) == MIN_ROUNDS:
                # Peak memory over a fixed amount of work: caches that
                # grow with every round must not make it depend on how
                # many rounds the host's speed allowed.
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
        sim = workload.sim_metrics()
    finally:
        workload.teardown()
    measured = sum(rec.cold_s) + sum(rec.warm_s)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(rec.cold_s),
        "warm_wall_s": statistics.median(rec.warm_s),
        "latency_p50_ms": _percentile(rec.latencies_ms, 50),
        "latency_p99_ms": _percentile(rec.latencies_ms, 99),
        "throughput_rps": rec.attempted / measured,
        "peak_rss_mb": peak_rss_mb,
        **sim,
    }
    units = END_TO_END_UNITS
    attempted = warmup.attempted + rec.attempted
    failed = warmup.failed + rec.failed
    if trace:
        untraced = statistics.median(setups) + statistics.median(
            [c + w for c, w in zip(rec.cold_s, rec.warm_s)])
        traced_rec = Recorder()
        layers, traced_setup = traced_round(workload, traced_rec,
                                            trace_path)
        traced = traced_setup + traced_rec.cold_s[0] + traced_rec.warm_s[0]
        layers["trace_overhead_ratio"] = traced / untraced
        attempted += traced_rec.attempted
        failed += traced_rec.failed
        layers["failed_ratio"] = failed / attempted
        if layers["trace_reconcile_error"] > RECONCILE_TOLERANCE:
            raise RuntimeError(
                f"layer self times miss the measured driving time by "
                f"{layers['trace_reconcile_error']:.2%}")
        metrics, units = layers, LAYER_UNITS
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match "
                           f"BENCHMARK.json {sorted(units)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def traced_round(workload, rec: Recorder,
                 trace_path: Optional[str] = None) -> tuple[dict, float]:
    """One set-up plus one round under the layer wrappers.

    Returns the per-layer metrics, with seconds calibrated by the
    factor measured around the traced region, and the set-up time.
    ``traced_wall_s`` is the traced set-up plus the round's passes.
    """
    tracer = Tracer()
    install(tracer)
    before = _counters()
    try:
        factor = speed_factor()
        setup_s, setup_raw = _timed_setup(workload, tracer)
        workload.round(rec, tracer)
        factor = (factor + speed_factor()) / 2
        after = _counters()
        retries = _client_retries(workload)
    finally:
        tracer.restore()
    try:
        workload.verify(rec)
    finally:
        workload.teardown()
    if trace_path:
        tracer.write(trace_path)
    layers = layer_metrics(tracer, before, after, retries,
                           driven_s=setup_raw + rec.driven_s)
    layers["traced_wall_s"] = setup_raw + rec.raw_s
    for name, unit in LAYER_UNITS.items():
        if unit == "s" and name in layers:
            layers[name] *= factor
    return layers, setup_s
