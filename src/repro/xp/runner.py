"""Execute a :class:`~repro.xp.config.Config` and file its records.

This is the only code that times the repo.  :func:`measure_figures`
runs the engine-tier passes for figure configs and
``service.loadgen.measure_service`` drives the worker/shard series
for service configs.  Both yield rows of samples; :func:`run_config`
repeats them ``--repeat N`` times and writes one timestamped record
per repeat into the run store, so every number the repo quotes has
provenance: config digest, git SHA, machine stamp, and the raw
per-repeat samples the aggregates came from.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import obs, perf
from repro.errors import SettingsError
from repro.xp import store
from repro.xp.config import Config, config_digest, validate


def _timed(fn: Callable[[], str], name: str = "",
           mode: str = "") -> tuple[float, str]:
    with obs.span("bench_figure", component="bench", figure=name,
                  mode=mode):
        started = time.perf_counter()
        text = fn()
        return time.perf_counter() - started, text


def baseline_references(directory: Optional[str] = None,
                        settings=None) -> dict[str, float]:
    """Reference wall clocks from the committed ``default`` baseline.

    ``skip_reference`` runs compare the engine passes against these
    medians.  The ``default`` config always runs the reference pass,
    so every number here was measured, never itself borrowed from a
    baseline: stale chains cannot form.  No baseline: empty dict.
    """
    payload = store.load_baseline("default", directory=directory,
                                  settings=settings) or {}
    references: dict[str, float] = {}
    for name, row in (payload.get("rows") or {}).items():
        try:
            references[name] = float(row["metrics"]["reference_s"])
        except (KeyError, TypeError, ValueError):
            continue
    return references


def measure_figures(names: list[str],
                    skip_reference: bool = False,
                    disk_cache: bool = False,
                    top_level: int = 2,
                    registry: Optional[dict] = None,
                    baseline_refs: Optional[dict] = None,
                    progress: Optional[Callable[[str], None]] = None
                    ) -> list[dict]:
    """Time *names* once per engine tier; returns one row per figure.

    The passes: reference (engine 0, cold caches),
    engine cold (level 1, caches cleared), engine warm (level 1, hot),
    specialized warm (level 2 after one warm-up regeneration).
    *top_level* caps the tiers measured (2 = all passes, 1 = stop at
    the cached tier, 0 = reference only).  Each pass runs the whole
    figure list end to end; caches are cleared once at the start of a
    pass, not between figures, so per-figure speedups are an honest
    like-for-like comparison.  The figure *text* must come out
    byte-identical across every pass that ran.
    """
    if registry is None:
        from repro.experiments.figures import benchable_figures
        registry = benchable_figures()
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise KeyError(f"unknown figures: {', '.join(unknown)}; "
                       f"available: {', '.join(sorted(registry))}")

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    reference_times: dict[str, float] = {}
    reference_texts: dict[str, str] = {}
    if baseline_refs is None:
        baseline_refs = {}
    if not skip_reference:
        perf.clear_caches()
        with perf.engine_at(0):
            for name in names:
                note(f"{name}: reference (engine off)")
                reference_times[name], reference_texts[name] = \
                    _timed(registry[name], name, "reference")

    engine_times: dict[str, float] = {}
    engine_texts: dict[str, str] = {}
    warm_times: dict[str, float] = {}
    warm_texts: dict[str, str] = {}
    if top_level >= 1:
        perf.clear_caches()
        if disk_cache:
            perf.enable_disk_cache()
        with perf.engine_at(1):
            for name in names:
                note(f"{name}: engine cold")
                engine_times[name], engine_texts[name] = \
                    _timed(registry[name], name, "cold")
            for name in names:
                note(f"{name}: engine warm")
                warm_times[name], warm_texts[name] = \
                    _timed(registry[name], name, "warm")

    specialized_times: dict[str, float] = {}
    specialized_texts: dict[str, str] = {}
    if top_level >= 2:
        with perf.engine_at(2):
            for name in names:
                # One untimed regeneration populates the specialized
                # code cache; the timed run is the tier's steady-state
                # cost.
                note(f"{name}: specialized warm-up + timed")
                registry[name]()
                specialized_times[name], specialized_texts[name] = \
                    _timed(registry[name], name, "specialized")

    rows: list[dict] = []
    for name in names:
        reference_s = reference_times.get(name)
        source = "measured" if reference_s is not None else None
        if reference_s is None and name in baseline_refs:
            reference_s = baseline_refs[name]
            source = "baseline"
        texts = [t for t in (reference_texts.get(name),
                             engine_texts.get(name),
                             warm_texts.get(name),
                             specialized_texts.get(name))
                 if t is not None]
        identical = all(t == texts[0] for t in texts)

        def ratio(denominator: Optional[float]) -> Optional[float]:
            if reference_s is None or not denominator:
                return None
            return reference_s / denominator

        rows.append({
            "name": name,
            "reference_s": reference_s,
            "engine_s": engine_times.get(name),
            "warm_s": warm_times.get(name),
            "specialized_s": specialized_times.get(name),
            "speedup_cold": ratio(engine_times.get(name)),
            "speedup_warm": ratio(warm_times.get(name)),
            "speedup_specialized": ratio(specialized_times.get(name)),
            "identical": identical,
            "reference_source": source,
        })
    return rows


@dataclass
class XpRun:
    """What one ``xp run`` invocation produced."""

    config: Config
    run_id: str
    path: str
    records: list[dict] = field(default_factory=list)

    def aggregate(self):
        from repro.xp.aggregate import aggregate_records
        return aggregate_records(self.records)


def run_config(config: Config,
               repeat: Optional[int] = None,
               directory: Optional[str] = None,
               registry: Optional[dict] = None,
               settings=None,
               progress: Optional[Callable[[str], None]] = None
               ) -> XpRun:
    """Execute *config* ``repeat`` times, one store record per repeat.

    *repeat* defaults to ``Settings.bench_repeat``
    (``REPRO_BENCH_REPEAT``).  *registry* overrides the figure
    registry (tests).  Records land in the run store under
    *directory* (default: the consolidated results dir).
    """
    validate(config, figure_names=registry)
    if settings is None:
        from repro.api import Settings
        settings = Settings.from_env()
    if repeat is None:
        repeat = settings.bench_repeat
    if not isinstance(repeat, int) or repeat < 1:
        raise SettingsError(f"repeat must be an integer >= 1, got "
                            f"{repeat!r}", name="repeat",
                            value=str(repeat))
    digest = config_digest(config)
    sha = store.git_sha()
    machine = store.machine_stamp()
    writer = store.RunWriter(config, directory=directory,
                             settings=settings)
    trace_started = False
    if config.trace and not obs.tracing_active():
        obs.start_trace(writer.path + ".trace.jsonl")
        trace_started = True
    records: list[dict] = []
    try:
        for index in range(repeat):
            if progress is not None:
                progress(f"{config.name}: repeat {index + 1}/{repeat}")
            started = store.utc_now()
            t0 = time.perf_counter()
            if config.kind == "figures":
                baseline_refs = (baseline_references(directory, settings)
                                 if config.skip_reference else None)
                rows = measure_figures(
                    list(config.figures),
                    skip_reference=config.skip_reference,
                    disk_cache=(config.cache == "disk"),
                    top_level=config.engine, registry=registry,
                    baseline_refs=baseline_refs, progress=progress)
                extra = {"cache_stats": perf.cache_stats()}
            else:
                from repro.service.loadgen import measure_service
                rows = measure_service(
                    workers=config.workers, shards=config.shards,
                    clients=config.clients,
                    run_kernel_count=config.run_kernels,
                    progress=progress)
                extra = {"cpus": os.cpu_count() or 1}
            record = {
                "config": config.asdict(),
                "config_name": config.name,
                "config_digest": digest,
                "kind": config.kind,
                "repeat_index": index,
                "started_utc": started,
                "elapsed_s": round(time.perf_counter() - t0, 6),
                "git_sha": sha,
                "machine": machine,
                "rows": rows,
            }
            record.update(extra)
            records.append(writer.record(record))
    finally:
        if trace_started:
            obs.stop_trace()
        writer.close()
    return XpRun(config=config, run_id=writer.run_id, path=writer.path,
                 records=records)
