"""``repro.api`` — the stable programmatic surface of the reproduction.

Every way of driving the system from outside — examples, the CLI, the
loop-acceleration service (:mod:`repro.service`), tests, notebooks —
goes through this one facade instead of reaching into the internals
(``vm.runtime``, ``experiments.*``, ``perf.parallel``):

* :class:`Settings` — one consolidated, validated configuration object
  for the whole stack (worker count, engine switch, disk cache, trace
  sink, incident log), loadable from the environment with
  :meth:`Settings.from_env`;
* :class:`Session` — a configured (accelerator, options, CPU, guard)
  context with ``translate`` / ``run_loop`` / ``run_suite`` methods;
* module-level :func:`translate`, :func:`run_loop`, :func:`run_suite`,
  :func:`sweep`, :func:`fraction_of_infinite`, :func:`run_figure` —
  one-shot conveniences over a default session.

The facade adds no behaviour of its own: results are byte-identical to
calling the underlying layers directly, which is what lets the service
path and the serial reference path be compared bit for bit.  The old
scattered helpers remain as :class:`DeprecationWarning` shims.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.accelerator.config import LAConfig
from repro.cpu.pipeline import ARM11, CPUConfig
from repro.errors import SettingsError
from repro.vm.guard import GuardConfig
from repro.vm.runtime import AppRun, LoopOutcome, VMConfig, VirtualMachine
from repro.vm.translator import (
    TranslationOptions,
    TranslationResult,
    translate_loop,
)

#: The env vars :meth:`Settings.from_env` consolidates, in one place.
JOBS_ENV = "REPRO_JOBS"
ENGINE_ENV = "REPRO_ENGINE"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
TRACE_ENV = "REPRO_TRACE"
INCIDENT_LOG_ENV = "REPRO_INCIDENT_LOG"
SERVICE_HOST_ENV = "REPRO_SERVICE_HOST"
SERVICE_PORT_ENV = "REPRO_SERVICE_PORT"
SERVICE_SECRET_ENV = "REPRO_SERVICE_SECRET"
SHARDS_ENV = "REPRO_SHARDS"
RETRY_ATTEMPTS_ENV = "REPRO_RETRY_ATTEMPTS"
RETRY_BACKOFF_ENV = "REPRO_RETRY_BACKOFF"
ARTIFACT_ENV = "REPRO_ARTIFACT"
CACHE_BUDGET_ENV = "REPRO_CACHE_BUDGET"
JIT_CACHE_ENV = "REPRO_JIT_CACHE"
BENCH_REPEAT_ENV = "REPRO_BENCH_REPEAT"
BENCH_DIR_ENV = "REPRO_BENCH_DIR"


def _default_accelerator() -> LAConfig:
    from repro.accelerator import PROPOSED_LA
    return PROPOSED_LA


#: Sentinel distinguishing "not specified" (the proposed design) from an
#: explicit ``accelerator=None`` (a scalar-only machine) in `Session`.
_PROPOSED = object()


@dataclass(frozen=True)
class Settings:
    """One validated configuration for the whole stack.

    Replaces the scattered knobs (``REPRO_CACHE_DIR`` handling in the
    CLI, ``perf.set_jobs`` calls, ``REPRO_TRACE``/``REPRO_INCIDENT_LOG``
    read in three different modules) with a single object the service,
    the CLI and the tests all construct the same way.  :meth:`apply`
    pushes the values into the global switches; nothing is applied at
    construction time, so a ``Settings`` is inert data until then.
    """

    #: Worker processes experiment fan-out may use (1 = serial).
    jobs: int = 1
    #: Engine tier: 0 = reference interpreter only, 1 = compiled per-op
    #: closures + caching, 2 = specialized kernels (the default).
    #: Boolean spellings still parse (False -> 0, True -> 2).
    engine: int = 2
    #: On-disk translation-cache directory (None = memory-only).
    cache_dir: Optional[str] = None
    #: JSONL span-trace sink (None = tracing off).
    trace_path: Optional[str] = None
    #: JSONL incident-log sink (None = in-memory only).
    incident_log: Optional[str] = None
    #: Network service endpoint for :func:`connect` / ``serve --port``.
    service_host: str = "127.0.0.1"
    #: 0 = pick a free ephemeral port when serving.
    service_port: int = 0
    #: Shared frame-authentication secret (HMAC); mandatory for any
    #: non-loopback service host — see the
    #: :mod:`repro.service.wire` trust model.
    service_secret: Optional[str] = None
    #: Shard processes for the served stack (1 = single server; > 1
    #: boots a supervised cluster — see :mod:`repro.service.cluster`).
    shards: int = 1
    #: Network client retry policy (attempts and backoff base).
    retry_attempts: int = 5
    retry_backoff_s: float = 0.02
    #: AOT artifact installed into the translation cache by
    #: :meth:`apply` (None = no artifact).  A missing file raises
    #: :class:`~repro.errors.ArtifactError`; a corrupt/stale one is
    #: quarantined and the run proceeds with dynamic translation.
    artifact_path: Optional[str] = None
    #: Disk-cache size budget in bytes for the GC sweep (None = the
    #: transcache default, 256 MiB).
    cache_budget: Optional[int] = None
    #: Max specialized kernels the JIT code cache keeps (None = the
    #: jit default, 256).
    jit_cache: Optional[int] = None
    #: Repeats per ``xp run`` invocation (``--repeat`` wins over this).
    bench_repeat: int = 1
    #: Benchmark results root the run store and baselines live under
    #: (None = ``benchmarks/results``).
    bench_dir: Optional[str] = None

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None, *,
                 jobs: Optional[int | str] = None,
                 engine: Optional[bool | int | str] = None,
                 cache_dir: Optional[str] = None,
                 trace_path: Optional[str] = None,
                 incident_log: Optional[str] = None,
                 service_host: Optional[str] = None,
                 service_port: Optional[int | str] = None,
                 service_secret: Optional[str] = None,
                 shards: Optional[int | str] = None,
                 retry_attempts: Optional[int | str] = None,
                 retry_backoff_s: Optional[float | str] = None,
                 artifact_path: Optional[str] = None,
                 cache_budget: Optional[int | str] = None,
                 jit_cache: Optional[int | str] = None,
                 bench_repeat: Optional[int | str] = None,
                 bench_dir: Optional[str] = None
                 ) -> "Settings":
        """Load settings from *environ* (default ``os.environ``).

        Explicit keyword overrides (e.g. a ``--jobs`` CLI flag) win
        over the environment.  Invalid values raise
        :class:`~repro.errors.SettingsError` naming the offending
        variable — a typo must fail loudly at startup, not silently
        fall back to a default.
        """
        env = os.environ if environ is None else environ
        if jobs is not None:
            job_count = cls._parse_jobs(jobs, "--jobs")
        else:
            raw = env.get(JOBS_ENV)
            job_count = cls._parse_jobs(raw, JOBS_ENV) if raw else 1
        engine_source = "engine" if engine is not None else ENGINE_ENV
        if engine is None:
            engine = env.get(ENGINE_ENV)
        engine_level = cls._parse_engine(engine, engine_source)
        if service_port is None:
            service_port = env.get(SERVICE_PORT_ENV, 0)
        if shards is None:
            shards = env.get(SHARDS_ENV, 1)
        if retry_attempts is None:
            retry_attempts = env.get(RETRY_ATTEMPTS_ENV, 5)
        if retry_backoff_s is None:
            retry_backoff_s = env.get(RETRY_BACKOFF_ENV, 0.02)
        if cache_budget is None:
            cache_budget = env.get(CACHE_BUDGET_ENV) or None
        if jit_cache is None:
            jit_cache = env.get(JIT_CACHE_ENV) or None
        if bench_repeat is None:
            bench_repeat = env.get(BENCH_REPEAT_ENV, 1)
        return cls(
            jobs=job_count,
            engine=engine_level,
            cache_dir=cache_dir or env.get(CACHE_DIR_ENV) or None,
            trace_path=trace_path or env.get(TRACE_ENV) or None,
            incident_log=incident_log or env.get(INCIDENT_LOG_ENV) or None,
            service_host=(service_host or env.get(SERVICE_HOST_ENV)
                          or "127.0.0.1"),
            service_port=cls._parse_int(service_port, SERVICE_PORT_ENV,
                                        minimum=0, maximum=65535),
            service_secret=(service_secret
                            or env.get(SERVICE_SECRET_ENV) or None),
            shards=cls._parse_int(shards, SHARDS_ENV, minimum=1),
            retry_attempts=cls._parse_int(retry_attempts,
                                          RETRY_ATTEMPTS_ENV, minimum=1),
            retry_backoff_s=cls._parse_seconds(retry_backoff_s,
                                               RETRY_BACKOFF_ENV),
            artifact_path=(artifact_path or env.get(ARTIFACT_ENV)
                           or None),
            cache_budget=(None if cache_budget is None
                          else cls._parse_int(cache_budget,
                                              CACHE_BUDGET_ENV,
                                              minimum=0)),
            jit_cache=(None if jit_cache is None
                       else cls._parse_int(jit_cache, JIT_CACHE_ENV,
                                           minimum=1)),
            bench_repeat=cls._parse_int(bench_repeat, BENCH_REPEAT_ENV,
                                        minimum=1),
            bench_dir=bench_dir or env.get(BENCH_DIR_ENV) or None,
        )

    @staticmethod
    def _parse_engine(value: bool | int | str | None, source: str) -> int:
        from repro import perf
        try:
            return perf.parse_engine_level(value)
        except ValueError:
            raise SettingsError(
                f"{source} must be an engine level 0..2 or a boolean "
                f"spelling, got {value!r}",
                name=source, value=str(value)) from None

    @staticmethod
    def _parse_jobs(value: int | str, source: str) -> int:
        try:
            jobs = int(value)
        except (TypeError, ValueError):
            raise SettingsError(
                f"{source} must be an integer, got {value!r}",
                name=source, value=str(value)) from None
        if jobs < 1:
            raise SettingsError(
                f"{source} must be >= 1, got {jobs}",
                name=source, value=str(value))
        return jobs

    @staticmethod
    def _parse_int(value: int | str, source: str, minimum: int = 0,
                   maximum: Optional[int] = None) -> int:
        try:
            parsed = int(value)
        except (TypeError, ValueError):
            raise SettingsError(
                f"{source} must be an integer, got {value!r}",
                name=source, value=str(value)) from None
        if parsed < minimum or (maximum is not None and parsed > maximum):
            bound = (f"{minimum}..{maximum}" if maximum is not None
                     else f">= {minimum}")
            raise SettingsError(
                f"{source} must be {bound}, got {parsed}",
                name=source, value=str(value))
        return parsed

    @staticmethod
    def _parse_seconds(value: float | str, source: str) -> float:
        try:
            parsed = float(value)
        except (TypeError, ValueError):
            raise SettingsError(
                f"{source} must be a number of seconds, got {value!r}",
                name=source, value=str(value)) from None
        if parsed < 0:
            raise SettingsError(
                f"{source} must be >= 0, got {parsed}",
                name=source, value=str(value))
        return parsed

    def retry_policy(self):
        """The network client retry policy these settings describe."""
        from repro.service.client import RetryPolicy
        return RetryPolicy(attempts=self.retry_attempts,
                           base_delay_s=self.retry_backoff_s)

    def apply(self) -> "Settings":
        """Push these settings into the global switches.

        An unusable :attr:`cache_dir` raises
        :class:`~repro.errors.CacheConfigError` (strict validation: the
        directory was configured by name).  A :attr:`trace_path` is
        attached only when tracing is not already active, and without
        truncating — ``python -m repro trace`` owns the
        truncate-then-write lifecycle for its own output file.
        """
        from repro import obs, perf
        from repro.accelerator import jit
        from repro.perf import transcache
        from repro.resilience.incidents import incident_log
        perf.set_engine_level(self.engine)
        perf.set_jobs(self.jobs)
        if self.cache_budget is not None:
            transcache.set_gc_budget(self.cache_budget)
        if self.jit_cache is not None:
            jit.set_code_cache_limit(self.jit_cache)
        if self.cache_dir is not None:
            perf.translation_cache().attach_disk(self.cache_dir,
                                                 strict=True)
        if self.incident_log is not None:
            incident_log().configure_sink(self.incident_log)
        if self.trace_path is not None and not obs.tracing_active():
            obs.start_trace(self.trace_path, truncate=False)
        if self.artifact_path is not None:
            from repro import aot
            aot.install(self.artifact_path)
        return self


class Session:
    """A configured context for translating and running loops.

    Bundles the four configuration axes every operation needs — the
    accelerator present in the system, the static/dynamic translation
    options, the scalar CPU model and the guard policy — so call sites
    name them once instead of threading them through every call:

        session = repro.api.Session()          # the proposed design
        result = session.translate(loop)
        outcome = session.run_loop(loop)
        runs = session.run_suite()

    Pass ``accelerator=None`` explicitly for a scalar-only machine
    (no accelerator present); leaving it unspecified means the paper's
    proposed design.
    """

    def __init__(self, accelerator: Any = _PROPOSED,
                 options: TranslationOptions = TranslationOptions(),
                 cpu: CPUConfig = ARM11,
                 guard: GuardConfig = GuardConfig(),
                 settings: Optional[Settings] = None,
                 **vm_overrides: Any) -> None:
        if settings is not None:
            settings.apply()
        self.accelerator = (_default_accelerator()
                            if accelerator is _PROPOSED else accelerator)
        self.options = options
        self.cpu = cpu
        self.guard = guard
        self._vm_overrides = vm_overrides
        self._vm: Optional[VirtualMachine] = None

    def vm_config(self) -> VMConfig:
        """The :class:`~repro.vm.runtime.VMConfig` this session runs."""
        return VMConfig(cpu=self.cpu, accelerator=self.accelerator,
                        options=self.options, guard=self.guard,
                        **self._vm_overrides)

    def _machine(self) -> VirtualMachine:
        if self._vm is None:
            self._vm = VirtualMachine(self.vm_config())
        return self._vm

    def translate(self, loop) -> TranslationResult:
        """Translate *loop* for this session's accelerator."""
        if self.accelerator is None:
            raise ValueError(
                "this session models a scalar-only machine "
                "(accelerator=None); translation needs an accelerator")
        return translate_loop(loop, self.accelerator, self.options)

    def run_loop(self, loop, scalars: Optional[dict] = None,
                 seed: int = 1234) -> LoopOutcome:
        """Measure *loop* under this session's full VM configuration."""
        return self._machine().run_loop(loop, scalars=scalars, seed=seed)

    def run_benchmark(self, benchmark) -> AppRun:
        """Run one benchmark end to end under this session's config."""
        return self._machine().run_benchmark(benchmark)

    def run_suite(self, benchmarks: Optional[list] = None,
                  annotate: bool = False,
                  jobs: Optional[int] = None) -> dict[str, AppRun]:
        """Run the benchmark suite under this session's config."""
        from repro.experiments.common import _run_suite
        return _run_suite(self.vm_config(), benchmarks=benchmarks,
                          annotate=annotate, jobs=jobs)


# -- one-shot conveniences ----------------------------------------------------

def translate(loop, config: Optional[LAConfig] = None,
              options: Optional[TranslationOptions] = None
              ) -> TranslationResult:
    """Translate *loop* for *config* (default: the proposed LA)."""
    return translate_loop(
        loop, _default_accelerator() if config is None else config,
        TranslationOptions() if options is None else options)


def run_loop(loop, config: Optional[LAConfig] = None,
             options: Optional[TranslationOptions] = None,
             scalars: Optional[dict] = None, seed: int = 1234,
             guard: GuardConfig = GuardConfig()) -> LoopOutcome:
    """Measure one loop under a fresh default session."""
    session = Session(accelerator=(_default_accelerator()
                                   if config is None else config),
                      options=options or TranslationOptions(),
                      guard=guard)
    return session.run_loop(loop, scalars=scalars, seed=seed)


def run_suite(config: Optional[VMConfig] = None,
              benchmarks: Optional[list] = None,
              annotate: bool = False,
              jobs: Optional[int] = None) -> dict[str, AppRun]:
    """Run every benchmark under *config*; returns runs by name.

    *config* is a full :class:`~repro.vm.runtime.VMConfig` (default:
    ARM11 + the proposed LA).  ``jobs`` > 1 fans benchmarks over worker
    processes; the result is byte-identical at any job count.
    """
    from repro.experiments.common import _run_suite
    if config is None:
        config = VMConfig(cpu=ARM11, accelerator=_default_accelerator())
    return _run_suite(config, benchmarks=benchmarks, annotate=annotate,
                      jobs=jobs)


def sweep(label: str, xs: Sequence[int],
          make_config: Callable[[int], LAConfig],
          benchmarks: Optional[list] = None,
          jobs: Optional[int] = None):
    """Design-space sweep: ``make_config(x)`` for every x.

    Returns a :class:`~repro.experiments.sweeps.SweepSeries` whose
    fractions come back in x order at any job count.
    """
    from repro.experiments.sweeps import _sweep
    return _sweep(label, list(xs), make_config, benchmarks=benchmarks,
                  jobs=jobs)


def fraction_of_infinite(config: LAConfig,
                         benchmarks: Optional[list] = None) -> float:
    """Mean fraction of the infinite-resource speedup under *config*."""
    from repro.experiments.sweeps import _fraction_of_infinite
    return _fraction_of_infinite(config, benchmarks=benchmarks)


def run_figure(name: str, jobs: Optional[int] = None) -> str:
    """Regenerate one paper figure/table by name; returns its text."""
    from repro import perf
    from repro.experiments.figures import FIGURES
    if name not in FIGURES:
        raise KeyError(f"unknown figure {name!r}; available: "
                       + ", ".join(sorted(FIGURES)))
    if jobs is not None:
        perf.set_jobs(jobs)
    _description, fn = FIGURES[name]
    return fn()


def connect(host: Optional[str] = None, port: Optional[int] = None,
            settings: Optional[Settings] = None, **client_kwargs: Any):
    """A :class:`~repro.service.client.LoopClient` for a served stack.

    Endpoint, frame-auth secret and retry policy default to *settings*
    (or the environment: ``REPRO_SERVICE_HOST``/``REPRO_SERVICE_PORT``/
    ``REPRO_SERVICE_SECRET``/``REPRO_RETRY_ATTEMPTS``/
    ``REPRO_RETRY_BACKOFF``); explicit arguments win.  The returned client speaks the framed wire
    protocol and owns reconnection, retries and admission backoff.
    """
    from repro.service.client import LoopClient
    if settings is None:
        settings = Settings.from_env()
    return LoopClient(
        host if host is not None else settings.service_host,
        port if port is not None else settings.service_port,
        retry=client_kwargs.pop("retry", settings.retry_policy()),
        secret=client_kwargs.pop("secret", settings.service_secret),
        **client_kwargs)


def _resolve_config(config, preset_name: Optional[str]):
    """A ``repro.xp.Config`` from a Config, a name, or a preset name."""
    from repro import xp
    if config is not None and preset_name is not None:
        raise SettingsError(
            "pass either config= or preset=, not both",
            name="config", value=str(preset_name))
    if config is None:
        return xp.preset(preset_name or xp.DEFAULT_PRESET)
    if isinstance(config, str):
        return xp.preset(config)
    if not isinstance(config, xp.Config):
        raise SettingsError(
            f"config must be a repro.xp.Config or a preset name, "
            f"got {type(config).__name__}",
            name="config", value=str(config))
    return config


def benchmark(config=None, *, preset: Optional[str] = None,
              repeat: Optional[int] = None,
              directory: Optional[str] = None,
              registry: Optional[dict] = None,
              settings: Optional[Settings] = None,
              progress: Optional[Callable[[str], None]] = None):
    """Run one named experiment configuration through ``repro.xp``.

    *config* is a :class:`repro.xp.Config` or a preset name (so is
    *preset*; passing both is a :class:`SettingsError`, as is an
    unknown name).  Returns the :class:`repro.xp.XpRun` whose
    timestamped records just landed in the run store; call
    ``.aggregate()`` on it for the median/IQR summary.
    """
    from repro import xp
    resolved = _resolve_config(config, preset)
    return xp.run_config(resolved, repeat=repeat, directory=directory,
                         registry=registry, settings=settings,
                         progress=progress)


def compare(config=None, *, preset: Optional[str] = None,
            baseline_path: Optional[str] = None,
            directory: Optional[str] = None,
            threshold: Optional[float] = None,
            strict: bool = False,
            settings: Optional[Settings] = None):
    """Gate the latest recorded run of a configuration.

    Aggregates the most recent ``xp run`` records for *config* (or
    *preset*) from the run store and diffs them against the committed
    baseline.  Returns a :class:`repro.xp.CompareResult`; ``.ok`` is
    False on any regression — no records at all is itself a gating
    problem, not a silent pass.
    """
    from repro import xp
    resolved = _resolve_config(config, preset)
    digest = xp.config_digest(resolved)
    records = xp.latest_run_records(xp.load_records(
        resolved.name, digest, directory, settings))
    if not records:
        result = xp.CompareResult(config_name=resolved.name)
        result.problems.append(
            f"no run records for config {resolved.name!r} (digest "
            f"{digest[:8]}); run `python -m repro xp run "
            f"--preset {resolved.name}` first")
        return result
    baseline = xp.load_baseline(resolved.name, directory,
                                baseline_path, settings)
    agg = xp.aggregate_records(records)
    if threshold is None:
        threshold = xp.DEFAULT_THRESHOLD
    return xp.compare_aggregate(agg, baseline, threshold=threshold,
                                strict=strict)


def figures() -> dict[str, str]:
    """Figure name -> one-line description, for discovery."""
    from repro.experiments.figures import FIGURES
    return {name: description
            for name, (description, _fn) in FIGURES.items()}


__all__ = [
    "Session", "Settings", "TranslationOptions", "TranslationResult",
    "VMConfig", "benchmark", "compare", "connect", "figures",
    "fraction_of_infinite", "run_figure", "run_loop", "run_suite",
    "sweep", "translate",
]
