"""Named, hashable benchmark configurations — the ``xp.Config`` axis.

One declared configuration schema that both measurement drivers in
:mod:`repro.xp.runner` (the engine-tier figure passes and the service
worker/shard series) execute and report against.  A ``Config`` is a
frozen dataclass, so it is hashable and its :func:`config_digest` is
stable across processes and machines — the key under which the run
store (:mod:`repro.xp.store`) files records and the compare gate
(:mod:`repro.xp.compare`) matches baselines.

``PRESETS`` is the registry of named configurations (``smoke``,
``default``, ``warm-l2``, ``cold-l1``, ``service-2shard``, ...);
:func:`preset` resolves a name or raises
:class:`~repro.errors.SettingsError` listing what exists — a typo must
fail loudly, exactly like a bad ``REPRO_*`` variable.
:meth:`Config.from_settings` bridges the existing
:class:`repro.api.Settings` so the environment knobs
(``REPRO_ENGINE``, ``REPRO_JOBS``, ``REPRO_CACHE_DIR``,
``REPRO_TRACE``) and a declared configuration are one config source,
not two.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

from repro.errors import SettingsError

#: The Figure 3/4 design-space sweeps.
SWEEP_FIGURES = ("fig3a", "fig3b", "fig4a", "fig4b")

#: The default figure set: the sweeps plus the hot figure the
#: specialization tier targets.
DEFAULT_FIGURES = SWEEP_FIGURES + ("utilization",)

#: What a figure Config measures: ``figures`` runs the engine-tier
#: passes per figure; ``service`` drives
#: ``service.loadgen.measure_service``'s worker/shard series.
KINDS = ("figures", "service")

#: Translation-cache mode for a run: in-memory only, or with the
#: on-disk layer attached.
CACHE_MODES = ("memory", "disk")


@dataclass(frozen=True)
class Config:
    """One named benchmark configuration (an experiment design point).

    Figure axes: ``engine`` is the *top* tier measured (0 = reference
    pass only, 1 = + compiled cold/warm passes, 2 = + the specialized
    pass), ``jobs`` the sweep fan-out, ``cache`` the translation-cache
    mode, ``trace`` whether the run writes a span trace next to its
    records, ``figures`` the set measured.  ``skip_reference`` reuses
    the reference wall clocks of the committed ``default`` baseline
    instead of paying the slow engine-off pass (the ``warm-l2``
    preset).

    Service axes (``kind="service"``): ``workers`` and ``shards`` are
    the series of pool/fleet sizes driven, ``clients`` the racing
    client threads, ``run_kernels`` the measured executions per client.
    """

    name: str
    kind: str = "figures"
    engine: int = 2
    jobs: int = 1
    cache: str = "memory"
    trace: bool = False
    figures: tuple = DEFAULT_FIGURES
    skip_reference: bool = False
    # -- service axes ------------------------------------------------
    workers: tuple = ()
    shards: tuple = ()
    clients: int = 3
    run_kernels: int = 6
    #: One-line human description (presets set it; excluded from the
    #: digest so documentation edits never orphan committed baselines).
    description: str = field(default="", compare=False)

    def asdict(self) -> dict:
        """The config as plain JSON-ready data (tuples -> lists)."""
        data = asdict(self)
        data["figures"] = list(self.figures)
        data["workers"] = list(self.workers)
        data["shards"] = list(self.shards)
        return data

    def with_(self, **overrides) -> "Config":
        """A copy with *overrides* applied (the LAConfig idiom)."""
        return replace(self, **overrides)

    @classmethod
    def from_settings(cls, settings, name: str = "from-settings",
                      figures: Optional[tuple] = None,
                      **overrides) -> "Config":
        """Bridge a :class:`repro.api.Settings` into a Config.

        The consolidated environment knobs (engine level, jobs, disk
        cache, trace) become configuration axes; explicit keyword
        *overrides* win, exactly like ``Settings.from_env``.
        """
        axes = dict(
            name=name,
            engine=settings.engine,
            jobs=settings.jobs,
            cache="disk" if settings.cache_dir else "memory",
            trace=settings.trace_path is not None,
        )
        if figures is not None:
            axes["figures"] = tuple(figures)
        axes.update(overrides)
        return cls(**axes)


def config_digest(config: Config) -> str:
    """Stable content digest of *config* (hex, sha256).

    Built from the canonical JSON of the comparable axes, so two
    structurally equal configs digest identically in any process on
    any machine — unlike ``hash()``, which is salted per process.
    """
    data = config.asdict()
    data.pop("description", None)
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def validate(config: Config, figure_names=None) -> Config:
    """Validate every axis; raises :class:`SettingsError` on junk.

    *figure_names* overrides the registry the figure set is checked
    against (tests inject tiny fake registries); default is the real
    benchable-figure registry.
    """
    def bad(axis: str, value, message: str):
        raise SettingsError(f"config {config.name!r}: {axis} {message}, "
                            f"got {value!r}", name=axis, value=str(value))

    if not config.name or not isinstance(config.name, str):
        bad("name", config.name, "must be a non-empty string")
    if config.kind not in KINDS:
        bad("kind", config.kind, f"must be one of {', '.join(KINDS)}")
    if not isinstance(config.engine, int) or not 0 <= config.engine <= 2:
        bad("engine", config.engine, "must be an engine level 0..2")
    if not isinstance(config.jobs, int) or config.jobs < 1:
        bad("jobs", config.jobs, "must be an integer >= 1")
    if config.cache not in CACHE_MODES:
        bad("cache", config.cache,
            f"must be one of {', '.join(CACHE_MODES)}")
    if config.kind == "figures":
        if not config.figures:
            bad("figures", config.figures, "must name at least one figure")
        if config.engine == 0 and config.skip_reference:
            bad("engine", config.engine,
                "cannot be 0 with skip_reference (nothing would run)")
        if figure_names is None:
            from repro.experiments.figures import benchable_figures
            figure_names = benchable_figures()
        unknown = [n for n in config.figures if n not in figure_names]
        if unknown:
            raise SettingsError(
                f"config {config.name!r}: unknown figures: "
                f"{', '.join(unknown)}; available: "
                f"{', '.join(sorted(figure_names))}",
                name="figures", value=",".join(unknown))
    else:
        if not config.workers and not config.shards:
            bad("workers", config.workers,
                "service config needs a workers or shards series")
        for axis in ("workers", "shards"):
            series = getattr(config, axis)
            if any(not isinstance(v, int) or v < 1 for v in series):
                bad(axis, series, "must be integers >= 1")
        if not isinstance(config.clients, int) or config.clients < 1:
            bad("clients", config.clients, "must be an integer >= 1")
        if not isinstance(config.run_kernels, int) or config.run_kernels < 0:
            bad("run_kernels", config.run_kernels,
                "must be an integer >= 0")
    return config


# -- the preset registry ------------------------------------------------------

PRESETS: dict[str, Config] = {}

#: What ``python -m repro xp run`` executes when no preset is named.
DEFAULT_PRESET = "default"


def register_preset(config: Config) -> Config:
    """Register *config* under its name (last registration wins)."""
    PRESETS[config.name] = config
    return config


def preset(name: str) -> Config:
    """The registered preset *name*, or a loud :class:`SettingsError`."""
    try:
        return PRESETS[name]
    except KeyError:
        raise SettingsError(
            f"unknown benchmark preset {name!r}; available: "
            f"{', '.join(sorted(PRESETS))}",
            name="preset", value=name) from None


register_preset(Config(
    name="default", figures=DEFAULT_FIGURES,
    description="the full bench: sweeps + utilization, all engine "
                "tiers, measured reference"))
register_preset(Config(
    name="smoke", figures=("fig4b", "utilization"),
    description="small CI gate: one sweep + the hot figure, all tiers"))
register_preset(Config(
    name="sweeps", figures=SWEEP_FIGURES,
    description="the Figure 3/4 design-space sweeps only"))
register_preset(Config(
    name="warm-l2", figures=DEFAULT_FIGURES, skip_reference=True,
    description="steady-state top tier vs the reference wall clocks "
                "of the committed default baseline (no engine-off "
                "pass)"))
register_preset(Config(
    name="cold-l1", engine=1, figures=DEFAULT_FIGURES,
    description="compiled tier only: reference + cold/warm level-1 "
                "passes, no specialization"))
register_preset(Config(
    name="service-workers", kind="service", workers=(1, 2),
    description="worker-pool throughput/latency series, "
                "dedup-exact verdict"))
register_preset(Config(
    name="service-2shard", kind="service", shards=(1, 2),
    description="sharded-cluster throughput/latency series"))
