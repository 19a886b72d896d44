"""Command-line interface.

``python -m repro <command>`` regenerates any paper artifact or
inspects a kernel's translation without writing code:

    python -m repro list                       # what can I run?
    python -m repro fig10                      # the headline figure
    python -m repro fig8 --output results.txt
    python -m repro translate adpcm_dec        # one loop, full detail
    python -m repro kernels                    # the workload library
    python -m repro faults -n 120 --seed 2008  # guarded-mode fault campaign
    python -m repro xp run --preset smoke      # time the engine tiers
    python -m repro xp run -p service          # time the service, dedup gate
    python -m repro xp compare -p smoke        # regression gate vs baseline
    python -m repro chaos -n 24 --seed 2008    # infrastructure chaos campaign
    python -m repro trace fig8                 # figure + JSONL span trace
    python -m repro stats TRACE_fig8.jsonl     # summarise a trace file
    python -m repro serve --sessions 3         # service smoke over TCP loopback
    python -m repro netchaos -n 20 --seed 2008 # network-fault chaos campaign
    python -m repro serve --shards 3           # supervised shard cluster smoke
    python -m repro clusterchaos --seed 2008   # shard-fault chaos campaign
    python -m repro aot build                  # precompile the workload suite
    python -m repro aot inspect                # show an artifact's manifest
    python -m repro serve --artifact DIR       # boot warm from an artifact
    python -m repro cache gc                   # sweep stale/over-budget cache
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from typing import Optional

# The registry lives with the experiments (repro.experiments.figures);
# re-exported here because generations of callers import it from the CLI.
from repro.experiments.figures import FIGURES


def _kernel_by_name(name: str):
    from repro.workloads import kernels as K
    factories = {
        "fir": lambda: K.fir_filter(taps=8), "iir": K.iir_biquad,
        "adpcm_dec": K.adpcm_decode, "adpcm_enc": K.adpcm_encode,
        "dct": K.dct_butterfly, "sad": K.sad_16, "quant": K.quantize,
        "gf_mult": K.gf_mult, "viterbi": K.viterbi_acs,
        "colorconv": K.color_convert, "bitpack": K.bitpack,
        "checksum": K.checksum, "upsample": K.upsample,
        "vmax": K.vector_max, "daxpy": K.daxpy, "ddot": K.dot_product,
        "stencil5": K.stencil5, "mgrid_resid": K.mgrid_resid,
        "swim_update": K.swim_update, "mesa_xform": K.mesa_transform,
        "tomcatv_res": K.tomcatv_residual, "while_scan": K.while_scan,
        "libm_loop": K.libm_loop, "fig5": None,
    }
    if name == "fig5":
        from repro.workloads.example_fig5 import fig5_loop
        return fig5_loop()
    factory = factories.get(name)
    if factory is None:
        raise KeyError(f"unknown kernel {name!r}; try: "
                       + ", ".join(sorted(factories)))
    return factory()


def cmd_translate(name: str) -> str:
    """Translate one kernel for the proposed LA and report everything."""
    from repro.accelerator import PROPOSED_LA
    from repro.scheduler import ModuloReservationTable, sched_resource
    from repro.vm import translate_loop

    from repro.errors import SchedulingError

    loop = _kernel_by_name(name)
    lines = [loop.dump(), ""]
    result = translate_loop(loop, PROPOSED_LA)
    if not result.ok:
        lines.append(f"REJECTED [{result.failure_kind}]: {result.failure}")
        reason = result.failure_reason
        if isinstance(reason, SchedulingError) \
                and reason.schedule_failure is not None:
            lines.append(reason.schedule_failure.describe())
        return "\n".join(lines)
    image = result.image
    lines.append(
        f"II={image.ii} (ResMII {image.schedule.res_mii}, RecMII "
        f"{image.schedule.rec_mii})  stages={image.stage_count}  "
        f"streams={image.streams.num_load_streams}L/"
        f"{image.streams.num_store_streams}S  "
        f"regs={image.registers.int_regs}i/{image.registers.fp_regs}f")
    lines.append(f"translation: {result.instructions:,.0f} modelled "
                 f"instructions")
    mrt = ModuloReservationTable(image.ii, PROPOSED_LA.units())
    placements = {opid: (t, sched_resource(image.dfg.op(opid)))
                  for opid, t in image.schedule.times.items()}
    lines.append("")
    lines.append(mrt.render(placements))
    return "\n".join(lines)


def cmd_serve(sessions: int, settings, host: str = "127.0.0.1",
              port: int = 0) -> tuple[str, bool]:
    """The ``serve`` smoke: boot the service, send the request corpus
    from *sessions* clients through the client API over TCP, and stop.

    *settings* are the CLI bootstrap's, already applied here (so the
    artifact is installed once).  With ``settings.shards <= 1`` each
    session is a ``LoopClient`` connection to one ``NetServer``; with
    more, a failover ``ClusterClient`` into a supervised fleet, and
    shard 0 is SIGKILLed halfway through the last session so the rest
    of it rides failover.  Every session sends the same corpus, so each
    digest is translated once and every repeat is a dedup hit.  Returns
    the printable summary and whether every request was served and the
    service drained (or the fleet healed) with nothing orphaned.
    """
    from repro import perf
    from repro.api import Settings
    from repro.service.client import LoopClient
    from repro.service.cluster import (
        ClusterClient,
        ClusterConfig,
        ShardSupervisor,
    )
    from repro.service.loadgen import request_corpus
    from repro.service.net import NetConfig, NetServer
    from repro.service.server import ServiceConfig

    corpus = request_corpus()
    expected = sessions * len(corpus)
    shards, secret = settings.shards, settings.service_secret
    if shards > 1:
        # Shard processes skip the bootstrap: they install at start.
        artifact = settings.artifact_path
        service = ServiceConfig(settings=Settings(
            engine=perf.engine_level(), artifact_path=artifact)
            if artifact else None)
        fleet = ShardSupervisor(ClusterConfig(
            shards=shards, host=host, auth_secret=secret,
            service=service)).start()
        seed_host, seed_port = fleet.seed_address()

        def connect(name: str):
            return ClusterClient(seed_host, seed_port, session=name,
                                 secret=secret).connect()
        midway = functools.partial(fleet.kill_shard, 0)
        stop = fleet.stop
    else:
        server = NetServer(NetConfig(
            host=host, port=port, auth_secret=secret)).start()

        def connect(name: str):
            return LoopClient(server.host, server.port, session=name,
                              secret=secret)
        midway = None
        stop = server.stop
    served = 0
    client_stats = []
    try:
        for i in range(sessions):
            with connect(f"session-{i}") as client:
                for index, item in enumerate(corpus):
                    if (midway is not None and i == sessions - 1
                            and index == len(corpus) // 2):
                        midway()
                    if client.translate(*item,
                                        deadline_s=600.0) is not None:
                        served += 1
            client_stats.append(client.stats)
        settled = fleet.wait_converged(90.0) if shards > 1 else True
    finally:
        stats = stop()
    if shards > 1:
        orphans = len(fleet.orphan_pids())
        lines = [
            f"cluster: {shards} shards on {host}, {sessions} sessions "
            f"x {len(corpus)} translate requests through failover "
            f"clients",
            f"  served {served}/{expected}  failovers "
            f"{sum(c.failovers for c in client_stats)}  shard-moved "
            f"redirects {sum(c.moved for c in client_stats)}",
            f"  shard 0 SIGKILLed mid-workload  healed: "
            f"{'yes' if settled else 'NO'} (map v{fleet.map.version})",
            f"  orphaned shard processes: {orphans}",
        ]
    else:
        orphans = server.active_connections()
        settled = stats.drained
        lines = [
            f"service on {server.host}:{server.port}, {sessions} "
            f"sessions x {len(corpus)} translate requests over TCP",
            f"  submitted {stats.submitted}  completed {stats.completed}  "
            f"served {served}/{expected}",
            f"  translated digests {stats.translated}  dedup hits "
            f"{stats.dedup_hits}  client transport retries "
            f"{sum(c.retries for c in client_stats)}",
            f"  drained: {'yes' if settled else 'NO'}  "
            f"orphaned connections: {orphans}",
        ]
    return "\n".join(lines), served == expected and settled and not orphans


@contextlib.contextmanager
def _traced(path: Optional[str], name: str, **attrs):
    """Run the body under span tracing to *path* — one root ``cli`` span
    plus the closing metrics record — or untraced when *path* is None.
    Callers print their output after the block, so stdout stays
    byte-identical to an untraced run; the path note goes to stderr."""
    if not path:
        yield
        return
    from repro import obs
    obs.start_trace(path)
    try:
        with obs.span(name, component="cli", **attrs):
            yield
        obs.write_metrics_record()
    finally:
        obs.stop_trace()
    print(f"trace written to {path}", file=sys.stderr)


#: The fault campaigns: subcommand -> (help, default --faults).
_CAMPAIGNS = {
    "faults": ("seeded fault-injection campaign against the guarded "
               "runtime", 120),
    "chaos": ("seeded infrastructure-fault campaign against the "
              "experiment engine", 24),
    "netchaos": ("seeded network-fault campaign against the TCP "
                 "transport", 20),
    "clusterchaos": ("seeded shard-fault campaign against the sharded "
                     "cluster", 8),
}


def _add_campaign_parser(sub, name: str) -> None:
    help_text, faults = _CAMPAIGNS[name]
    parser = sub.add_parser(name, help=help_text)
    parser.add_argument("--faults", "-n", type=int, default=faults,
                        help=f"minimum faults to inject (default "
                             f"{faults})")
    parser.add_argument("--seed", type=int, default=2008,
                        help="campaign RNG seed (default 2008)")
    parser.add_argument("--workdir", default=None,
                        help="campaign scratch directory (default: a "
                             "fresh temp dir; holds the attacked cache, "
                             "fault sentinels and the JSONL incident "
                             "log)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="also write a JSONL span trace to PATH")
    if name == "faults":
        parser.add_argument("--guard", choices=("checked", "off"),
                            default="checked",
                            help="guard mode under test (default checked)")
        return
    if name == "chaos":
        parser.add_argument("--figures", default=None,
                            help="comma-separated figure names "
                                 "(default: fig3a,fig3b,fig4a,fig4b)")
        return
    parser.add_argument("--figure", default="fig2",
                        help="figure rendered through the attacked "
                             "service, compared byte-for-byte with the "
                             "direct rendering (default fig2)")
    if name == "clusterchaos":
        parser.add_argument("--shards", type=int, default=3,
                            help="shard processes in the attacked fleet "
                                 "(default 3)")


def _campaign_plugin(args):
    """The family plugin a campaign subcommand drives."""
    if args.command == "faults":
        from repro.resilience.faults import Datapath
        return Datapath(args.guard)
    if args.command == "chaos":
        from repro.resilience.chaos import Sweep
        return (Sweep(tuple(args.figures.split(","))) if args.figures
                else Sweep())
    if args.command == "netchaos":
        from repro.resilience.netchaos import Transport
        return Transport(args.figure)
    from repro.resilience.clusterchaos import Cluster
    return Cluster(args.shards, args.figure)


def cmd_kernels() -> str:
    from repro.workloads.suite import all_benchmarks
    rows = []
    for bench in all_benchmarks():
        for loop in bench.kernels:
            rows.append(f"{bench.name:14s} {loop.name:16s} "
                        f"{len(loop.body):3d} ops  trip {loop.trip_count:5d}"
                        f"  x{loop.invocations}")
    return "\n".join(rows)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VEAL (ISCA 2008) reproduction — regenerate paper "
                    "figures or inspect kernel translations.")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available figures")
    sub.add_parser("kernels", help="list the workload kernels")
    translate = sub.add_parser("translate",
                               help="translate one kernel and print its "
                                    "reservation table")
    translate.add_argument("kernel")
    for name in _CAMPAIGNS:
        _add_campaign_parser(sub, name)
    xp = sub.add_parser(
        "xp",
        help="experiment manager: named configs, timestamped run "
             "records, median/IQR aggregation, regression gate")
    xp.add_argument("action",
                    choices=("run", "report", "compare", "baseline",
                             "list"),
                    help="run a config; report median/IQR over its "
                         "records; compare the latest run against the "
                         "committed baseline; write that baseline; or "
                         "list presets")
    xp.add_argument("--preset", "-p", default=None,
                    help="named configuration (default 'default'; see "
                         "`repro xp list`)")
    xp.add_argument("--figures", default=None,
                    help="override the preset's figure set (changes "
                         "the config digest, so baselines won't match)")
    xp.add_argument("--repeat", "-n", type=int, default=None,
                    help="repeats per run (default: REPRO_BENCH_REPEAT "
                         "or 1)")
    xp.add_argument("--dir", default=None,
                    help="results root holding runs/ and baselines/ "
                         "(default: REPRO_BENCH_DIR or "
                         "benchmarks/results)")
    xp.add_argument("--baseline-path", default=None,
                    help="explicit baseline file (default "
                         "<dir>/baselines/<config>.json)")
    xp.add_argument("--threshold", type=float, default=None,
                    help="relative regression threshold for compare "
                         "(default 0.10)")
    xp.add_argument("--strict", action="store_true",
                    help="compare: a missing baseline is a failure, "
                         "not a warning")
    xp.add_argument("--all", action="store_true", dest="all_records",
                    help="report: aggregate every stored record for "
                         "the config, not just the latest run")
    trace = sub.add_parser("trace",
                           help="run one figure with span tracing on and "
                                "write a JSONL trace file")
    trace.add_argument("figure", choices=sorted(FIGURES),
                       help="figure to run under tracing")
    trace.add_argument("--output", "-o", default=None,
                       help="trace file path (default benchmarks/results/"
                            "TRACE_<figure>.jsonl)")
    serve = sub.add_parser("serve",
                           help="boot the loop-acceleration service, "
                                "serve a short multi-session workload, "
                                "drain")
    serve.add_argument("--sessions", type=int, default=3,
                       help="client sessions, served one after another "
                            "(default 3)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", "-p", type=int, default=0,
                       help="server port without --shards (default 0 = "
                            "pick a free one)")
    serve.add_argument("--secret", default=None,
                       help="shared frame-auth secret (HMAC); required "
                            "for any non-loopback --host (default: "
                            "REPRO_SERVICE_SECRET)")
    serve.add_argument("--shards", type=int, default=None,
                       help="boot a supervised N-shard cluster and "
                            "drive the workload through failover "
                            "clients, with a mid-workload shard kill "
                            "(default: REPRO_SHARDS or 1)")
    serve.add_argument("--trace", default=None, metavar="PATH",
                       help="also write a JSONL span trace to PATH")
    serve.add_argument("--artifact", default=None,
                       help="AOT artifact directory loaded into each "
                            "server/shard at startup (default: "
                            "REPRO_ARTIFACT)")
    aot = sub.add_parser("aot",
                         help="build or inspect ahead-of-time "
                              "translation artifacts")
    aot.add_argument("action", choices=("build", "inspect"),
                     help="build: translate the workload suite into an "
                          "artifact directory; inspect: print its "
                          "entries per loop and content sha256")
    aot.add_argument("path", nargs="?", default=None,
                     help="artifact directory (default benchmarks/"
                          "results/aot)")
    aot.add_argument("--output", "-o", default=None,
                     help="build output path (overrides the positional "
                          "path)")
    cache = sub.add_parser("cache",
                           help="disk translation-cache maintenance")
    cache.add_argument("action", choices=("gc",),
                       help="gc: sweep version-stale and over-budget "
                            "entries")
    cache.add_argument("--dir", default=None,
                       help="cache directory (default: REPRO_CACHE_DIR "
                            "or benchmarks/results/.cache)")
    cache.add_argument("--budget", type=int, default=None,
                       help="size budget in bytes (default: "
                            "REPRO_CACHE_BUDGET or 256 MiB)")
    stats = sub.add_parser("stats",
                           help="summarise a JSONL trace/metrics dump")
    stats.add_argument("path", nargs="?", default=None,
                       help="trace file (default benchmarks/results/"
                            "TRACE_fig8.jsonl)")
    stats.add_argument("--strict", action="store_true",
                       help="validate every record against the span "
                            "schema; non-zero exit on violations")
    for name, figure in FIGURES.items():
        fig = sub.add_parser(name, help=figure.description)
        fig.add_argument("--output", "-o", default=None,
                         help="also write the table to this file")
        fig.add_argument("--trace", default=None, metavar="PATH",
                         help="also write a JSONL span trace to PATH")
    args = parser.parse_args(argv)

    # One validated Settings loader covers every knob (REPRO_ENGINE,
    # REPRO_CACHE_DIR, REPRO_INCIDENT_LOG, ...); an unusable
    # explicit override is a configuration error the user must see at
    # startup, not a silent fallback.
    from repro.api import Settings
    from repro.errors import (ArtifactError, CacheConfigError,
                              SettingsError)
    environ = None
    if args.command in ("aot", "cache"):
        # Building or GC'ing must not require REPRO_ARTIFACT to name an
        # existing file — `aot build` is how it comes to exist.
        environ = {k: v for k, v in os.environ.items()
                   if k != "REPRO_ARTIFACT"}
    overrides = {}
    if args.command == "serve":
        # Flags win over the environment; cmd_serve reads them back.
        overrides = dict(service_secret=args.secret,
                         artifact_path=args.artifact, shards=args.shards)
    try:
        settings = Settings.from_env(environ, **overrides).apply()
    except (SettingsError, CacheConfigError, ArtifactError) as exc:
        print(f"error: [{exc.kind}] {exc}", file=sys.stderr)
        return 2

    if args.command in (None, "list"):
        width = max(len(n) for n in FIGURES)
        for name, figure in FIGURES.items():
            print(f"  {name.ljust(width)}  {figure.description}")
        print(f"  {'translate'.ljust(width)}  translate a kernel "
              f"(see 'kernels')")
        print(f"  {'faults'.ljust(width)}  fault-injection campaign "
              f"(guarded runtime)")
        print(f"  {'chaos'.ljust(width)}  infrastructure-fault campaign "
              f"(experiment engine)")
        print(f"  {'trace'.ljust(width)}  run a figure with span tracing "
              f"(JSONL trace file)")
        print(f"  {'stats'.ljust(width)}  summarise a JSONL trace/metrics "
              f"dump")
        print(f"  {'serve'.ljust(width)}  loop-acceleration service smoke "
              f"(serve a workload over TCP, drain; --shards for a fleet)")
        print(f"  {'netchaos'.ljust(width)}  network-fault campaign "
              f"(TCP transport)")
        print(f"  {'clusterchaos'.ljust(width)}  shard-fault campaign "
              f"(sharded cluster)")
        print(f"  {'aot'.ljust(width)}  build/inspect ahead-of-time "
              f"translation artifacts")
        print(f"  {'cache'.ljust(width)}  disk translation-cache "
              f"maintenance (gc)")
        print(f"  {'xp'.ljust(width)}  experiment manager: time figures "
              f"and the service (run/report/compare/baseline/list)")
        return 0
    if args.command == "kernels":
        print(cmd_kernels())
        return 0
    if args.command == "translate":
        try:
            print(cmd_translate(args.kernel))
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        return 0
    if args.command in _CAMPAIGNS:
        from repro.resilience import campaign
        plugin = _campaign_plugin(args)
        with _traced(args.trace, args.command, faults=args.faults,
                     seed=args.seed):
            report = campaign.run(
                plugin, args.faults, args.seed, args.workdir,
                progress=lambda msg: print(f"... {msg}", file=sys.stderr))
        print(campaign.format_report(report))
        return 0 if report.ok else 1
    if args.command == "xp":
        from repro import xp as xpm
        say = (lambda msg: print(f"... {msg}", file=sys.stderr))
        if args.action == "list":
            width = max(len(n) for n in xpm.PRESETS)
            for name, config in sorted(xpm.PRESETS.items()):
                print(f"  {name.ljust(width)}  [{config.kind}] "
                      f"{config.description}")
            return 0
        try:
            config = xpm.preset(args.preset or xpm.DEFAULT_PRESET)
            if args.figures:
                config = config.with_(
                    figures=tuple(args.figures.split(",")))
            if args.action == "run":
                run = xpm.run_config(config, repeat=args.repeat,
                                     directory=args.dir, progress=say)
                agg = run.aggregate()
                print(xpm.format_aggregate(agg))
                print(f"{len(run.records)} record(s) -> {run.path}")
                return 0 if agg.all_ok else 1
            records = xpm.load_records(config.name,
                                       xpm.config_digest(config),
                                       directory=args.dir)
            if not getattr(args, "all_records", False):
                records = xpm.latest_run_records(records)
            if args.action == "report":
                if not records:
                    print(f"no run records for config {config.name!r}; "
                          f"run `repro xp run --preset {config.name}` "
                          f"first", file=sys.stderr)
                    return 1
                print(xpm.format_aggregate(
                    xpm.aggregate_records(records)))
                return 0
            if args.action == "baseline":
                if not records:
                    print(f"no run records for config {config.name!r}; "
                          f"run `repro xp run --preset {config.name}` "
                          f"first", file=sys.stderr)
                    return 1
                path = xpm.write_baseline(
                    xpm.aggregate_records(records),
                    path=args.baseline_path, directory=args.dir)
                print(f"baseline written to {path}")
                return 0
            # compare
            from repro.api import compare as api_compare
            result = api_compare(config=config,
                                 baseline_path=args.baseline_path,
                                 directory=args.dir,
                                 threshold=args.threshold,
                                 strict=args.strict)
            print(result.format())
            return 0 if result.ok else 1
        except SettingsError as exc:
            print(f"error: [{exc.kind}] {exc}", file=sys.stderr)
            return 2
    if args.command == "trace":
        path = args.output or os.path.join(
            "benchmarks", "results", f"TRACE_{args.figure}.jsonl")
        with _traced(path, "figure", figure=args.figure):
            text = FIGURES[args.figure].fn()
        print(text)
        return 0
    if args.command == "aot":
        from repro import aot as aot_mod
        try:
            if args.action == "build":
                path = (args.output or args.path
                        or aot_mod.DEFAULT_ARTIFACT)
                report = aot_mod.build_artifact(
                    path, progress=lambda msg: print(
                        f"... {msg}", file=sys.stderr))
                print(aot_mod.format_build(report))
                return 0
            path = args.path or aot_mod.DEFAULT_ARTIFACT
            artifact = aot_mod.load_artifact(path)
            if artifact is None:
                print(f"artifact {path!r} has a stale or missing digest "
                      f"stamp (see the incident log)", file=sys.stderr)
                return 1
            print(aot_mod.format_artifact(artifact))
            return 0
        except ArtifactError as exc:
            print(f"error: [{exc.kind}] {exc}", file=sys.stderr)
            return 2
    if args.command == "cache":
        from repro.perf import transcache
        path = args.dir or transcache.default_disk_dir()
        summary = transcache.gc_disk_dir(path, budget=args.budget)
        print(f"cache gc {summary['dir']}: removed {summary['stale']} "
              f"version-stale + {summary['evicted']} over-budget "
              f"entries ({summary['bytes_freed']} bytes freed); kept "
              f"{summary['kept']} entries ({summary['kept_bytes']} "
              f"bytes of {summary['budget_bytes']} budget)")
        return 0
    if args.command == "serve":
        from repro.errors import TransportError

        def _serve() -> tuple[str, bool]:
            try:
                return cmd_serve(args.sessions, settings,
                                 host=args.host, port=args.port)
            except TransportError as exc:
                # A refused bind (non-loopback without --secret) is a
                # configuration error, not a crash.
                return f"error: [{exc.kind}] {exc}", False
        with _traced(args.trace, "serve", shards=settings.shards,
                     sessions=args.sessions):
            text, ok = _serve()
        print(text)
        return 0 if ok else 1
    if args.command == "stats":
        from repro.obs.schema import validate_trace_file
        from repro.obs.stats import format_trace_stats, load_trace
        path = args.path or os.path.join("benchmarks", "results",
                                         "TRACE_fig8.jsonl")
        records = load_trace(path)
        if not records:
            print(f"no trace records found in {path!r}", file=sys.stderr)
            return 2
        print(format_trace_stats(records, source=path))
        if args.strict:
            count, errors = validate_trace_file(path)
            if errors:
                print(f"{len(errors)} schema violation(s):",
                      file=sys.stderr)
                for err in errors[:20]:
                    print(f"  {err}", file=sys.stderr)
                return 1
            print(f"{count} records schema-valid", file=sys.stderr)
        return 0
    with _traced(args.trace, "figure", figure=args.command):
        text = FIGURES[args.command].fn()
    print(text)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
