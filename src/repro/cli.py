"""Command-line interface.

``python -m repro <command>`` regenerates any paper artifact or
inspects a kernel's translation without writing code:

    python -m repro list                       # what can I run?
    python -m repro fig10                      # the headline figure
    python -m repro fig8 --output results.txt
    python -m repro translate adpcm_dec        # one loop, full detail
    python -m repro kernels                    # the workload library
    python -m repro faults -n 120 --seed 2008  # guarded-mode fault campaign
    python -m repro fig3a --jobs 4             # parallel sweep evaluation
    python -m repro xp run --preset smoke      # time the engine tiers
    python -m repro xp run -p service-workers  # time the service, dedup gate
    python -m repro xp compare -p smoke        # regression gate vs baseline
    python -m repro chaos -n 24 --seed 2008    # infrastructure chaos campaign
    python -m repro trace fig8 --jobs 2        # figure + JSONL span trace
    python -m repro stats TRACE_fig8.jsonl     # summarise a trace file
    python -m repro serve --workers 2          # service smoke: serve + drain
    python -m repro serve --port 0             # same smoke over TCP loopback
    python -m repro netchaos -n 20 --seed 2008 # network-fault chaos campaign
    python -m repro serve --shards 3           # supervised shard cluster smoke
    python -m repro clusterchaos --seed 2008   # shard-fault chaos campaign
    python -m repro aot build                  # precompile the workload suite
    python -m repro aot inspect                # show an artifact's manifest
    python -m repro serve --artifact suite.rvaf  # boot warm from an artifact
    python -m repro cache gc                   # sweep stale/over-budget cache
"""

from __future__ import annotations

import argparse
import contextlib
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


def cmd_faults(injections: int, seed: int, mode: str):
    """Run a seeded fault-injection campaign through the guarded
    runtime; returns the report so the caller can gate its exit code
    on ``report.ok`` rather than scraping the formatted text."""
    from repro.faults import CampaignConfig, run_campaign
    from repro.vm.guard import GuardConfig

    guard = GuardConfig(mode=mode, max_failures=10_000,
                        backoff_invocations=2)
    config = CampaignConfig(injections=injections, seed=seed, guard=guard)
    return run_campaign(
        config, progress=lambda msg: print(f"... {msg}", file=sys.stderr))


def cmd_serve(workers: int, sessions: int,
              artifact: Optional[str] = None) -> tuple[str, bool]:
    """Boot the loop-acceleration service, drive a short multi-session
    workload through it, and drain.

    Every session submits the same translate corpus, so the run
    demonstrates the service's whole contract in a few hundred
    milliseconds: concurrent duplicates collapse to one core
    translation each (single-flight), all sessions share the process
    cache, and the drain leaves nothing queued.  Returns the printable
    summary and whether the service drained with every request served.
    """
    import time

    from repro.errors import ServiceOverload
    from repro.service import LoopService, ServiceConfig
    from repro.service.loadgen import request_corpus

    corpus = request_corpus()
    service = LoopService(ServiceConfig(
        workers=workers, artifact_path=artifact or None)).start()
    try:
        handles = [service.open_session(f"session-{i}")
                   for i in range(sessions)]
        futures = []
        for session in handles:
            for loop, config, options in corpus:
                # Admission control pushes back when the queue is full;
                # a well-behaved client waits and retries.
                while True:
                    try:
                        futures.append(
                            session.translate(loop, config, options))
                        break
                    except ServiceOverload:
                        time.sleep(0.001)
        served = sum(1 for future in futures
                     if future.result(timeout=600) is not None)
    finally:
        stats = service.close()
    lines = [
        f"service: {workers} worker(s), {sessions} sessions x "
        f"{len(corpus)} translate requests",
        f"  submitted {stats.submitted}  completed {stats.completed}  "
        f"served {served}",
        f"  core translations {stats.translated}  "
        f"single-flight dedup hits {stats.dedup_hits}",
        f"  drained: {'yes' if stats.drained else 'NO'}",
    ]
    ok = stats.drained and served == len(futures)
    return "\n".join(lines), ok


def cmd_serve_net(host: str, port: int, workers: int,
                  sessions: int,
                  secret: Optional[str] = None,
                  artifact: Optional[str] = None) -> tuple[str, bool]:
    """The ``serve`` smoke over TCP: boot the network front end, drive
    the same multi-session translate corpus through ``LoopClient``
    connections (framed wire protocol, retries, admission hints all
    exercised on a real socket), and drain.  Returns the printable
    summary and whether everything was served with zero orphaned
    connections.
    """
    from repro.service.client import LoopClient
    from repro.service.loadgen import request_corpus
    from repro.service.net import NetConfig, NetServer
    from repro.service.server import ServiceConfig

    corpus = request_corpus()
    served = 0
    retries = 0
    server = NetServer(NetConfig(
        host=host, port=port, auth_secret=secret,
        service=ServiceConfig(workers=workers,
                              artifact_path=artifact or None))).start()
    bound = f"{server.host}:{server.port}"
    try:
        for i in range(sessions):
            with LoopClient(server.host, server.port,
                            session=f"session-{i}",
                            secret=secret) as client:
                for loop, config, options in corpus:
                    if client.translate(loop, config, options,
                                        deadline_s=600.0) is not None:
                        served += 1
                retries += client.stats.retries
    finally:
        stats = server.stop()
        orphans = server.active_connections()
    expected = sessions * len(corpus)
    lines = [
        f"service: {workers} worker(s) on {bound}, {sessions} "
        f"sessions x {len(corpus)} translate requests over TCP",
        f"  submitted {stats.submitted}  completed {stats.completed}  "
        f"served {served}/{expected}",
        f"  core translations {stats.translated}  "
        f"single-flight dedup hits {stats.dedup_hits}  "
        f"client transport retries {retries}",
        f"  drained: {'yes' if stats.drained else 'NO'}  "
        f"orphaned connections: {orphans}",
    ]
    ok = stats.drained and served == expected and orphans == 0
    return "\n".join(lines), ok


def cmd_serve_cluster(host: str, shards: int, sessions: int,
                      secret: Optional[str] = None,
                      artifact: Optional[str] = None) -> tuple[str, bool]:
    """The ``serve`` smoke as a sharded cluster: boot a supervised
    N-shard fleet, drive the multi-session translate corpus through
    failover :class:`~repro.service.cluster.ClusterClient` connections
    (digest routing, shard-moved redirects and the shard map all
    exercised on real sockets), kill one shard mid-workload to prove
    supervised failover, and stop.  Returns the printable summary and
    whether everything was served, the fleet healed, and zero shard
    processes were orphaned.
    """
    from repro.service.cluster import (
        ClusterClient,
        ClusterConfig,
        ShardSupervisor,
    )
    from repro.service.loadgen import request_corpus
    from repro.service.server import ServiceConfig

    corpus = request_corpus()
    served = 0
    failovers = 0
    moved = 0
    supervisor = ShardSupervisor(ClusterConfig(
        shards=shards, host=host, auth_secret=secret,
        service=ServiceConfig(
            workers=1, artifact_path=artifact or None))).start()
    try:
        seed_host, seed_port = supervisor.seed_address()
        killed = False
        for i in range(sessions):
            with ClusterClient(seed_host, seed_port,
                               session=f"session-{i}",
                               secret=secret).connect() as client:
                for index, item in enumerate(corpus):
                    if (not killed and shards > 1
                            and i == sessions - 1
                            and index == len(corpus) // 2):
                        # Mid-workload SIGKILL: the rest of this
                        # session must ride the failover path.
                        supervisor.kill_shard(0)
                        killed = True
                    if client.translate(*item,
                                        deadline_s=600.0) is not None:
                        served += 1
                failovers += client.stats.failovers
                moved += client.stats.moved
        healed = supervisor.wait_converged(90.0)
        final_map = supervisor.map
    finally:
        supervisor.stop()
    orphans = supervisor.orphan_pids()
    expected = sessions * len(corpus)
    lines = [
        f"cluster: {shards} shard(s) on {host}, {sessions} sessions x "
        f"{len(corpus)} translate requests through failover clients",
        f"  served {served}/{expected}  failovers {failovers}  "
        f"shard-moved redirects {moved}",
        f"  shard 0 SIGKILLed mid-workload: "
        f"{'yes' if killed else 'no (single shard)'}  "
        f"healed: {'yes' if healed else 'NO'} "
        f"(map v{final_map.version})",
        f"  orphaned shard processes: {len(orphans)}",
    ]
    ok = served == expected and healed and not orphans
    return "\n".join(lines), ok


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


#: The chaos campaigns: subcommand -> (help, default --faults).
_CAMPAIGNS = {
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
    faults = sub.add_parser("faults",
                            help="seeded fault-injection campaign against "
                                 "the guarded runtime")
    faults.add_argument("--injections", "-n", type=int, default=120,
                        help="bit flips to inject (default 120)")
    faults.add_argument("--seed", type=int, default=2008,
                        help="campaign RNG seed (default 2008)")
    faults.add_argument("--guard", choices=("checked", "off"),
                        default="checked",
                        help="guard mode under test (default checked)")
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
    xp.add_argument("--jobs", "-j", type=int, default=None,
                    help="override the preset's sweep fan-out")
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
    trace.add_argument("--jobs", "-j", type=int, default=None,
                       help="worker processes for sweep fan-out "
                            "(default: REPRO_JOBS or 1)")
    serve = sub.add_parser("serve",
                           help="boot the loop-acceleration service, "
                                "serve a short multi-session workload, "
                                "drain")
    serve.add_argument("--workers", "-w", type=int, default=1,
                       help="translation worker processes (default 1)")
    serve.add_argument("--sessions", type=int, default=3,
                       help="concurrent client sessions (default 3)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address for --port mode "
                            "(default 127.0.0.1)")
    serve.add_argument("--port", "-p", type=int, default=None,
                       help="serve over TCP on this port (0 = pick a "
                            "free one); omit for the in-process smoke")
    serve.add_argument("--secret", default=os.environ.get(
                           "REPRO_SERVICE_SECRET"),
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
    serve.add_argument("--artifact", default=os.environ.get(
                           "REPRO_ARTIFACT"),
                       help="AOT artifact file loaded into each "
                            "server/shard at startup (default: "
                            "REPRO_ARTIFACT)")
    aot = sub.add_parser("aot",
                         help="build or inspect ahead-of-time "
                              "translation artifacts")
    aot.add_argument("action", choices=("build", "inspect"),
                     help="build: translate the workload suite into an "
                          "artifact; inspect: print an artifact's "
                          "manifest")
    aot.add_argument("path", nargs="?", default=None,
                     help="artifact file (default benchmarks/results/"
                          "suite.rvaf)")
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
    for name, (description, _fn) in FIGURES.items():
        fig = sub.add_parser(name, help=description)
        fig.add_argument("--output", "-o", default=None,
                         help="also write the table to this file")
        fig.add_argument("--jobs", "-j", type=int, default=None,
                         help="worker processes for sweep fan-out "
                              "(default: REPRO_JOBS or 1)")
        fig.add_argument("--trace", default=None, metavar="PATH",
                         help="also write a JSONL span trace to PATH")
    args = parser.parse_args(argv)

    # One validated Settings loader covers every knob (--jobs,
    # REPRO_JOBS, REPRO_CACHE_DIR, REPRO_INCIDENT_LOG); an unusable
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
    try:
        Settings.from_env(environ,
                          jobs=getattr(args, "jobs", None)).apply()
    except (SettingsError, CacheConfigError, ArtifactError) as exc:
        print(f"error: [{exc.kind}] {exc}", file=sys.stderr)
        return 2

    if args.command in (None, "list"):
        width = max(len(n) for n in FIGURES)
        for name, (description, _fn) in FIGURES.items():
            print(f"  {name.ljust(width)}  {description}")
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
              f"(serve a workload, drain; --port for TCP)")
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
    if args.command == "faults":
        from repro.faults import format_campaign
        report = cmd_faults(args.injections, args.seed, args.guard)
        print(format_campaign(report))
        # CI gates on this: any unexpected failure is a non-zero exit.
        return 0 if report.ok else 1
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
            overrides = {}
            if args.figures:
                overrides["figures"] = tuple(args.figures.split(","))
            if args.jobs is not None:
                overrides["jobs"] = args.jobs
            if overrides:
                config = config.with_(**overrides)
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
        _description, fn = FIGURES[args.figure]
        with _traced(path, "figure", figure=args.figure):
            text = fn()
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
                print(f"artifact {path!r} failed validation and was "
                      f"quarantined (see the incident log)",
                      file=sys.stderr)
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
        shards = (args.shards if args.shards is not None
                  else int(os.environ.get("REPRO_SHARDS", "1")))

        def _serve() -> tuple[str, bool]:
            try:
                if shards > 1:
                    return cmd_serve_cluster(args.host, shards,
                                             args.sessions,
                                             secret=args.secret,
                                             artifact=args.artifact)
                if args.port is not None:
                    return cmd_serve_net(args.host, args.port,
                                         args.workers, args.sessions,
                                         secret=args.secret,
                                         artifact=args.artifact)
                return cmd_serve(args.workers, args.sessions,
                                 artifact=args.artifact)
            except (TransportError, ArtifactError) as exc:
                # A refused bind (non-loopback without --secret) or a
                # missing named artifact is a configuration error, not
                # a crash.
                return f"error: [{exc.kind}] {exc}", False
        with _traced(args.trace, "serve", workers=args.workers,
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
    _description, fn = FIGURES[args.command]
    with _traced(args.trace, "figure", figure=args.command):
        text = fn()
    print(text)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
