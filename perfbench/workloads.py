"""The three benchmark workloads.

Each workload drives the program through its public entry points
(``repro.api`` and ``repro.service``) and has the same shape:

* ``setup()`` -- the work done before anything is measured (timed as
  ``setup_s``);
* ``round(rec, tracer)`` -- one *cold* pass and one *warm* pass over the
  workload's operations, each operation timed and checked;
* ``verify(rec)`` -- output checks that need a reference computed
  outside the timed region;
* ``sim_metrics()`` -- the modelled (exact) quantities of the loops the
  workload exercises: geometric-mean loop speedup and mean translation
  cost in thousands of instructions;
* ``teardown()``.

All inputs derive from the ``seed`` passed to the constructor; the
program only ever sees the generated loops.
"""

from __future__ import annotations

import contextlib
import math
import os
import random
import threading
import time
from dataclasses import astuple
from typing import Iterator, Optional

from repro import api, perf
from repro.accelerator import jit
from repro.service.loadgen import request_corpus
from repro.service.net import NetConfig, NetServer
from repro.service.server import ServiceConfig
from repro.workloads.generator import GeneratorSpec, generate_loop
from repro.workloads.suite import media_fp_benchmarks

from tracer import NULL

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(REPO_ROOT, "benchmarks", "results")


#: Time the calibration kernel takes on this benchmark's reference
#: machine (a 2-vCPU x86-64 VM, CPython 3.11, otherwise idle).
REFERENCE_CALIBRATION_S = 0.0040


def _calibration_kernel() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(24000):
        table[i & 255] = table.get(i & 255, 0) + i
        acc += (i * 7) % 13
    return acc + len(sorted(str(i) for i in range(8000)))


def speed_factor() -> float:
    """How much faster the host runs right now than the reference machine.

    The host the benchmark runs on is shared, and its speed drifts by
    tens of percent over seconds to minutes.  A fixed pure-Python
    kernel timed next to each measurement slows down with it, so every
    time the benchmark reports is scaled by this factor: it reads as
    seconds on the reference machine.  The median of five short runs
    keeps one preempted run from setting the factor.
    """
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        _calibration_kernel()
        samples.append(time.perf_counter() - started)
    samples.sort()
    return REFERENCE_CALIBRATION_S / samples[2]


#: Shortest stretch of a pass scaled by one pair of calibrations.
SEGMENT_S = 0.5


class Recorder:
    """Per-operation latencies, pass walls and failure counts.

    Times are stored calibrated (see :func:`speed_factor`).  A pass is
    cut into segments at :meth:`checkpoint` calls; each segment is
    bracketed by two calibrations, and its time and the latencies of
    its operations are scaled by their mean factor.  Calibration time
    is not part of any pass.

    ``raw_s`` is the uncalibrated time of all passes, and ``driven_s``
    the uncalibrated thread-seconds of work done inside tracer root
    spans, both by this recorder's own clock: the traced run reconciles
    the layer self times against them.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.latencies_ms: list[float] = []
        self.cold_s: list[float] = []
        self.warm_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.raw_s = 0.0
        self.driven_s = 0.0

    def op(self, seconds: float, ok: bool) -> None:
        with self._lock:
            self.latencies_ms.append(seconds * 1000.0)
            self.attempted += 1
            if not ok:
                self.failed += 1

    def fail(self, count: int = 1) -> None:
        with self._lock:
            self.failed += count

    def drove(self, seconds: float) -> None:
        """Add the measured wall of one stretch run inside a root span."""
        with self._lock:
            self.driven_s += seconds

    @contextlib.contextmanager
    def timed_pass(self, warm: bool, tracer=None) -> Iterator[None]:
        """Time one pass; its operations must finish inside the block.

        With a *tracer*, the calling thread does the pass's work itself:
        every segment runs inside a root span of its own, so the
        calibrations between segments stay outside the roots.
        """
        self._tracer = tracer
        self._pass_s = 0.0
        self._open_segment(speed_factor())
        yield
        self._close_segment()
        (self.warm_s if warm else self.cold_s).append(self._pass_s)

    def checkpoint(self) -> None:
        """Called between operations while no operation is running:
        closes the current segment once it is long enough."""
        if time.perf_counter() - self._segment_start >= SEGMENT_S:
            self._open_segment(self._close_segment())

    def _open_segment(self, factor: float) -> None:
        self._segment_factor = factor
        self._segment_first = len(self.latencies_ms)
        self._root = contextlib.ExitStack()
        if self._tracer is not None:
            self._root.enter_context(self._tracer.root())
        self._segment_start = time.perf_counter()

    def _close_segment(self) -> float:
        elapsed = time.perf_counter() - self._segment_start
        self._root.close()
        self.raw_s += elapsed
        if self._tracer is not None:
            self.drove(elapsed)
        end_factor = speed_factor()
        factor = (self._segment_factor + end_factor) / 2
        first = self._segment_first
        self.latencies_ms[first:] = [latency * factor for latency
                                     in self.latencies_ms[first:]]
        self._pass_s += elapsed * factor
        return end_factor


def spec_seed(seed: int, purpose: int, index: int) -> int:
    """A generator seed unique per (run seed, purpose, index).

    Generated loops are named after their generator seed, and the VM
    memoises translations by loop name, so names must never collide.
    """
    return ((seed * 8 + purpose) * 1_000_003 + index) % (1 << 62)


def data_seed(seed: int, *parts: int) -> int:
    value = seed
    for part in parts:
        value = (value * 1_000_003 + part) % (1 << 31)
    return value


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _sim(speedups: list[float], instructions: list[float]) -> dict:
    return {"sim_speedup_geomean": geomean(speedups),
            "sim_translate_kinstr": sum(instructions)
            / len(instructions) / 1000.0}


def outcome_fields(outcome) -> tuple:
    """The ``LoopOutcome`` fields the kernels check compares."""
    return (outcome.accelerated, outcome.accel_cycles_per_invocation,
            outcome.ii, outcome.stage_count,
            outcome.translation_instructions)


def translation_fields(result) -> tuple:
    """A comparable digest of a ``TranslationResult``."""
    image = result.image
    return (result.loop_name, result.ok, result.failure_kind,
            None if image is None else (image.ii, image.stage_count),
            result.instructions, tuple(sorted(result.meter.units.items())))


# -- sweep ----------------------------------------------------------------------

#: Figure name -> committed output file (which carries one extra
#: trailing newline).
SWEEP_FIGURES = {
    "fig3a": "fig3a_function_units.txt",
    "fig3b": "fig3b_registers.txt",
    "fig4a": "fig4a_streams.txt",
    "fig4b": "fig4b_max_ii.txt",
}


class Sweep:
    """Regenerate the Figure 3/4 design-space sweeps, cold then warm.

    The inputs are the paper's fixed suite, so the seed selects nothing.
    The accelerator is only timed through ``estimate`` here: this
    workload is bound by the translator and its cache, and bypasses the
    JIT.
    """

    name = "sweep"

    def __init__(self, seed: int, figures=tuple(SWEEP_FIGURES)) -> None:
        self.seed = seed
        self.figures = tuple(figures)
        self.expected = {}
        for figure in self.figures:
            path = os.path.join(RESULTS_DIR, SWEEP_FIGURES[figure])
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            self.expected[figure] = text[:-1] if text.endswith("\n") \
                else text

    def setup(self) -> None:
        self.suite = media_fp_benchmarks()

    def _pass(self, rec: Recorder) -> None:
        for figure in self.figures:
            t0 = time.perf_counter()
            try:
                ok = api.run_figure(figure, jobs=1) == self.expected[figure]
            except Exception:  # noqa: BLE001 -- counted as a failed op
                ok = False
            rec.op(time.perf_counter() - t0, ok)
            rec.checkpoint()

    def round(self, rec: Recorder, tracer=NULL) -> None:
        perf.clear_caches()
        for warm in (False, True):
            with rec.timed_pass(warm, tracer):
                self._pass(rec)

    def verify(self, rec: Recorder) -> None:
        """Figure text is checked inline against the committed files."""

    def sim_metrics(self) -> dict:
        session = api.Session(functional=False)
        outcomes = [session.run_loop(loop, scalars=bench.scalars,
                                     seed=bench.data_seed)
                    for bench in self.suite for loop in bench.kernels]
        return _sim([o.loop_speedup for o in outcomes],
                    [o.translation_instructions for o in outcomes])

    def teardown(self) -> None:
        self.suite = None


# -- kernels ----------------------------------------------------------------------

#: Trip counts of the generated corpus; every shape appears at each.
KERNEL_TRIPS = (256, 512, 1024, 2048, 4096)
#: Generated loop shapes (``GeneratorSpec`` fields).  The seed picks
#: the concrete ops, operands and stream offsets within each shape, so
#: it changes the loops but hardly the amount of work.  A larger op
#: count at three load streams starts to fail on register pressure.
KERNEL_SHAPES = (
    dict(n_ops=8, n_load_streams=2, n_store_streams=1, n_recurrences=1,
         recurrence_length=2, fp_fraction=0.0, use_predication=True),
    dict(n_ops=16, n_load_streams=2, n_store_streams=1, n_recurrences=0,
         fp_fraction=0.0, use_predication=False),
    dict(n_ops=22, n_load_streams=3, n_store_streams=1, n_recurrences=1,
         recurrence_length=3, fp_fraction=0.0, use_predication=True),
    dict(n_ops=14, n_load_streams=2, n_store_streams=1, n_recurrences=0,
         fp_fraction=0.4, use_predication=False),
    dict(n_ops=10, n_load_streams=1, n_store_streams=1, n_recurrences=2,
         recurrence_length=4, fp_fraction=0.0, use_predication=True),
    dict(n_ops=18, n_load_streams=3, n_store_streams=0, n_recurrences=1,
         recurrence_length=2, fp_fraction=0.2, use_predication=False),
)


#: Invocations of every loop per pass, each with its own data seed.
INVOCATIONS = 2


def make_loop(shape: dict, trip_count: int, seed: int):
    return generate_loop(GeneratorSpec(trip_count=trip_count, seed=seed,
                                       **shape))


class Kernels:
    """Run a seeded corpus of generated loops plus the suite kernels.

    The corpus is stratified -- every shape at every trip count -- so
    the seed changes the loops but not the amount of work.  Translation
    happens in set-up; each pass invokes every loop ``INVOCATIONS``
    times with distinct data seeds, so the first call of a cold pass
    pays JIT specialisation and the rest hit the JIT code cache.
    """

    name = "kernels"

    def __init__(self, seed: int, trips=KERNEL_TRIPS, shapes=KERNEL_SHAPES,
                 suite: bool = True) -> None:
        self.seed = seed
        self.use_suite = suite
        self.specs = [(shape, trip_count)
                      for shape in shapes for trip_count in trips]
        self.reference: Optional[list] = None
        self._observed: list[tuple[int, tuple]] = []
        self._passes = 0

    def setup(self) -> None:
        loops = [(make_loop(shape, trip_count, spec_seed(self.seed, 1, i)),
                  None)
                 for i, (shape, trip_count) in enumerate(self.specs)]
        if self.use_suite:
            loops += [(loop, bench.scalars) for bench in media_fp_benchmarks()
                      for loop in bench.kernels]
        session = api.Session()
        for loop, _scalars in loops:
            session.translate(loop)
        self.loops = loops

    def _pass(self, session: api.Session, rec: Recorder) -> None:
        self._passes += 1
        for index, (loop, scalars) in enumerate(self.loops):
            for k in range(INVOCATIONS):
                seed = data_seed(self.seed, self._passes, index, k)
                t0 = time.perf_counter()
                try:
                    outcome = session.run_loop(loop, scalars=scalars,
                                               seed=seed)
                except Exception:  # noqa: BLE001 -- counted as failed
                    rec.op(time.perf_counter() - t0, False)
                    continue
                rec.op(time.perf_counter() - t0, True)
                self._observed.append((index, outcome_fields(outcome)))
            rec.checkpoint()

    def round(self, rec: Recorder, tracer=NULL) -> None:
        jit.clear_code_cache()
        session = api.Session()
        for warm in (False, True):
            with rec.timed_pass(warm, tracer):
                self._pass(session, rec)

    def _reference(self) -> list:
        """Engine-0 outcomes, one per loop.

        The compared fields depend on the loop and the machine, not on
        the array contents (the corpus has no data-dependent exits), so
        one reference invocation covers every data seed.
        """
        if self.reference is None:
            with perf.engine_at(0):
                session = api.Session()
                self.reference = [
                    session.run_loop(loop, scalars=scalars,
                                     seed=data_seed(self.seed, 0, index))
                    for index, (loop, scalars) in enumerate(self.loops)]
        return self.reference

    def verify(self, rec: Recorder) -> None:
        expected = [outcome_fields(o) for o in self._reference()]
        wrong = sum(1 for index, fields in self._observed
                    if fields != expected[index])
        self._observed = []
        rec.fail(wrong)

    def sim_metrics(self) -> dict:
        reference = self._reference()
        return _sim([o.loop_speedup for o in reference],
                    [o.translation_instructions for o in reference])

    def teardown(self) -> None:
        self.loops = []


# -- service ----------------------------------------------------------------------

#: Trip counts of the always-missing ``translate`` loops (every
#: corpus shape) and of the small ``run_loop`` loops (the first two).
FRESH_TRIPS = (64, 128, 256, 512)
RUN_TRIPS = (64, 128, 256)

CLIENTS = 2
#: Requests between two meeting points of the clients.
CHUNK = 100
#: Shares of a pass's requests that ``translate`` a freshly generated
#: loop (always a miss) and that ``run_loop`` a pool loop; the rest
#: ``translate`` the warmed hot set.
FRESH_SHARE = 0.1
RUN_SHARE = 0.1
#: Data seeds per run-pool loop.  A small fixed set lets the engine-0
#: reference of each (loop, seed) be computed once per run, outside the
#: timed region, and reused by every later round.
RUN_SEEDS = 4


class Service:
    """A closed loop against an in-process ``NetServer(workers=1)``.

    Two client threads each hold one connection and wait for each reply
    before sending the next request.  Every pass sends its own seeded
    list of requests -- 80 % ``translate`` on the hot set warmed in
    set-up, 10 % ``translate`` on freshly generated loops (always
    misses), 10 % small ``run_loop`` calls.  Both passes of a round
    therefore have the same mix; ``wall_s`` and ``warm_wall_s`` are the
    first and the second pass.

    Replies are checked against direct ``repro.api`` calls made at
    engine 0, which bypasses the translation cache the server fills,
    so a wrong cache entry cannot check itself.
    """

    name = "service"

    def __init__(self, seed: int, requests: int = 400, run_pool: int = 16,
                 hot_limit: Optional[int] = None) -> None:
        self.seed = seed
        self.requests = requests
        self.fresh = int(round(requests * FRESH_SHARE))
        self.runs = int(round(requests * RUN_SHARE))
        self.hot_limit = hot_limit
        self.run_pool_size = run_pool
        self._passes = 0
        self._lock = threading.Lock()
        self._observed: list[tuple[tuple, object]] = []
        #: Reference replies; all but the fresh ones are kept.
        self._reference: dict[tuple, object] = {}
        #: This round's fresh loops, by request key.
        self._fresh: dict[tuple, object] = {}
        self.server: Optional[NetServer] = None
        self.clients: list = []

    # -- lifecycle -----------------------------------------------------

    def setup(self) -> None:
        self._threads_before = set(threading.enumerate())
        self.hot = request_corpus()[:self.hot_limit]
        self.run_pool = [make_loop(KERNEL_SHAPES[i % 2],
                                   RUN_TRIPS[i % len(RUN_TRIPS)],
                                   spec_seed(self.seed, 2, i))
                         for i in range(self.run_pool_size)]
        self.server = NetServer(NetConfig(
            service=ServiceConfig(workers=1))).start()
        settings = api.Settings()
        self.clients = [api.connect("127.0.0.1", self.server.port,
                                    settings=settings,
                                    session=f"bench-{index}")
                        for index in range(CLIENTS)]
        warm = self.clients[0]
        for loop, config, options in self.hot:
            warm.translate(loop, config, options)
        for index, loop in enumerate(self.run_pool):
            warm.run_loop(loop, seed=data_seed(self.seed, 0, index))

    def teardown(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.server.stop()
            leaked = self.server.active_connections()
            self.server = None
            if leaked:
                raise RuntimeError(f"{leaked} connections outlived the "
                                   f"server")
        deadline = time.monotonic() + 5.0
        while True:
            extra = [t for t in threading.enumerate()
                     if t not in self._threads_before and t.is_alive()]
            if not extra:
                return
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"threads outlived the run: "
                    f"{sorted(t.name for t in extra)}")
            time.sleep(0.01)

    # -- requests ------------------------------------------------------

    def _build_pass(self) -> list[tuple]:
        """The seeded request list of the next pass: (key, op, args)."""
        n = self._passes
        self._passes += 1
        rng = random.Random(data_seed(self.seed, 1, n))
        fresh = [make_loop(KERNEL_SHAPES[i % len(KERNEL_SHAPES)],
                           FRESH_TRIPS[i % len(FRESH_TRIPS)],
                           spec_seed(self.seed, 3, n * 10_000 + i))
                 for i in range(self.fresh)]
        requests = []
        for loop in fresh:
            key = ("fresh", loop.name)
            self._fresh[key] = loop
            requests.append((key, "translate", (loop, None, None)))
        for _ in range(self.runs):
            index = rng.randrange(len(self.run_pool))
            seed = data_seed(self.seed, 4, index, rng.randrange(RUN_SEEDS))
            requests.append((("run", index, seed), "run_loop",
                             (self.run_pool[index], seed)))
        for _ in range(self.requests - len(requests)):
            index = rng.randrange(len(self.hot))
            requests.append((("hot", index), "translate", self.hot[index]))
        rng.shuffle(requests)
        return requests

    @staticmethod
    def _issue(client, op: str, args: tuple):
        if op == "translate":
            return translation_fields(client.translate(*args))
        loop, seed = args
        return astuple(client.run_loop(loop, seed=seed))

    def _client_pass(self, client, requests: list, rec: Recorder,
                     tracer) -> None:
        observed = []
        started = time.perf_counter()
        with tracer.root():
            for key, op, args in requests:
                t0 = time.perf_counter()
                try:
                    reply = self._issue(client, op, args)
                except Exception:  # noqa: BLE001 -- counted as failed
                    rec.op(time.perf_counter() - t0, False)
                    continue
                rec.op(time.perf_counter() - t0, True)
                observed.append((key, reply))
        rec.drove(time.perf_counter() - started)
        with self._lock:
            self._observed.extend(observed)

    def _pass(self, requests: list, rec: Recorder, tracer) -> None:
        # The clients meet every CHUNK requests, so the pass can be
        # calibrated while no request is in flight.
        for start in range(0, len(requests), CHUNK):
            chunk = requests[start:start + CHUNK]
            threads = [threading.Thread(
                           target=self._client_pass,
                           args=(client, chunk[index::CLIENTS], rec,
                                 tracer),
                           name=f"perfbench-client-{index}")
                       for index, client in enumerate(self.clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            rec.checkpoint()

    def round(self, rec: Recorder, tracer=NULL) -> None:
        for warm in (False, True):
            started = time.perf_counter()
            with tracer.root():
                requests = self._build_pass()
            rec.drove(time.perf_counter() - started)
            # The client threads drive the pass, not this one.
            with rec.timed_pass(warm):
                self._pass(requests, rec, tracer)

    # -- checks --------------------------------------------------------

    def _direct(self, key: tuple):
        """The in-process ``repro.api`` result a request must equal."""
        if key not in self._reference:
            kind = key[0]
            if kind == "run":
                _, index, seed = key
                self._reference[key] = astuple(api.run_loop(
                    self.run_pool[index], seed=seed))
            else:
                args = self.hot[key[1]] if kind == "hot" \
                    else (self._fresh[key],)
                self._reference[key] = translation_fields(
                    api.translate(*args))
        return self._reference[key]

    def verify(self, rec: Recorder) -> None:
        with perf.engine_at(0):
            wrong = sum(1 for key, reply in self._observed
                        if reply != self._direct(key))
        self._observed = []
        # Fresh loops never recur: drop them, so memory stays flat.
        for key in self._fresh:
            self._reference.pop(key, None)
        self._fresh.clear()
        rec.fail(wrong)

    def sim_metrics(self) -> dict:
        """Over the hot set (fixed) and the run-loop pool (seeded)."""
        results = [api.translate(*request) for request in self.hot]
        outcomes = [api.run_loop(loop, config, options)
                    for loop, config, options in self.hot]
        outcomes += [api.run_loop(loop, seed=data_seed(self.seed, 0, index))
                     for index, loop in enumerate(self.run_pool)]
        return _sim([o.loop_speedup for o in outcomes],
                    [r.instructions for r in results])


WORKLOADS = {cls.name: cls for cls in (Sweep, Kernels, Service)}
