"""Faults family plugin: the guarded runtime under datapath upsets.

``python -m repro faults`` invokes translated kernels through one
:class:`~repro.vm.guard.GuardedExecutor` while a single bit flips in
the register file, a stream FIFO or a CCA output of the overlapped
pipeline executor, or in a live-out of the specialized (engine tier 2)
kernel.  Each scenario compares the final architectural state
(live-outs + touched memory) with a fault-free scalar run of the same
loop over the same data, and the engine
(:mod:`repro.resilience.campaign`) proves two properties:

* **No silent corruption**: every fired fault is either *benign* (final
  state bit-identical: the flip landed on a dead or masked value) or
  detected by the differential guard, which deoptimizes the loop,
  commits the scalar results and logs a ``guard-violation`` incident.
* **Full recovery**: whatever the detection, the state the application
  observes after every invocation equals the fault-free scalar run.

Single-event-upset model: the :class:`FaultInjector` is a
:data:`~repro.vm.guard.FaultHook` — the overlapped pipeline executor
passes every value it writes into machine state through the hook,
tagged with the physical site it lands in — that counts the events at
each site and corrupts exactly the ``target_index``-th one at its own.
"""

from __future__ import annotations

import enum
import functools
import struct
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro import perf
from repro.accelerator import PROPOSED_LA, jit
from repro.cpu.interpreter import Interpreter, standard_live_ins
from repro.cpu.memory import Memory, Value
from repro.errors import GuardViolation
from repro.ir.loop import Loop
from repro.ir.opcodes import wrap64
from repro.resilience.campaign import Campaign, Plugin, Scenario
from repro.vm.guard import GuardConfig, GuardedExecutor, differential_check
from repro.vm.translator import translate_loop
from repro.workloads import kernels as K
from repro.workloads.suite import DEFAULT_SCALARS

#: Strikes before a loop is benched for good: high, so kernels keep
#: re-entering accelerated execution after their backoff expires
#: (re-translation after a deopt is part of what the campaign covers).
MAX_FAILURES = 10_000
#: First backoff after a strike, doubling per strike up to the guard's
#: cap (:data:`~repro.vm.guard.MAX_BACKOFF_DOUBLINGS`).
BACKOFF_INVOCATIONS = 2
#: Benched draws (scalar runs of a loop in backoff) a campaign may make
#: per fault it asks for.  Past that, a benched draw ends its scenario
#: unfired, so the engine's scenario cap bounds the campaign even when
#: every kernel is benched.
SKIP_BUDGET_PER_FAULT = 20
#: The JIT family's name; it runs only at engine tier 2.
JIT_LIVE_OUT = "jit-live-out"


class FaultSite(enum.Enum):
    """Where in the accelerator datapath the upset lands."""

    REGFILE = "regfile"  # FU result entering the rotating register file
    FIFO = "fifo"        # load data sitting in a stream FIFO
    CCA = "cca"          # output of the combined computation array


def flip_bit(value: Value, bit: int) -> Value:
    """Flip one bit of *value*'s machine representation.

    Integers flip in 64-bit two's complement (re-wrapped so the result
    stays a valid interpreter value); floats flip in their IEEE-754
    binary64 image, which may yield an infinity or NaN — real upsets do.
    """
    if isinstance(value, float):
        (bits,) = struct.unpack("<Q", struct.pack("<d", value))
        bits ^= 1 << (bit % 64)
        (flipped,) = struct.unpack("<d", struct.pack("<Q", bits))
        return flipped
    return wrap64(int(value) ^ (1 << (bit % 64)))


@dataclass(frozen=True)
class FaultSpec:
    """One planned injection: which site, which dynamic event, which bit."""

    site: FaultSite
    target_index: int
    bit: int


@dataclass
class FaultInjector:
    """Stateful hook that fires its spec exactly once.

    ``fired`` reports whether the targeted dynamic event occurred during
    the run; ``events`` counts the values that passed the spec's site
    and ``site_events`` those at every site, which the campaign's dry
    run uses to aim its specs at real dynamic events.
    """

    spec: FaultSpec
    fired: bool = False
    events: int = 0
    site_events: dict[str, int] = field(default_factory=dict)
    corrupted_detail: Optional[str] = None

    def __call__(self, site: str, op, k: int, reg, value: Value) -> Value:
        self.site_events[site] = self.site_events.get(site, 0) + 1
        if site != self.spec.site.value:
            return value
        index = self.events
        self.events += 1
        if self.fired or index != self.spec.target_index:
            return value
        corrupted = flip_bit(value, self.spec.bit)
        self.fired = True
        self.corrupted_detail = (
            f"{site} op{op.opid} iter {k} {reg}: {value!r} -> {corrupted!r} "
            f"(bit {self.spec.bit % 64})")
        return corrupted


def default_campaign_kernels() -> list[Loop]:
    """Fixed-trip kernels that translate cleanly on the proposed LA."""
    trip = 24
    return [
        K.fir_filter(taps=6, trip_count=trip),
        K.daxpy(trip_count=trip),
        K.sad_16(trip_count=trip),
        K.adpcm_decode(trip_count=trip),
        K.quantize(trip_count=trip),
        K.checksum(trip_count=trip),
        K.upsample(trip_count=trip),
        K.stencil5(trip_count=trip),
        K.color_convert(trip_count=trip),
        K.viterbi_acs(trip_count=trip),
    ]


def _seeded(loop: Loop, rng: np.random.Generator) -> Memory:
    """Fresh memory with every array seeded from *rng*."""
    return Memory.seeded(loop.arrays, rng, ints=(-100, 100),
                         floats=(-8.0, 8.0))


class Datapath(Plugin):
    name = "faults"
    title = "Fault-injection campaign"
    guarantee = "no silent corruption, full recovery"
    # Benign flips leave no incident, and a detection is logged under
    # the guard's kind, not the site's: each scenario checks its own.
    accounted_per_scenario = True

    def __init__(self, guard: str = "checked"):
        self.guard = GuardConfig(mode=guard, max_failures=MAX_FAILURES,
                                 backoff_invocations=BACKOFF_INVOCATIONS)
        self.families: dict[str, Callable[[Campaign], Scenario]] = {
            site.value: functools.partial(self._upset, site)
            for site in FaultSite}
        if perf.engine_level() >= 2:
            # Below tier 2 no specialized kernel runs, so the hook
            # would never fire.
            self.families[JIT_LIVE_OUT] = self._jit_live_out

    def describe(self) -> str:
        return f"guard mode {self.guard.mode!r}"

    def setup(self, campaign: Campaign) -> None:
        # One executor for every family, as a production VM runs one:
        # the guard's capped backoff keeps a kernel struck by several
        # families benched for a bounded number of invocations.
        self.executor = GuardedExecutor(PROPOSED_LA, self.guard)
        #: Fired faults by outcome, and detections by family.
        self.outcomes: Counter = Counter()
        self.detections: Counter = Counter()
        self.profiles: dict[str, dict[str, int]] = {}
        self.loops: list[Loop] = []
        # Dry run every kernel once: a clean translation and guard pass,
        # and how many injectable events each site offers.
        for loop in default_campaign_kernels():
            result = translate_loop(loop, PROPOSED_LA)
            if not result.ok:
                campaign.note(f"skipping {loop.name}: {result.failure}")
                continue
            image = result.image
            # Target -1 never fires: the injector only counts events.
            profiler = FaultInjector(FaultSpec(FaultSite.REGFILE, -1, 0))
            memory = _seeded(loop, np.random.default_rng(
                campaign.report.seed))
            live_ins = standard_live_ins(image.loop, memory,
                                         DEFAULT_SCALARS)
            outcome = differential_check(image, memory, live_ins,
                                         fault_hook=profiler)
            if not outcome.verdict.ok:
                raise AssertionError(
                    f"{loop.name}: guard mismatch with no fault injected: "
                    f"{outcome.verdict.describe()}")
            self.profiles[loop.name] = profiler.site_events
            self.loops.append(loop)
        if not self.loops:
            raise ValueError("no usable kernels for the campaign")

    def _draw(self, campaign: Campaign, loops: list[Loop]
              ) -> Optional[Loop]:
        """Draw a kernel from *loops*.  A benched draw runs scalar — the
        backoff machinery at work, counted as a blacklist skip — and
        the draw is repeated; once the campaign's skips have spent
        their budget, a benched draw returns None instead."""
        executor = self.executor
        budget = SKIP_BUDGET_PER_FAULT * campaign.report.faults
        while True:
            loop = loops[int(campaign.rng.integers(0, len(loops)))]
            if not executor.blacklist.blocked(executor.key_for(loop),
                                              executor.invocations + 1):
                return loop
            if executor.stats.blacklist_skips >= budget:
                return None
            memory = _seeded(loop, campaign.rng)
            executor.run(loop, memory, standard_live_ins(
                loop, memory, DEFAULT_SCALARS))

    @staticmethod
    def _benched(campaign: Campaign, family: str) -> Scenario:
        return Scenario(index=campaign.index, family=family, target="-",
                        injected=0, accounted=0, correct=True,
                        detail="benched: blacklist skip budget spent")

    def _upset(self, site: FaultSite, campaign: Campaign) -> Scenario:
        """Flip one bit at one dynamic event of *site*."""
        loop = self._draw(campaign, [
            loop for loop in self.loops
            if self.profiles[loop.name].get(site.value)])
        if loop is None:
            return self._benched(campaign, site.value)
        rng = campaign.rng
        injector = FaultInjector(FaultSpec(
            site=site,
            target_index=int(rng.integers(
                0, self.profiles[loop.name][site.value])),
            bit=int(rng.integers(0, 64))))
        return self._inject(campaign, site.value, loop,
                            lambda: injector.corrupted_detail,
                            fault_hook=injector)

    def _jit_live_out(self, campaign: Campaign) -> Scenario:
        """Flip one bit of one live-out of the specialized kernel."""
        loop = self._draw(campaign,
                          [loop for loop in self.loops if loop.live_outs])
        if loop is None:
            return self._benched(campaign, JIT_LIVE_OUT)
        regs = sorted(loop.live_outs, key=str)
        reg = regs[int(campaign.rng.integers(0, len(regs)))]
        bit = int(campaign.rng.integers(0, 64))
        flipped: list[str] = []

        def corrupt(name: str, live_outs: dict) -> dict:
            if not flipped and name == loop.name and reg in live_outs:
                value = live_outs[reg]
                live_outs[reg] = flip_bit(value, bit)
                flipped.append(f"{JIT_LIVE_OUT} {reg}: {value!r} -> "
                               f"{live_outs[reg]!r} (bit {bit})")
            return live_outs

        jit.set_test_corruption(corrupt)
        try:
            return self._inject(campaign, JIT_LIVE_OUT, loop,
                                lambda: flipped[0] if flipped else None)
        finally:
            jit.set_test_corruption(None)

    def _inject(self, campaign: Campaign, family: str, loop: Loop,
                fired: Callable[[], Optional[str]],
                fault_hook=None) -> Scenario:
        """Run *loop* once through the executor with the fault armed
        and judge the outcome against a fault-free scalar run; *fired*
        returns the corruption's description, or None if it missed."""
        memory = _seeded(loop, campaign.rng)
        reference_mem = memory.clone()
        reference = Interpreter(reference_mem).run_loop(
            loop, dict(standard_live_ins(loop, reference_mem,
                                         DEFAULT_SCALARS)))
        run = self.executor.run(
            loop, memory, standard_live_ins(loop, memory, DEFAULT_SCALARS),
            fault_hook=fault_hook)
        correct = (memory.snapshot() == reference_mem.snapshot()
                   and run.live_outs == reference.live_outs)
        detail = fired()
        if detail is None:
            return Scenario(index=campaign.index, family=family,
                            target=loop.name, injected=0, accounted=0,
                            correct=correct, detail="never fired")
        logged = any(r.get("kind") == GuardViolation.kind
                     and r.get("details", {}).get("loop") == loop.name
                     for r in campaign.new_records())
        outcome = ("detected" if run.detected else
                   "benign" if correct else "silent corruption")
        self.outcomes[outcome] += 1
        if run.detected:
            self.detections[family] += 1
        return Scenario(
            index=campaign.index, family=family, target=loop.name,
            injected=1,
            accounted=int(logged if run.detected else correct),
            correct=correct, detail=f"{outcome}: {detail}")

    def finish(self, campaign: Campaign) -> None:
        report = campaign.report
        stats = self.executor.stats
        injected = report.injected
        detected = self.outcomes["detected"]
        benign = self.outcomes["benign"]
        silent = self.outcomes["silent corruption"]
        recovered = sum(s.injected for s in report.scenarios if s.correct)
        deopts = stats.deopts
        invalidated = self.executor.cache.stats.invalidations
        campaign.check("silent corruptions", silent == 0, str(silent))
        campaign.check("recovered bit-exact", recovered == injected,
                       f"{recovered}/{injected}")
        campaign.check("detected + benign", detected + benign == injected,
                       f"{detected} + {benign} of {injected}")
        campaign.check("deopts = detected", deopts == detected == invalidated,
                       f"{deopts} = {detected}, {invalidated} kernels "
                       f"invalidated")
        report.tables["detected by family"] = {
            family: self.detections[family] for family in self.families}
        report.tables["guarded runtime"] = {
            "(re)translations": stats.translations,
            "blacklist skips": stats.blacklist_skips,
        }

    def close(self) -> None:
        # A campaign that crashed mid-family must not leave the JIT's
        # live-out hook corrupting later runs.
        jit.set_test_corruption(None)
