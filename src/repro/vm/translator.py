"""The dynamic loop translator.

Drives the full pipeline of Section 4.1 — schedulability checking,
control/stream separation, CCA mapping, MII calculation, priority
computation, modulo scheduling, register assignment — against a concrete
accelerator, charging every phase's work into a
:class:`~repro.vm.costmodel.TranslationMeter`.

The static/dynamic tradeoffs of Section 4.2 are expressed as
:class:`TranslationOptions`:

* ``use_static_cca`` — consume the Figure 9(b) annotation instead of
  running greedy subgraph identification.
* ``use_static_priority`` — consume the Figure 9(c) ranks instead of
  computing Swing priority.
* ``priority_kind="height"`` — the cheaper height-based function (the
  "Fully Dynamic Height Priority" configuration of Figure 10).

Failures are *typed*: a failed :class:`TranslationResult` carries a
:class:`~repro.errors.TranslationError` subclass in ``failure_reason``
(the human-readable ``failure`` string derives from it), so the runtime
can blacklist, report and recover mechanically instead of parsing
strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

from repro import obs
from repro.accelerator.config import LAConfig
from repro.accelerator.machine import KernelImage
from repro.analysis.dependence import refine_memory_edges
from repro.analysis.partition import partition_loop
from repro.analysis.schedulability import check_schedulability
from repro.cca.mapper import apply_subgraphs, map_cca
from repro.errors import (
    RegisterPressureError,
    ResourceClassError,
    SchedulabilityError,
    SchedulingError,
    StreamLimitError,
    TranslationBudgetExceeded,
    TranslationError,
)
from repro.ir.dfg import build_dfg
from repro.ir.loop import Loop
from repro.ir.opcodes import LatencyModel
from repro.isa.annotations import (
    STATIC_CCA_KEY,
    STATIC_MII_KEY,
    STATIC_PRIORITY_KEY,
)
from repro.scheduler.mii import (
    FP_UNIT,
    INT_UNIT,
    LOAD_GEN,
    MIIResult,
    STORE_GEN,
    compute_rec_mii,
    compute_res_mii,
    sched_resource,
)
from repro.scheduler.priority import PriorityResult
from repro.scheduler.regalloc import fits, register_requirements
from repro.scheduler.rotation import assign_physical
from repro.scheduler.schedule import ModuloSchedule
from repro.scheduler.sms import ScheduleFailure, modulo_schedule
from repro.vm.costmodel import TranslationMeter


@dataclass(frozen=True)
class TranslationOptions:
    """Which phases run dynamically vs. consume static encodings."""

    use_static_cca: bool = False
    use_static_priority: bool = False
    #: Consume statically encoded ResMII/RecMII (the Section 4.2 option
    #: the paper evaluates and REJECTS as too architecture dependent;
    #: kept for the static_tradeoffs experiment).
    use_static_mii: bool = False
    priority_kind: str = "swing"  # "swing" or "height"
    latency_model: LatencyModel = field(default_factory=LatencyModel)
    #: Translation work budget, in meter work units; ``None`` is
    #: unbounded.  A loop whose translation charges more than this
    #: aborts cleanly with :class:`~repro.errors.TranslationBudgetExceeded`
    #: as its failure reason and keeps running on the scalar core.
    work_budget: Optional[int] = None
    #: Optional wall-clock budget (seconds) for one translation.
    deadline_s: Optional[float] = None

    @staticmethod
    def fully_dynamic() -> "TranslationOptions":
        return TranslationOptions()

    @staticmethod
    def fully_dynamic_height() -> "TranslationOptions":
        return TranslationOptions(priority_kind="height")

    @staticmethod
    def hybrid() -> "TranslationOptions":
        """Static CCA + static priority: the paper's recommendation."""
        return TranslationOptions(use_static_cca=True,
                                  use_static_priority=True)


@dataclass
class TranslationResult:
    """Outcome of translating one loop.

    ``failure_reason`` is the typed failure (None on success);
    ``failure`` remains the backward-compatible human-readable string.
    """

    loop_name: str
    image: Optional[KernelImage]
    failure_reason: Optional[TranslationError]
    meter: TranslationMeter

    @property
    def ok(self) -> bool:
        return self.image is not None

    @property
    def failure(self) -> Optional[str]:
        if self.failure_reason is None:
            return None
        return str(self.failure_reason)

    @property
    def failure_kind(self) -> Optional[str]:
        """Stable machine-readable tag of the failure (None on success)."""
        if self.failure_reason is None:
            return None
        return self.failure_reason.kind

    @property
    def instructions(self) -> float:
        return self.meter.total_instructions()


def _charge_diff(before: dict, meter: TranslationMeter) -> dict:
    """Per-phase units *meter* accumulated since the *before* snapshot."""
    return {phase: units - before.get(phase, 0)
            for phase, units in meter.units.items()
            if units != before.get(phase, 0)}


def _analysis_cacheable(meter: TranslationMeter) -> bool:
    """Whether front-end products may be replayed for this meter.

    Replaying a cached front-end charges each phase's total in one bulk
    :meth:`~repro.vm.costmodel.TranslationMeter.charge` call, which is
    only observationally identical when nothing can fire *mid-phase*: a
    work budget would abort at a different charged total and a deadline
    at a different wall-clock point, so both disable the cache.
    """
    from repro import perf
    return (perf.engine_enabled() and meter.budget_units is None
            and meter.deadline_s is None)


def _front_end(loop: Loop, config: LAConfig, options: TranslationOptions,
               meter: TranslationMeter):
    """Phases 1-2: DFG, schedulability, dependence refinement, partition.

    Everything here reads only the loop, the latency model and the
    config's speculation capability — never unit pools, streams limits,
    register files or max II — so the products (and the exact meter
    charges, including a schedulability rejection) are shared across
    every sweep point that translates the same loop.
    """
    from repro import perf

    lat = options.latency_model
    cache_key = None
    if _analysis_cacheable(meter):
        from repro.perf.digest import digest_of, loop_digest
        cache_key = digest_of("front", loop_digest(loop), lat,
                              config.supports_speculation)
        hit = perf.analysis_cache.get(cache_key)
        if hit is not None:
            outcome, payload, charges = hit
            meter.replay(charges)
            if outcome == "fail":
                raise payload
            return payload

    before = dict(meter.units)
    try:
        # Phase 1: identification / schedulability.
        dfg = build_dfg(loop, lat, work=meter.charger("identify"))
        report = check_schedulability(
            loop, dfg, work=meter.charger("identify"),
            allow_speculation=config.supports_speculation)
        if not report.ok:
            reasons = "; ".join(report.reasons) or report.category.value
            raise SchedulabilityError(
                f"not modulo schedulable: {reasons}", loop_name=loop.name,
                category=report.category.value, reasons=report.reasons)
        streams = report.streams
        assert streams is not None

        # Phase 2: separate control and memory streams.  With every
        # access proven affine, the conservative memory-ordering edges
        # are refined to exact lattice-test dependences (interleaved
        # store streams stop serialising each other).
        dfg = refine_memory_edges(loop, dfg, streams)
        part = partition_loop(loop, dfg, work=meter.charger("partition"))
    except SchedulabilityError as exc:
        if cache_key is not None:
            perf.analysis_cache[cache_key] = \
                ("fail", exc, _charge_diff(before, meter))
        raise
    payload = (dfg, streams, part)
    if cache_key is not None:
        perf.analysis_cache[cache_key] = \
            ("ok", payload, _charge_diff(before, meter))
    return payload


def _cca_map(loop: Loop, dfg, part, streams, config: LAConfig,
             options: TranslationOptions, meter: TranslationMeter):
    """Phase 3: CCA mapping plus the post-mapping re-analysis.

    The mapping reads the CCA *shape* and the compute partition, never
    the CCA *count* (ResMII and the scheduler enforce that later), so
    the mapped loop with its rebuilt DFG/partition is one cached product
    per (loop, latency model, CCA shape, static-mapping mode).
    """
    from repro import perf

    if config.num_ccas <= 0:
        return loop, dfg, part
    lat = options.latency_model
    cache_key = None
    if _analysis_cacheable(meter):
        from repro.perf.digest import digest_of, loop_digest
        cache_key = digest_of("cca", loop_digest(loop), lat, config.cca,
                              options.use_static_cca,
                              config.supports_speculation)
        hit = perf.analysis_cache.get(cache_key)
        if hit is not None:
            payload, charges = hit
            meter.replay(charges)
            return payload

    before = dict(meter.units)
    if options.use_static_cca and STATIC_CCA_KEY in loop.annotations:
        mapping = apply_subgraphs(
            loop, loop.annotations[STATIC_CCA_KEY], dfg,
            config=config.cca, candidate_opids=part.compute,
            work=meter.charger("cca"))
    else:
        mapping = map_cca(loop, dfg, config=config.cca,
                          candidate_opids=part.compute,
                          work=meter.charger("cca"))
    mapped = mapping.loop
    if mapped is not loop:
        dfg2 = refine_memory_edges(
            mapped, build_dfg(mapped, lat, work=meter.charger("partition")),
            streams)
        part2 = partition_loop(mapped, dfg2, work=meter.charger("partition"))
    else:
        dfg2, part2 = dfg, part
    payload = (mapped, dfg2, part2)
    if cache_key is not None:
        perf.analysis_cache[cache_key] = \
            (payload, _charge_diff(before, meter))
    return payload


def _translate_pipeline(loop: Loop, config: LAConfig,
                        options: TranslationOptions,
                        meter: TranslationMeter,
                        capacity_check: bool = True,
                        requirements_hook=None) -> TranslationResult:
    """The translation pipeline proper; raises TranslationError to fail.

    ``capacity_check=False`` skips the register-file ``fits`` comparison
    (the only point where register capacities are read); the cached-core
    path uses it and re-applies the check per caller in
    :func:`_finalize`.  ``requirements_hook`` observes the register
    demand the moment it is computed — before the rotation postpass
    charges the meter — so a capacity failure can later report the
    meter state the reference pipeline would have reported.
    """
    # Phases 1-2 (cached across configs; see _front_end).
    with obs.span("front_end", component="translator", meter=meter,
                  loop=loop.name):
        dfg, streams, part = _front_end(loop, config, options, meter)
    if streams.num_load_streams > config.load_streams:
        raise StreamLimitError(
            f"{streams.num_load_streams} load streams > "
            f"{config.load_streams} supported", loop_name=loop.name,
            stream_kind="load", required=streams.num_load_streams,
            available=config.load_streams)
    if streams.num_store_streams > config.store_streams:
        raise StreamLimitError(
            f"{streams.num_store_streams} store streams > "
            f"{config.store_streams} supported", loop_name=loop.name,
            stream_kind="store", required=streams.num_store_streams,
            available=config.store_streams)

    # Phase 3: CCA mapping (cached across configs; see _cca_map).
    with obs.span("cca_map", component="translator", meter=meter,
                  loop=loop.name):
        mapped, dfg2, part2 = _cca_map(loop, dfg, part, streams, config,
                                       options, meter)

    # Phase 4: minimum II.
    units = config.units()
    with obs.span("mii", component="translator", meter=meter,
                  loop=loop.name):
        if options.use_static_mii and STATIC_MII_KEY in loop.annotations:
            # "the VM could recover these values with two loads" — but the
            # recovered ResMII reflects the architecture the COMPILER saw.
            encoded = loop.annotations[STATIC_MII_KEY]
            meter.charge("resmii", 1)
            meter.charge("recmii", 1)
            mii = MIIResult(res_mii=encoded["res"], rec_mii=encoded["rec"],
                            per_resource={})
        else:
            res_mii, per_resource = compute_res_mii(
                dfg2, part2.compute, units, meter.charger("resmii"))
            rec_mii = compute_rec_mii(dfg2, part2.compute,
                                      meter.charger("recmii"))
            mii = MIIResult(res_mii=res_mii, rec_mii=rec_mii,
                            per_resource=per_resource)
    if not mii.feasible:
        missing = sorted(rc for rc, v in mii.per_resource.items()
                         if v >= 10 ** 9)
        raise ResourceClassError(
            "loop requires a resource class the accelerator lacks"
            + (f" ({', '.join(missing)})" if missing else ""),
            loop_name=loop.name,
            resource=missing[0] if missing else None)

    # Phase 5: priority.
    priority: Optional[PriorityResult] = None
    if options.use_static_priority and STATIC_PRIORITY_KEY in loop.annotations:
        with obs.span("priority_calc", component="translator", meter=meter,
                      loop=loop.name, kind="static"):
            ranks: dict[int, int] = loop.annotations[STATIC_PRIORITY_KEY]
            effective: dict[int, int] = {}
            for opid in part2.compute:
                op = mapped.op(opid)
                if op.inner:
                    member_ranks = [ranks[m.opid] for m in op.inner
                                    if m.opid in ranks and ranks[m.opid] >= 0]
                    effective[opid] = min(member_ranks) if member_ranks else 0
                else:
                    effective[opid] = ranks.get(opid, 10 ** 6)
                meter.charge("priority", 1)  # one load per op (Figure 9(c))
            order = sorted(part2.compute, key=lambda o: (effective[o], o))
            priority = PriorityResult.from_order(order)

    # Phases 5 (dynamic case) + 6: priority and scheduling.  When no
    # static ranks exist, the scheduler recomputes the priority at each
    # candidate II (charged to the priority phase), exactly the work the
    # static encoding is designed to eliminate — the span's meter-unit
    # attribution splits the two phases even though one call does both.
    with obs.span("schedule", component="translator", meter=meter,
                  loop=loop.name, priority_kind=options.priority_kind):
        result = modulo_schedule(
            dfg2, part2.compute, units, config.max_ii,
            priority=priority, priority_kind=options.priority_kind,
            work=meter.charger("scheduling"),
            priority_work=meter.charger("priority"),
            mii_result=mii)
    if isinstance(result, ScheduleFailure):
        raise SchedulingError(result.reason, loop_name=loop.name,
                              schedule_failure=result)
    schedule = result

    # Phase 7: register assignment.
    with obs.span("regalloc", component="translator", meter=meter,
                  loop=loop.name):
        registers = register_requirements(mapped, dfg2, schedule, part2,
                                          meter.charger("regalloc"))
        if requirements_hook is not None:
            requirements_hook(registers)
        if capacity_check and \
                not fits(registers, config.num_int_regs, config.num_fp_regs):
            raise RegisterPressureError(
                f"register demand (int {registers.int_regs}, fp "
                f"{registers.fp_regs}) exceeds the register files",
                loop_name=loop.name,
                int_required=registers.int_regs,
                fp_required=registers.fp_regs,
                int_available=config.num_int_regs,
                fp_available=config.num_fp_regs)

        # Modulo variable expansion: place every cross-stage value's
        # copies into physical registers (part of the register-assignment
        # postpass; validated by the rotation tests).
        rotation = assign_physical(mapped, dfg2, schedule, part2)
        meter.charge("regalloc", len(rotation.ranges) + 1)

    image = KernelImage(loop=mapped, dfg=dfg2, partition=part2,
                        schedule=schedule, streams=streams,
                        registers=registers, config=config,
                        rotation=rotation)
    return TranslationResult(loop.name, image, None, meter)


# -- content-addressed translation caching ------------------------------------
#
# The translation pipeline reads the LAConfig at exactly five points:
# stream-count checks, the unit pools fed to ResMII/scheduling, the CCA
# enable + shape, the max-II scheduling bound, and the final register
# ``fits`` comparison.  Everything else (name, bus latency, code-cache
# size, register capacities) never influences the produced schedule.
# ``_schedule_projection`` therefore maps a config onto its
# *schedule-relevant* canonical form: unit pools are clamped to the
# loop's own demand (a pool at least as large as the op count of its
# class schedules identically to an unbounded one), capacities and
# cosmetic fields are zeroed, and max II is clamped to a per-loop upper
# bound on any achievable II.  Configs that agree under the projection
# provably translate identically — so one cached core run serves the
# infinite-resource baseline and most points of every design-space
# sweep, and *all* points of a register-file sweep.
#
# Two deliberate escape hatches keep this exact rather than heuristic:
#
# * the register-capacity check is re-applied per caller in
#   ``_finalize`` (reproducing the reference pipeline's check order and
#   meter state, including budget blow-ups during rotation);
# * a scheduling failure obtained under a clamped max II does not prove
#   failure at a larger true max II (and its message embeds the bound),
#   so that one outcome triggers an exact-max-II retranslation under
#   its own cache key (``exact_fallbacks`` in the stats).


def _clamp(available: int, demand: int) -> int:
    """Canonical unit-pool size: capped at the loop's own demand."""
    return min(available, max(demand, 1))


def _schedule_projection(loop: Loop, config: LAConfig,
                         options: TranslationOptions
                         ) -> tuple[LAConfig, int]:
    """The schedule-relevant canonical form of *config* for *loop*.

    Returns ``(projected config, ii_bound)`` where ``ii_bound`` is the
    loop's own upper bound on any achievable II — the max-II value that
    behaves as unbounded for this loop.
    """
    lat = options.latency_model
    counts: dict[str, int] = {}
    latency_sum = 0
    stack = list(loop.body)
    while stack:
        op = stack.pop()
        rc = sched_resource(op)
        counts[rc] = counts.get(rc, 0) + 1
        latency_sum += max(int(lat.latency(op.opcode)), 1)
        stack.extend(op.inner)
    loads = counts.get(LOAD_GEN, 0)
    stores = counts.get(STORE_GEN, 0)
    # No schedule of this body can need an II beyond a fully serial
    # one; MII is likewise bounded by it (ResMII by the op count,
    # RecMII by the latency sum), so clamping max_ii here can only
    # convert "success/failure at the true bound" into the identical
    # outcome — except II exhaustion, which _cached_core re-derives.
    ii_bound = latency_sum + len(loop.body) + 8
    projected = config.with_(
        name="core",
        num_int_units=_clamp(config.num_int_units, counts.get(INT_UNIT, 0)),
        num_fp_units=_clamp(config.num_fp_units, counts.get(FP_UNIT, 0)),
        num_ccas=min(config.num_ccas, len(loop.body)),
        num_int_regs=0,
        num_fp_regs=0,
        load_streams=_clamp(config.load_streams, loads),
        store_streams=_clamp(config.store_streams, stores),
        load_addr_gens=_clamp(config.load_addr_gens, loads),
        store_addr_gens=_clamp(config.store_addr_gens, stores),
        max_ii=min(config.max_ii, ii_bound),
        bus_latency=0,
        code_cache_entries=0,
    )
    return projected, ii_bound


class _CacheKeys(NamedTuple):
    """The cache-path facts derived from one (loop, config, options).

    ``canon_key`` is the full-II-bound alias of ``key`` (None when the
    config's max II does not clamp below the loop's bound).
    """

    core_config: LAConfig
    ii_bound: int
    key: str
    canon_key: Optional[str]


#: Per-loop memo of :func:`_cache_keys`, keyed by (config, options
#: digest).  Like the ``loop_digest`` memo it relies on loops being
#: immutable once built, and ``Loop.__getstate__`` drops it (every
#: ``_veal_*`` attribute) from pickles, the wire and the disk.
_KEYS_ATTR = "_veal_cache_keys"


def _core_key(loop: Loop, core_config: LAConfig, opts_key: str) -> str:
    from repro.perf.digest import digest_of, loop_digest
    return digest_of("core", loop_digest(loop), core_config, opts_key)


def _cache_keys(loop: Loop, config: LAConfig,
               options: TranslationOptions) -> _CacheKeys:
    """Derive (or recall) this input's projection and cache keys."""
    from repro.perf.digest import options_digest

    opts_key = options_digest(options)
    memo = loop.__dict__.get(_KEYS_ATTR)
    if memo is None:
        memo = loop.__dict__.setdefault(_KEYS_ATTR, {})
    keys = memo.get((config, opts_key))
    if keys is None:
        core_config, ii_bound = _schedule_projection(loop, config, options)
        canon_key = None
        if core_config.max_ii < ii_bound:
            canon_key = _core_key(loop, core_config.with_(max_ii=ii_bound),
                                  opts_key)
        keys = _CacheKeys(core_config, ii_bound,
                         _core_key(loop, core_config, opts_key), canon_key)
        memo[(config, opts_key)] = keys
    return keys


def _translate_core(loop: Loop, core_config: LAConfig,
                    options: TranslationOptions):
    """Run the capacity-independent pipeline; package as a CoreEntry."""
    from repro.perf.transcache import CoreEntry, MeterSnapshot

    meter = TranslationMeter(budget_units=options.work_budget)
    entry = CoreEntry(loop_name=loop.name)
    # One increment per *actual* pipeline execution.  Unlike
    # ``translator.translations`` (per call, cache hits included) this
    # is the counter that proves single-flight dedup: N concurrent
    # submissions of one digest must move it by exactly 1.
    obs.inc("translator.core_runs")

    def _on_requirements(registers) -> None:
        entry.requirements = registers
        entry.meter_at_requirements = MeterSnapshot.of(meter)

    try:
        result = _translate_pipeline(loop, core_config, options, meter,
                                     capacity_check=False,
                                     requirements_hook=_on_requirements)
        entry.image = result.image
    except TranslationBudgetExceeded as exc:
        exc.loop_name = loop.name
        entry.failure = exc
    except SchedulingError as exc:
        entry.failure = exc
        entry.ii_exhausted = True
    except TranslationError as exc:
        entry.failure = exc
    entry.meter_final = MeterSnapshot.of(meter)
    return entry


def _cached_core(loop: Loop, config: LAConfig,
                 options: TranslationOptions):
    """Look up (or compute and store) the core entry for this input."""
    from repro import perf
    from repro.perf.digest import options_digest

    cache = perf.translation_cache()
    core_config, _, key, canon_key = _cache_keys(loop, config, options)
    entry = cache.get(key)
    # Max-II sweep points share one schedule: the candidate-II search
    # tries MII upward and stops at the first feasible II*, so a success
    # under the loop's full II bound with II* within this point's bound
    # is bit-for-bit the run this point would perform (same candidates
    # tried, same charges, same schedule) — and vice versa.  Alias the
    # two keys instead of recomputing; failures are never aliased (a
    # budget abort or II exhaustion depends on where the search stops).
    if entry is None and canon_key is not None:
        canon = cache.peek(canon_key)
        if canon is not None and canon.image is not None and \
                canon.image.schedule.ii <= core_config.max_ii:
            entry = canon
            cache.put(key, entry)
            # A core run was avoided: reclassify the recorded miss.
            cache.stats.misses -= 1
            cache.stats.hits += 1
    if entry is None:
        entry = _translate_core(loop, core_config, options)
        cache.put(key, entry)
        if canon_key is not None and entry.image is not None:
            cache.put(canon_key, entry)
    if entry.ii_exhausted and core_config.max_ii < config.max_ii:
        # Exhausting the clamped II window proves nothing about the
        # true control-store depth; re-derive at the exact max II.
        cache.stats.exact_fallbacks += 1
        exact_config = core_config.with_(max_ii=config.max_ii)
        exact_key = _core_key(loop, exact_config, options_digest(options))
        entry = cache.get(exact_key)
        if entry is None:
            entry = _translate_core(loop, exact_config, options)
            cache.put(exact_key, entry)
    if entry.image is not None and \
            getattr(entry.image, "digest", None) is None:
        # Stamp the content-addressed cache key onto the image so the
        # specialization tier can key its compiled-function cache on it.
        entry.image = replace(entry.image, digest=key)
    return entry


def _finalize(loop: Loop, config: LAConfig, entry) -> TranslationResult:
    """Apply the one capacity-dependent step to a cached core entry.

    Reproduces the reference pipeline's ordering: the register-file
    check runs the moment requirements are known, before the rotation
    postpass — so a capacity failure wins over a budget blow-up that
    the core run hit *during* rotation, and reports the meter as of
    the requirements computation.
    """
    if entry.requirements is not None and not fits(
            entry.requirements, config.num_int_regs, config.num_fp_regs):
        registers = entry.requirements
        failure = RegisterPressureError(
            f"register demand (int {registers.int_regs}, fp "
            f"{registers.fp_regs}) exceeds the register files",
            loop_name=loop.name,
            int_required=registers.int_regs, fp_required=registers.fp_regs,
            int_available=config.num_int_regs,
            fp_available=config.num_fp_regs)
        return TranslationResult(loop.name, None, failure,
                                 entry.meter_at_requirements.restore())
    meter = entry.meter_final.restore()
    if entry.failure is not None:
        return TranslationResult(loop.name, None, entry.failure, meter)
    # The core ran against demand-clamped pools, which schedule
    # identically but are *recorded* on the schedule (utilization
    # reporting divides occupancy by them) — rebind both the config and
    # the schedule's unit pools to what the reference pipeline would
    # have recorded for this caller.
    schedule = replace(entry.image.schedule, units=config.units())
    image = replace(entry.image, config=config, schedule=schedule)
    return TranslationResult(loop.name, image, None, meter)


def translation_key(loop: Loop, config: LAConfig,
                    options: TranslationOptions = TranslationOptions()
                    ) -> str:
    """The cache key ``translate_loop`` would use for this input."""
    return _cache_keys(loop, config, options).key


def invalidate_translation(loop: Loop, config: LAConfig,
                           options: TranslationOptions = TranslationOptions()
                           ) -> bool:
    """Drop this input's cached translation (deoptimisation support).

    The entry may be reachable under up to three keys — the clamped
    projection, the canonical full-II-bound alias, and the exact-max-II
    fallback — and a deoptimised image must not survive under any of
    them.
    """
    from repro import perf
    from repro.perf.digest import options_digest

    cache = perf.translation_cache()
    core_config, _, key, canon_key = _cache_keys(loop, config, options)
    keys = {key}
    if canon_key is not None:
        keys.add(canon_key)
    if core_config.max_ii != config.max_ii:
        keys.add(_core_key(loop, core_config.with_(max_ii=config.max_ii),
                           options_digest(options)))
    dropped = [cache.invalidate(k) for k in keys]
    return any(dropped)


def translate_loop(loop: Loop, config: LAConfig,
                   options: TranslationOptions = TranslationOptions()
                   ) -> TranslationResult:
    """Translate *loop* for *config*; never raises on unsupported loops.

    Any failure (unschedulable shape, too many streams, MII above the
    control store, register pressure, a blown translation budget) yields
    ``image=None`` with a typed ``failure_reason``, and the loop simply
    keeps running on the baseline core — exactly the fall-back the
    virtualised interface guarantees.

    When the performance engine is on (the default), results are served
    through the process-wide content-addressed cache: identical
    (loop, schedule-relevant config, options) inputs translate once per
    process — or once per *machine* with the disk layer attached — and
    every VirtualMachine instance shares the products.  A wall-clock
    ``deadline_s`` makes the outcome timing-dependent, so such requests
    bypass the cache entirely.
    """
    from repro import perf
    sp = obs.span("translate", component="translator", loop=loop.name,
                  config=config.name)
    with sp:
        if not perf.engine_enabled() or options.deadline_s is not None:
            meter = TranslationMeter(budget_units=options.work_budget,
                                     deadline_s=options.deadline_s)
            try:
                result = _translate_pipeline(loop, config, options, meter)
            except TranslationBudgetExceeded as exc:
                exc.loop_name = loop.name
                result = TranslationResult(loop.name, None, exc, meter)
            except TranslationError as exc:
                result = TranslationResult(loop.name, None, exc, meter)
        else:
            result = _finalize(loop, config,
                               _cached_core(loop, config, options))
        obs.inc("translator.translations")
        obs.inc("translator.ok" if result.ok
                else f"translator.failed.{result.failure_kind}")
        for phase, units in result.meter.units.items():
            obs.inc(f"translator.units.{phase}", units)
        if sp:
            sp.set(ok=result.ok, failure_kind=result.failure_kind,
                   units=dict(result.meter.units),
                   instructions=result.meter.instructions())
        return result
