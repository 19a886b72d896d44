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
from repro.ir.work import memoised
from repro.isa.annotations import (
    STATIC_CCA_KEY,
    STATIC_MII_KEY,
    STATIC_PRIORITY_KEY,
)
from repro.perf.memo import memo_table
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


def _memo(meter: TranslationMeter, kind: str, loop: Loop,
          *content) -> Optional[dict]:
    """The per-DFG memo dict for *loop* under a content key, or None.

    The dict lives in :data:`repro.perf.analysis_cache` under
    ``digest_of(kind, loop_digest(loop), *content)``; every step and
    analysis stored in it goes through :func:`~repro.ir.work.memoised`.
    A hit charges its memoised total in one call, which equals the
    fresh run's charges only when nothing can fire *mid-phase*: a work
    budget would abort at a different charged total and a deadline at a
    different wall-clock point, so both (and engine 0) give None and
    every step runs.
    """
    from repro import perf
    if not perf.engine_enabled() or meter.budget_units is not None \
            or meter.deadline_s is not None:
        return None
    from repro.perf.digest import digest_of, loop_digest
    key = digest_of(kind, loop_digest(loop), *content)
    memo = perf.analysis_cache.lookup(key)
    if memo is None:
        memo = {}
        perf.analysis_cache.insert(key, memo)
    return memo


def _front_end(loop: Loop, config: LAConfig, options: TranslationOptions,
               meter: TranslationMeter):
    """Phases 1-2: DFG, schedulability, dependence refinement, partition.

    Everything here reads only the loop, the latency model and the
    config's speculation capability — never unit pools, streams limits,
    register files or max II — so both steps are memoised per (loop,
    latency model, speculation) and shared across every sweep point
    that translates the same loop.  A rejection is memoised as its
    report, and each call raises a fresh
    :class:`~repro.errors.SchedulabilityError` from it.  Returns
    ``(dfg, streams, partition, memo)``; *memo* (see :func:`_memo`)
    serves the analyses of this DFG.
    """
    lat = options.latency_model
    memo = _memo(meter, "front", loop, lat, config.supports_speculation)

    # Phase 1: identification / schedulability.  With every access
    # proven affine, the conservative memory-ordering edges are refined
    # to exact lattice-test dependences (interleaved store streams stop
    # serialising each other).
    def identify(work):
        dfg = build_dfg(loop, lat, work=work)
        report = check_schedulability(
            loop, dfg, work=work,
            allow_speculation=config.supports_speculation)
        if not report.ok:
            return None, report
        return refine_memory_edges(loop, dfg, report.streams), report

    dfg, report = memoised(memo, "identify", meter.charger("identify"),
                           identify)
    if dfg is None:
        reasons = "; ".join(report.reasons) or report.category.value
        raise SchedulabilityError(
            f"not modulo schedulable: {reasons}", loop_name=loop.name,
            category=report.category.value, reasons=list(report.reasons))

    # Phase 2: separate control and memory streams.
    part = memoised(memo, "partition", meter.charger("partition"),
                    lambda w: partition_loop(loop, dfg, work=w))
    return dfg, report.streams, part, memo


def _cca_map(loop: Loop, dfg, part, streams, config: LAConfig,
             options: TranslationOptions, meter: TranslationMeter,
             front: Optional[dict]):
    """Phase 3: CCA mapping plus the post-mapping re-analysis.

    The mapping reads the CCA *shape* and the compute partition, never
    the CCA *count* (ResMII and the scheduler enforce that later), so
    the mapped loop (step ``"cca"``) and its rebuilt DFG/partition
    (step ``"partition"``) are memoised per (loop, latency model, CCA
    shape, static-mapping mode, speculation).  A mapping that leaves
    the loop unchanged is memoised as None, so every caller keeps its
    own loop object and *front*'s DFG.  Returns ``(mapped, dfg,
    partition, memo)``, *memo* serving the mapped DFG's analyses:
    *front* itself when there are no CCAs or nothing was mapped.
    """
    if config.num_ccas <= 0:
        return loop, dfg, part, front
    lat = options.latency_model
    memo = _memo(meter, "cca", loop, lat, config.cca, options.use_static_cca,
                 config.supports_speculation)

    def cca(work):
        if options.use_static_cca and STATIC_CCA_KEY in loop.annotations:
            mapping = apply_subgraphs(
                loop, loop.annotations[STATIC_CCA_KEY], dfg,
                config=config.cca, candidate_opids=part.compute, work=work)
        else:
            mapping = map_cca(loop, dfg, config=config.cca,
                              candidate_opids=part.compute, work=work)
        return None if mapping.loop is loop else mapping.loop

    mapped = memoised(memo, "cca", meter.charger("cca"), cca)
    if mapped is None:
        return loop, dfg, part, front

    def rebuild(work):
        dfg2 = refine_memory_edges(mapped, build_dfg(mapped, lat, work=work),
                                   streams)
        return dfg2, partition_loop(mapped, dfg2, work=work)

    dfg2, part2 = memoised(memo, "partition", meter.charger("partition"),
                           rebuild)
    return mapped, dfg2, part2, memo


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

    The analyses that read only the mapped DFG, the II and the latency
    model (RecMII, the SMS node sets, the swing and height orders, the
    register demand and the rotation postpass) go through that DFG's
    memo, ``analyses``, from :func:`_cca_map`; it is None, and every
    analysis runs, when the meter may not take a memoised charge.
    """
    # Phases 1-2 (memoised across configs; see _front_end).
    with obs.span("front_end", component="translator", meter=meter,
                  loop=loop.name):
        dfg, streams, part, front = _front_end(loop, config, options, meter)
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

    # Phase 3: CCA mapping (memoised across configs; see _cca_map).
    with obs.span("cca_map", component="translator", meter=meter,
                  loop=loop.name):
        mapped, dfg2, part2, analyses = _cca_map(
            loop, dfg, part, streams, config, options, meter, front)

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
            rec_mii = memoised(
                analyses, "recmii", meter.charger("recmii"),
                lambda w: compute_rec_mii(dfg2, part2.compute, w))
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
            mii_result=mii, analyses=analyses)
    if isinstance(result, ScheduleFailure):
        raise SchedulingError(result.reason, loop_name=loop.name,
                              schedule_failure=result)
    schedule = result

    # Phase 7: register assignment.  Both steps read the schedule only
    # through its II and times.
    placed = (None if analyses is None else
              (schedule.ii, tuple(sorted(schedule.times.items()))))
    with obs.span("regalloc", component="translator", meter=meter,
                  loop=loop.name):
        registers = memoised(
            analyses, ("registers", placed), meter.charger("regalloc"),
            lambda w: register_requirements(mapped, dfg2, schedule, part2,
                                            w))
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
        rotation = memoised(
            analyses, ("rotation", placed), None,
            lambda w: assign_physical(mapped, dfg2, schedule, part2))
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


#: Per-loop memo of :func:`_census`, keyed by the latency model's
#: content (:func:`~repro.perf.digest.latency_key`).
_CENSUS_ATTR = "_veal_census"


def _census(loop: Loop, lat: LatencyModel) -> tuple[dict[str, int], int]:
    """Resource-class op counts and latency sum over *loop*'s ops
    (CCA inner ops included) — everything the projection reads of the
    loop, independent of the config."""
    from repro.perf.digest import latency_key

    memo = memo_table(loop, _CENSUS_ATTR)
    lat_key = latency_key(lat)
    census = memo.get(lat_key)
    if census is None:
        counts: dict[str, int] = {}
        latency_sum = 0
        stack = list(loop.body)
        while stack:
            op = stack.pop()
            rc = sched_resource(op)
            counts[rc] = counts.get(rc, 0) + 1
            latency_sum += max(int(lat.latency(op.opcode)), 1)
            stack.extend(op.inner)
        census = memo[lat_key] = (counts, latency_sum)
    return census


def _schedule_projection(loop: Loop, config: LAConfig,
                         options: TranslationOptions
                         ) -> tuple[LAConfig, int]:
    """The schedule-relevant canonical form of *config* for *loop*.

    Returns ``(projected config, ii_bound)`` where ``ii_bound`` is the
    loop's own upper bound on any achievable II — the max-II value that
    behaves as unbounded for this loop.
    """
    counts, latency_sum = _census(loop, options.latency_model)
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
#: content key).  Like the ``loop_digest`` memo it relies on loops being
#: immutable once built, and ``Loop.__getstate__`` drops it (every
#: ``_veal_*`` attribute) from pickles, the wire and the disk.
_KEYS_ATTR = "_veal_cache_keys"
#: Per-loop memo of :func:`_core_key`, keyed by (projected config,
#: options digest): many caller configs project onto one core config.
_CORE_KEYS_ATTR = "_veal_core_keys"


def _core_key(loop: Loop, core_config: LAConfig, opts_key: str) -> str:
    from repro.perf.digest import digest_of, loop_digest
    memo = memo_table(loop, _CORE_KEYS_ATTR)
    key = memo.get((core_config, opts_key))
    if key is None:
        key = memo[(core_config, opts_key)] = digest_of(
            "core", loop_digest(loop), core_config, opts_key)
    return key


def _cache_keys(loop: Loop, config: LAConfig,
               options: TranslationOptions) -> _CacheKeys:
    """Derive (or recall) this input's projection and cache keys.

    The memo is looked up with the options' content key
    (:func:`~repro.perf.digest.options_key`), so a hit runs no SHA-256;
    the options digest is computed only on a miss.
    """
    from repro.perf.digest import options_digest, options_key

    memo = memo_table(loop, _KEYS_ATTR)
    content = options_key(options)
    keys = memo.get((config, content))
    if keys is None:
        opts_key = options_digest(options)
        core_config, ii_bound = _schedule_projection(loop, config, options)
        canon_key = None
        if core_config.max_ii < ii_bound:
            canon_key = _core_key(loop, core_config.with_(max_ii=ii_bound),
                                  opts_key)
        keys = _CacheKeys(core_config, ii_bound,
                         _core_key(loop, core_config, opts_key), canon_key)
        memo[(config, content)] = keys
    return keys


def _translate_core(loop: Loop, core_config: LAConfig,
                    options: TranslationOptions):
    """Run the capacity-independent pipeline; package as a CoreEntry."""
    from repro.perf.transcache import CoreEntry, MeterSnapshot

    meter = TranslationMeter(budget_units=options.work_budget)
    entry = CoreEntry(loop_name=loop.name)
    # One increment per *actual* pipeline execution.  Unlike
    # ``translator.translations`` (per call, cache hits included) this
    # is the counter that proves the service's digest dedup: N
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
    entry = cache.get(key, count_miss=canon_key is None)
    # Max-II sweep points share one schedule: the candidate-II search
    # tries MII upward and stops at the first feasible II*, so a success
    # under the loop's full II bound with II* within this point's bound
    # is bit-for-bit the run this point would perform (same candidates
    # tried, same charges, same schedule) — and vice versa.  Alias the
    # two keys instead of recomputing; failures are never aliased (a
    # budget abort or II exhaustion depends on where the search stops).
    if entry is None and canon_key is not None:
        canon = cache.peek(canon_key)
        aliased = (canon is not None and canon.image is not None
                   and canon.image.schedule.ii <= core_config.max_ii)
        cache.count_lookup(hit=aliased)  # an avoided core run is a hit
        if aliased:
            entry = canon
            cache.put(key, entry)
    if entry is None:
        entry = _stamped(_translate_core(loop, core_config, options), key)
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
            entry = _stamped(_translate_core(loop, exact_config, options),
                             key)
            cache.put(exact_key, entry)
    return entry


def _stamped(entry, key: str):
    """Stamp *key* on a fresh entry's image before it is stored: the JIT
    keys its code cache on it, and disk bytes then equal memory bytes."""
    if entry.image is not None:
        entry.image = replace(entry.image, digest=key)
    return entry


#: Per-entry memo of :func:`_finalize`'s rebound images, keyed by the
#: caller config.  It lives and dies with the cached
#: entry (so invalidation drops it), and ``CoreEntry.__getstate__``
#: keeps it out of disk-layer entry files (AOT artifacts included) and
#: the wire.
_FINAL_ATTR = "_veal_finalized"


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
    # have recorded for this caller.  The rebound image is made once per
    # caller config and shared by every VM that hits this entry (images
    # are never mutated once built).
    memo = memo_table(entry, _FINAL_ATTR)
    image = memo.get(config)
    if image is None:
        schedule = replace(entry.image.schedule, units=config.units())
        image = memo[config] = replace(entry.image, config=config,
                                       schedule=schedule)
    return TranslationResult(loop.name, image, None, meter)


def translation_key(loop: Loop, config: LAConfig,
                    options: TranslationOptions = TranslationOptions()
                    ) -> str:
    """The cache key ``translate_loop`` would use for this input."""
    return _cache_keys(loop, config, options).key


def translation_keys(loop: Loop, config: LAConfig,
                     options: TranslationOptions = TranslationOptions()
                     ) -> set[str]:
    """Every key this input's translation may be cached under: the
    clamped projection, the canonical full-II-bound alias, and the
    exact-max-II fallback."""
    from repro.perf.digest import options_digest
    core_config, _, key, canon_key = _cache_keys(loop, config, options)
    keys = {key}
    if canon_key is not None:
        keys.add(canon_key)
    if core_config.max_ii != config.max_ii:
        keys.add(_core_key(loop, core_config.with_(max_ii=config.max_ii),
                           options_digest(options)))
    return keys


def invalidate_translation(loop: Loop, config: LAConfig,
                           options: TranslationOptions = TranslationOptions()
                           ) -> bool:
    """Drop this input's cached translation (deoptimisation support).

    The entry may be reachable under any of :func:`translation_keys`,
    and a deoptimised image must not survive under any of them.
    """
    from repro import perf
    cache = perf.translation_cache()
    dropped = [cache.invalidate(k)
               for k in translation_keys(loop, config, options)]
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
        obs.inc_many([
            ("translator.translations", 1),
            ("translator.ok" if result.ok
             else f"translator.failed.{result.failure_kind}", 1),
            *((f"translator.units.{phase}", units)
              for phase, units in result.meter.units.items())])
        if sp:
            sp.set(ok=result.ok, failure_kind=result.failure_kind,
                   units=dict(result.meter.units),
                   instructions=result.meter.instructions())
        return result
