"""The long-running loop-acceleration server.

One :class:`LoopService` per process; many :class:`ServiceSession`
clients.  The control flow per request:

1. **Admission** (caller's thread, synchronous): a closed service
   raises :class:`~repro.errors.ServiceClosed`; a session past its
   translation budget raises
   :class:`~repro.errors.SessionBudgetExceeded`; a full request queue
   raises :class:`~repro.errors.ServiceOverload`.  Every rejection is
   recorded as an incident, so backpressure shows up on the same
   surface as cache corruption and worker losses.
2. **Dispatch**: admitted requests enter one bounded FIFO shared by
   every session, drained by one dispatcher thread.
3. **Dedup** (translate requests): the dispatcher computes the
   content-addressed transcache digest
   (:func:`repro.vm.translator.translation_key`).  The first request
   for a digest pays the core translation; every later one is a
   ``dedup_hits`` cache serve plus its own register-capacity
   finalization (so a duplicate with a different register file still
   gets *its* correct result — the core pipeline runs once per
   digest).  One dispatcher means no two requests ever run at once,
   so no duplicate can overtake the first.
4. **Execution**: requests run in-process, on the dispatcher — the
   byte-identical serial reference path.  The service scales out as
   a supervised shard fleet (:mod:`repro.service.cluster`), one
   ``LoopService`` per shard process.
5. **Drain**: ``close()`` (or leaving the ``with`` block) stops
   admission, lets queued work finish, then joins the dispatcher — no
   request is dropped, no temp files orphaned.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro import obs, perf
from repro.errors import (
    AdmissionRejected,
    ServiceClosed,
    SessionBudgetExceeded,
    SettingsError,
)
from repro.resilience.incidents import record_incident
from repro.service.admission import AdmissionController, AdmissionPolicy
from repro.vm.translator import (
    TranslationOptions,
    TranslationResult,
    translate_loop,
    translation_key,
)

_SENTINEL = None


@dataclass(frozen=True)
class ServiceConfig:
    """How a :class:`LoopService` admits and executes work."""

    #: Always 1: the service runs one dispatcher and scales out as
    #: shards.  The field stays only because callers still pass
    #: ``workers=1``; any other value raises
    #: :class:`~repro.errors.SettingsError`.
    workers: int = 1
    #: Bounded request-queue depth; submissions beyond it are rejected
    #: with :class:`~repro.errors.ServiceOverload`.
    queue_depth: int = 64
    #: Default per-session translation budget in meter units
    #: (None = unmetered); ``open_session`` may override per session.
    default_session_budget: Optional[int] = None
    #: How long ``close(drain=True)`` waits for queued work.
    drain_timeout_s: float = 60.0
    #: Optional stack configuration (:class:`repro.api.Settings`)
    #: applied at ``start()`` — including its AOT ``artifact_path``.
    settings: Optional[Any] = None
    #: Graded admission control (token buckets, watermark shedding,
    #: cached-work passthrough); see :mod:`repro.service.admission`.
    admission: AdmissionPolicy = AdmissionPolicy()

    def __post_init__(self) -> None:
        if self.workers != 1:
            raise SettingsError(
                f"ServiceConfig.workers must be 1, got {self.workers!r}: "
                f"the service runs one dispatcher; scale out with shards",
                name="workers", value=str(self.workers))


@dataclass
class ServiceStats:
    """What one service lifetime did, reported by ``close()``."""

    submitted: int = 0
    completed: int = 0
    rejected_overload: int = 0
    rejected_budget: int = 0
    rejected_closed: int = 0
    translated: int = 0
    dedup_hits: int = 0
    drained: bool = True
    #: Admission decision tag -> count (``ok``, ``ok-cached``,
    #: ``queue-full``, ``throttled``, ``shed-low-priority``,
    #: ``saturated``).
    admission: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class _Request:
    kind: str
    payload: tuple
    session: str
    future: Future = field(default_factory=Future)
    submitted_at: float = 0.0


class ServiceSession:
    """One client's handle on the service.

    Carries the client's accelerator/options context (the same axes as
    :class:`repro.api.Session`) and its admission-control state: the
    translation budget and the meter units charged so far.
    """

    def __init__(self, service: "LoopService", name: str,
                 accelerator=None, options: Optional[TranslationOptions] = None,
                 budget_units: Optional[int] = None,
                 priority: int = 1) -> None:
        from repro.api import _default_accelerator
        self._service = service
        self.name = name
        self.accelerator = (_default_accelerator() if accelerator is None
                            else accelerator)
        self.options = TranslationOptions() if options is None else options
        self.budget_units = budget_units
        self.spent_units = 0
        #: Admission priority: sessions below the policy's shed
        #: threshold are refused first when the queue passes the low
        #: watermark (0 = best-effort, 1 = standard).
        self.priority = priority

    # Each submit returns a concurrent.futures.Future; admission errors
    # raise synchronously in the caller's thread.

    def translate(self, loop, accelerator=None,
                  options: Optional[TranslationOptions] = None) -> Future:
        config = self.accelerator if accelerator is None else accelerator
        opts = self.options if options is None else options
        return self._service._submit(
            _Request("translate", (loop, config, opts), self.name))

    def run_loop(self, loop, scalars: Optional[dict] = None,
                 seed: int = 1234) -> Future:
        return self._service._submit(
            _Request("run_loop",
                     (loop, self.accelerator, self.options, scalars, seed),
                     self.name))

    def run_figure(self, name: str) -> Future:
        return self._service._submit(
            _Request("figure", (name,), self.name))


class LoopService:
    """Multi-session loop-acceleration server (see module docstring)."""

    def __init__(self, config: ServiceConfig = ServiceConfig()) -> None:
        self.config = config
        self.stats = ServiceStats()
        self._queue: queue.Queue = queue.Queue(maxsize=config.queue_depth)
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._accepting = True
        self._closed = False
        # Every digest translated successfully in this lifetime: later
        # requests for it are dedup hits.
        self._done_keys: set[str] = set()
        #: Cleared while :meth:`hold` parks the dispatcher.
        self._dispatching = threading.Event()
        self._dispatching.set()
        self._sessions: dict[str, ServiceSession] = {}
        self._admission = AdmissionController(config.admission,
                                              config.queue_depth)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "LoopService":
        """Boot the dispatcher thread.

        Separate from construction so tests and callers may enqueue
        work first: requests submitted before ``start()`` simply wait
        in the bounded queue.
        """
        if self._thread is not None:
            return self
        if self.config.settings is not None:
            self.config.settings.apply()
        self._thread = threading.Thread(target=self._dispatch_loop,
                                        name="repro-service", daemon=True)
        self._thread.start()
        return self

    def __enter__(self) -> "LoopService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    def close(self, drain: bool = True) -> ServiceStats:
        """Stop admission, optionally drain queued work, shut down.

        With ``drain`` every admitted request completes before the
        dispatcher exits; without it, still-queued requests fail with
        :class:`~repro.errors.ServiceClosed`.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return self.stats
            self._accepting = False
            self._closed = True
        if not drain:
            self._cancel_pending()
        self._dispatching.set()
        if self._thread is not None:
            self._queue.put(_SENTINEL)
            self._thread.join(timeout=self.config.drain_timeout_s)
            if self._thread.is_alive():
                self.stats.drained = False
                record_incident(
                    "service-stall", "service",
                    f"dispatcher {self._thread.name} still running after "
                    f"{self.config.drain_timeout_s:.0f}s drain window")
        else:
            self._cancel_pending()
        obs.set_gauge("service.queue_depth", 0)
        self.stats.admission = self._admission.stats.as_dict()
        return self.stats

    def _cancel_pending(self) -> None:
        while True:
            try:
                request = self._queue.get_nowait()
            except queue.Empty:
                return
            if request is not _SENTINEL:
                request.future.set_exception(
                    ServiceClosed("service closed before request ran"))

    # -- sessions and admission --------------------------------------------

    def open_session(self, name: Optional[str] = None, accelerator=None,
                     options: Optional[TranslationOptions] = None,
                     budget_units: Optional[int] = None,
                     priority: int = 1) -> ServiceSession:
        with self._lock:
            return self._open_session_locked(
                name, accelerator=accelerator, options=options,
                budget_units=budget_units, priority=priority)

    def _open_session_locked(self, name: Optional[str] = None,
                             accelerator=None,
                             options: Optional[TranslationOptions] = None,
                             budget_units: Optional[int] = None,
                             priority: int = 1) -> ServiceSession:
        if self._closed:
            raise ServiceClosed("service is closed")
        if budget_units is None:
            budget_units = self.config.default_session_budget
        session = ServiceSession(
            self, name or f"session-{len(self._sessions)}",
            accelerator=accelerator, options=options,
            budget_units=budget_units, priority=priority)
        self._sessions[session.name] = session
        return session

    def get_or_open_session(self, name: str, **kwargs) -> ServiceSession:
        """The session named *name*, creating it on first use.

        Reconnecting network clients resume their session by name so
        budget accounting and token-bucket state survive a transport
        failure (the retry/idempotency contract).  Lookup-or-create is
        atomic: two concurrent hellos for the same name get the *same*
        session object, never a silent overwrite that would split
        spent-units accounting and drop the first hello's settings.
        """
        with self._lock:
            existing = self._sessions.get(name)
            if existing is not None:
                return existing
            return self._open_session_locked(name, **kwargs)

    def _submit(self, request: _Request) -> Future:
        with self._lock:
            if not self._accepting:
                self.stats.rejected_closed += 1
                obs.inc("service.rejected.closed")
                raise ServiceClosed("service is not accepting requests")
            session = request.session
            spent, budget = self._session_budget(session)
            if budget is not None and spent >= budget:
                self.stats.rejected_budget += 1
                obs.inc("service.rejected.budget")
                record_incident(
                    "session-budget", "service",
                    f"session {session} spent {spent} of {budget} "
                    f"translation units; request refused",
                    session=session, budget_units=budget, spent_units=spent)
                raise SessionBudgetExceeded(
                    f"session {session} exhausted its translation budget "
                    f"({spent} >= {budget} units)",
                    budget_units=budget, spent_units=spent, session=session)
        priority = self._session_priority(request.session)
        qsize = self._queue.qsize()
        decision = self._admission.admit(
            request.session, priority, qsize,
            is_cached=lambda: self._cached_key(request) is not None,
            queue_full=qsize >= self.config.queue_depth)
        if not decision.admitted:
            self._reject(request, decision)
        request.submitted_at = time.perf_counter()
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            # Lost the race for the last physical slot since the check:
            # roll the recorded admission back (and its token) so the
            # request is counted exactly once, as a queue-full reject.
            self._reject(request, self._admission.revise_to_queue_full(
                decision, request.session, self._queue.qsize()))
        with self._lock:
            self.stats.submitted += 1
        obs.inc("service.submitted")
        obs.set_gauge("service.queue_depth", self._queue.qsize())
        return request.future

    def _reject(self, request: _Request, decision) -> None:
        """Record one admission rejection and raise it, with the queue
        depth / session / decision triple on both surfaces so every
        shed request is diagnosable from the incident log alone."""
        with self._lock:
            self.stats.rejected_overload += 1
            self.stats.admission = self._admission.stats.as_dict()
        obs.inc("service.rejected.overload")
        obs.inc(f"service.admission.{decision.decision}")
        record_incident(
            "service-overload", "service",
            f"admission refused {request.kind} from {request.session}: "
            f"{decision.decision} (queue depth {decision.queue_depth}/"
            f"{self.config.queue_depth}, retry after "
            f"{decision.retry_after:.3f}s)",
            session=request.session, request_kind=request.kind,
            queue_depth=decision.queue_depth,
            decision=decision.decision,
            retry_after=decision.retry_after)
        raise AdmissionRejected(
            f"admission refused {request.kind}: {decision.decision} "
            f"(queue depth {decision.queue_depth}, retry after "
            f"{decision.retry_after:.3f}s)",
            decision=decision.decision, retry_after=decision.retry_after,
            session=request.session,
            queue_depth=decision.queue_depth) from None

    def _session_priority(self, name: str) -> int:
        session = self._sessions.get(name)
        return 1 if session is None else session.priority

    def _cached_key(self, request: _Request) -> Optional[str]:
        """The request's transcache digest if already translated.

        Only translate/run_loop requests have one; a digest the
        service has completed (or that the process cache holds) marks
        the request as cheap cached work the degradation ladder admits
        even under saturation.
        """
        if request.kind == "translate":
            loop, config, options = request.payload
        elif request.kind == "run_loop":
            loop, config, options = request.payload[:3]
        else:
            return None
        if config is None:
            return None
        try:
            key = translation_key(loop, config, options)
        except Exception:  # noqa: BLE001 — unkeyable: treat as uncached
            return None
        with self._lock:
            if key in self._done_keys:
                return key
        return key if perf.translation_cache().peek(key) is not None \
            else None

    def _session_budget(self, name: str
                        ) -> tuple[int, Optional[int]]:
        session = self._sessions.get(name)
        if session is None:
            return 0, None
        return session.spent_units, session.budget_units

    # -- dispatch ----------------------------------------------------------

    @contextmanager
    def hold(self) -> Iterator[None]:
        """Park the dispatcher while the block runs.

        No request starts executing inside the block: the dispatcher
        finishes the one it is running, then parks holding at most one
        more.  Admitted work piles up, so admission grades every
        submission against a standing backlog — a known queue state
        instead of a race with the clients.
        """
        self._dispatching.clear()
        try:
            yield
        finally:
            self._dispatching.set()

    def _dispatch_loop(self) -> None:
        while True:
            request = self._queue.get()
            self._dispatching.wait()
            if request is _SENTINEL:
                return
            obs.set_gauge("service.queue_depth", self._queue.qsize())
            try:
                with obs.span("service.request", component="service",
                              kind=request.kind, session=request.session):
                    result = self._execute(request)
            except BaseException as exc:  # noqa: BLE001 — future carries it
                request.future.set_exception(exc)
            else:
                self._charge(request, result)
                with self._lock:
                    self.stats.completed += 1
                obs.inc("service.completed")
                _observe_latency(request)
                request.future.set_result(result)

    def _charge(self, request: _Request, result) -> None:
        """Post-completion budget accounting.

        Charged *after* execution (translate requests only — they are
        the metered work) so the budget never leaks into
        ``TranslationOptions`` and therefore never perturbs the cache
        digest that cross-session dedup keys on.
        """
        if request.kind != "translate":
            return
        session = self._sessions.get(request.session)
        if session is not None and isinstance(result, TranslationResult):
            with self._lock:
                session.spent_units += result.meter.total_units()

    def _execute(self, request: _Request):
        if request.kind == "translate":
            return self._execute_translate(request)
        return _execute_local(request.kind, request.payload)

    def _execute_translate(self, request: _Request):
        loop, config, options = request.payload
        key = translation_key(loop, config, options)
        result = translate_loop(loop, config, options)
        # Recorded only once translate_loop has returned: a translation
        # that raised is not cached work, so admission must not wave a
        # later copy through as ``ok-cached``.
        with self._lock:
            if key in self._done_keys:
                self.stats.dedup_hits += 1
                counter = "service.dedup_hits"
            else:
                self._done_keys.add(key)
                self.stats.translated += 1
                counter = "service.translated"
        obs.inc(counter)
        return result


def _execute_local(kind: str, payload: tuple):
    if kind == "run_loop":
        from repro.cpu.pipeline import ARM11
        from repro.vm.runtime import VMConfig, VirtualMachine
        loop, accelerator, options, scalars, seed = payload
        vm = VirtualMachine(VMConfig(cpu=ARM11, accelerator=accelerator,
                                     options=options))
        return vm.run_loop(loop, scalars=scalars, seed=seed)
    if kind == "figure":
        from repro.experiments.figures import FIGURES
        (name,) = payload
        return FIGURES[name].fn()
    raise ValueError(f"unknown request kind {kind!r}")


def _observe_latency(request: _Request) -> None:
    """Power-of-two-bucketed request latency histogram (exact-count
    histograms need bounded cardinality; sub-ms work lands in 1)."""
    elapsed_ms = (time.perf_counter() - request.submitted_at) * 1000.0
    obs.observe(f"service.latency_ms.{request.kind}",
                obs.ms_bucket(elapsed_ms))
