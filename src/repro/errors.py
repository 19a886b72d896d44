"""Structured failure taxonomy for the co-designed VM.

VEAL's virtualised contract is that acceleration may *never* change
program semantics: any loop the system cannot translate, admit, or
execute correctly must keep running on the baseline core (Section 4.1's
schedulability check is the first such guard).  Every component that can
refuse or mis-execute a loop therefore reports through this hierarchy so
the runtime can react mechanically — fall back to scalar, blacklist,
deoptimize — instead of pattern-matching ad-hoc strings.

The taxonomy has two trunks:

* :class:`TranslationError` — the translator could not produce a kernel
  image (structural, resource, scheduling, register or budget reasons).
  These are *expected* outcomes; :func:`~repro.vm.translator.translate_loop`
  converts them into a failed :class:`~repro.vm.translator.TranslationResult`
  rather than raising to callers.
* :class:`ExecutionError` — a translated kernel misbehaved at run time
  (a structural invariant tripped, or the differential guard observed a
  semantic divergence).  These trigger deoptimization in the guarded
  runtime (:mod:`repro.vm.guard`).
* :class:`InfrastructureError` — the *experiment infrastructure* (the
  on-disk translation cache, an AOT artifact) misbehaved.  These never
  change a result: the resilience layer (:mod:`repro.resilience`)
  quarantines, retries or rebuilds, and records an incident under the
  same ``kind`` taxonomy so guard deopts and infrastructure faults
  share one observability surface.
"""

from __future__ import annotations

from typing import Any, Optional


class ReproError(Exception):
    """Base class of every structured failure in the reproduction.

    ``kind`` is a stable, machine-readable tag (the blacklist and the
    campaign reports aggregate on it); ``details`` carries arbitrary
    structured context for diagnostics.
    """

    kind: str = "error"

    def __init__(self, message: str, **details: Any) -> None:
        super().__init__(message)
        self.message = message
        self.details = details

    def __str__(self) -> str:
        return self.message

    def __reduce__(self):
        # Default exception pickling replays ``cls(*args)`` which drops
        # every keyword attribute (loop_name, details, ...); carry the
        # full instance dict so cached failures survive a disk
        # round-trip intact.
        return (self.__class__, (self.message,), self.__dict__)

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)


# -- translation-time failures ------------------------------------------------

class TranslationError(ReproError):
    """The translator could not produce a kernel image for a loop."""

    kind = "translation"

    def __init__(self, message: str, loop_name: Optional[str] = None,
                 **details: Any) -> None:
        super().__init__(message, **details)
        self.loop_name = loop_name


class SchedulabilityError(TranslationError):
    """The loop's structure disqualifies it (Figure 2 categories)."""

    kind = "schedulability"

    def __init__(self, message: str, category: Optional[str] = None,
                 reasons: Optional[list[str]] = None, **kw: Any) -> None:
        super().__init__(message, **kw)
        self.category = category
        self.reasons = list(reasons or [])


class StreamLimitError(TranslationError):
    """More load/store streams than the accelerator provides."""

    kind = "stream-limit"

    def __init__(self, message: str, stream_kind: str = "",
                 required: int = 0, available: int = 0, **kw: Any) -> None:
        super().__init__(message, **kw)
        self.stream_kind = stream_kind
        self.required = required
        self.available = available


class ResourceClassError(TranslationError):
    """The loop needs a function-unit class the accelerator lacks."""

    kind = "resource-class"

    def __init__(self, message: str, resource: Optional[str] = None,
                 **kw: Any) -> None:
        super().__init__(message, **kw)
        self.resource = resource


class SchedulingError(TranslationError):
    """Modulo scheduling failed at every II up to the maximum.

    ``schedule_failure`` is the scheduler's
    :class:`~repro.scheduler.sms.ScheduleFailure`, carrying per-attempt
    diagnostics (which resource or recurrence blocked each II) for the
    blacklist and the CLI.
    """

    kind = "scheduling"

    def __init__(self, message: str, schedule_failure: Any = None,
                 **kw: Any) -> None:
        super().__init__(message, **kw)
        self.schedule_failure = schedule_failure


class RegisterPressureError(TranslationError):
    """Register demand exceeds the accelerator's register files."""

    kind = "register-pressure"

    def __init__(self, message: str, int_required: int = 0,
                 fp_required: int = 0, int_available: int = 0,
                 fp_available: int = 0, **kw: Any) -> None:
        super().__init__(message, **kw)
        self.int_required = int_required
        self.fp_required = fp_required
        self.int_available = int_available
        self.fp_available = fp_available


class TranslationBudgetExceeded(TranslationError):
    """Translation work passed the configured budget and was aborted.

    A pathological loop (SMS backtracking blow-up, enormous bodies) must
    abort cleanly and fall back to scalar rather than hang a sweep; the
    :class:`~repro.vm.costmodel.TranslationMeter` raises this as soon as
    its charged work units pass ``budget_units``.
    """

    kind = "budget"

    def __init__(self, message: str, budget_units: int = 0,
                 spent_units: int = 0, phase: Optional[str] = None,
                 **kw: Any) -> None:
        super().__init__(message, **kw)
        self.budget_units = budget_units
        self.spent_units = spent_units
        self.phase = phase


# -- run-time failures --------------------------------------------------------

class ExecutionError(ReproError):
    """A translated kernel misbehaved during execution."""

    kind = "execution"


class AcceleratorFault(ExecutionError, RuntimeError):
    """Execution violated a structural invariant of the machine model.

    (Address generator disagreement, FIFO misuse, a value read before
    its producer ran.)  Subclasses ``RuntimeError`` for backward
    compatibility with the original definition in
    :mod:`repro.accelerator.machine`.
    """

    kind = "accelerator-fault"


class GuardViolation(ExecutionError):
    """The differential guard observed a semantic divergence.

    Raised (or recorded) when a checked execution's live-outs or touched
    memory differ from the scalar reference — the signal that drives
    deoptimization.
    """

    kind = "guard-violation"

    def __init__(self, message: str, loop_name: Optional[str] = None,
                 mismatches: Optional[list] = None, **kw: Any) -> None:
        super().__init__(message, **kw)
        self.loop_name = loop_name
        self.mismatches = list(mismatches or [])


# -- configuration failures ---------------------------------------------------

class SettingsError(ReproError):
    """A configuration value (env var or explicit override) is invalid.

    Raised by :meth:`repro.api.Settings.from_env` so a mistyped
    ``REPRO_SHARDS=banana`` fails loudly at startup with the offending
    variable named, instead of silently defaulting — the same posture
    :class:`CacheConfigError` takes for an unusable cache directory.
    """

    kind = "settings"

    def __init__(self, message: str, name: Optional[str] = None,
                 value: Optional[str] = None, **kw: Any) -> None:
        super().__init__(message, **kw)
        self.name = name
        self.value = value


# -- service failures ---------------------------------------------------------

class ServiceError(ReproError):
    """The loop-acceleration service could not process a request."""

    kind = "service"


class ServiceClosed(ServiceError):
    """A request arrived after the service stopped accepting work."""

    kind = "service-closed"


class ServiceOverload(ServiceError):
    """Admission control rejected a request (backpressure).

    Raised at submission time when the bounded request queue is full —
    the typed signal a client uses to back off and retry.  Every
    rejection is also an incident record, so overload shows up on the
    same observability surface as cache corruption and shard deaths.
    """

    kind = "service-overload"

    def __init__(self, message: str, session: Optional[str] = None,
                 queue_depth: Optional[int] = None, **kw: Any) -> None:
        super().__init__(message, **kw)
        self.session = session
        self.queue_depth = queue_depth


class AdmissionRejected(ServiceOverload):
    """Admission control refused a request, with a retry hint.

    Replaces blanket queue-full shedding: the decision tag says *why*
    (``queue-full``, ``throttled``, ``shed-low-priority``,
    ``saturated``) and ``retry_after`` tells a well-behaved client how
    long to back off before resubmitting.  Subclasses
    :class:`ServiceOverload` so existing backpressure handlers keep
    working; the matching incident record carries the same queue
    depth / session / decision triple for post-hoc diagnosis.
    """

    kind = "admission-rejected"

    def __init__(self, message: str, decision: str = "queue-full",
                 retry_after: float = 0.0, **kw: Any) -> None:
        super().__init__(message, **kw)
        self.decision = decision
        self.retry_after = retry_after


class SessionBudgetExceeded(ServiceOverload):
    """A session spent its translation-work budget; request rejected.

    Per-session admission control: translation work units (the
    :class:`~repro.vm.costmodel.TranslationMeter` accounting) are
    charged against the session's budget as results complete, and a
    session past its budget is refused further work instead of starving
    its neighbours.
    """

    kind = "session-budget"

    def __init__(self, message: str, budget_units: int = 0,
                 spent_units: int = 0, **kw: Any) -> None:
        super().__init__(message, **kw)
        self.budget_units = budget_units
        self.spent_units = spent_units


# -- network transport failures -----------------------------------------------

class TransportError(ServiceError):
    """The network transport to/from the service failed.

    Connection refused/reset, a read or connect deadline expired, or
    the retry budget ran out.  Transport failures say nothing about
    the *request*: thanks to dedup keyed on the
    content-addressed transcache digest, resubmitting an identical
    request is always safe (exactly-once translation), which is what
    lets :class:`~repro.service.client.LoopClient` retry these
    mechanically.
    """

    kind = "transport"

    def __init__(self, message: str, op: Optional[str] = None,
                 attempts: int = 0, **kw: Any) -> None:
        super().__init__(message, **kw)
        self.op = op
        self.attempts = attempts


class ProtocolError(TransportError):
    """A wire frame violated the framed/checksummed protocol.

    ``reason`` is a stable sub-tag mirroring the disk-cache integrity
    taxonomy: ``bad-magic``, ``version-mismatch``, ``truncated``,
    ``checksum-mismatch``, ``auth-mismatch``, ``empty-payload``,
    ``oversize``, ``bad-json`` or ``forbidden-global``.  A bad frame
    means the stream can no longer be trusted to be frame-aligned, so
    both sides close the connection; the client reconnects cleanly.
    """

    kind = "protocol"

    def __init__(self, message: str, reason: Optional[str] = None,
                 **kw: Any) -> None:
        super().__init__(message, **kw)
        self.reason = reason


class ShardMovedError(ServiceError):
    """The contacted shard does not own the request's digest.

    A cluster shard checks every keyed request against its copy of the
    shard map (rendezvous hashing over live shards) and redirects work
    it does not own instead of serving it — otherwise two shards could
    translate the same digest and the exactly-once accounting would
    lie.  The error carries the owner's coordinates and the redirecting
    shard's current map, so one round trip both redirects the request
    and refreshes a stale client.  Not a transport failure: the
    connection stays healthy and the breaker records a success.
    """

    kind = "shard-moved"

    def __init__(self, message: str, shard_id: Optional[int] = None,
                 owner_id: Optional[int] = None,
                 owner_host: Optional[str] = None,
                 owner_port: Optional[int] = None,
                 shard_map: Optional[dict] = None, **kw: Any) -> None:
        super().__init__(message, **kw)
        self.shard_id = shard_id
        self.owner_id = owner_id
        self.owner_host = owner_host
        self.owner_port = owner_port
        self.shard_map = shard_map


class CircuitOpenError(TransportError):
    """The client's circuit breaker is open; the call failed fast.

    After ``breaker_threshold`` consecutive transport failures the
    client stops hammering a dead or struggling server and fails
    immediately until the cooldown elapses (then one half-open probe
    is allowed through).
    """

    kind = "circuit-open"


# -- infrastructure failures --------------------------------------------------

class InfrastructureError(ReproError):
    """The experiment infrastructure (cache, artifact) misbehaved.

    Unlike translation/execution failures these say nothing about the
    *workload*: the resilience layer recovers (quarantine + rebuild,
    retry) and results stay bit-identical.  They are
    raised to callers only when recovery itself is impossible (a task
    that fails deterministically, an explicitly configured cache
    directory that cannot be used).
    """

    kind = "infrastructure"


class CacheIntegrityError(InfrastructureError):
    """An on-disk cache entry failed its integrity checks.

    ``reason`` is a stable sub-tag: ``bad-magic``, ``version-mismatch``,
    ``truncated``, ``checksum-mismatch``, ``unpickle``,
    ``forbidden-global`` or ``wrong-type``.  It never escapes a lookup
    — the entry is quarantined and the lookup degrades to a miss — but
    the typed form is what the quarantine step records as an incident.
    """

    kind = "cache-corruption"

    def __init__(self, message: str, path: Optional[str] = None,
                 reason: Optional[str] = None, **kw: Any) -> None:
        super().__init__(message, **kw)
        self.path = path
        self.reason = reason


class CacheConfigError(InfrastructureError):
    """An explicitly configured cache location is unusable.

    Raised at attach time when ``REPRO_CACHE_DIR`` (or an explicit
    ``attach_disk(path, strict=True)``) points somewhere that cannot be
    created or written — a loud early error beats silently degrading a
    location the user asked for by name.
    """

    kind = "cache-config"

    def __init__(self, message: str, path: Optional[str] = None,
                 **kw: Any) -> None:
        super().__init__(message, **kw)
        self.path = path


class ArtifactError(InfrastructureError):
    """An explicitly named AOT artifact cannot be used at all.

    Raised only when the artifact was configured by name
    (``REPRO_ARTIFACT`` / ``serve --artifact`` / ``aot build -o``) and
    the directory is missing, not a directory, or unwritable for a
    build — a loud early error, like :class:`CacheConfigError`.  A
    *corrupt* or version-stale artifact is never this: it is refused
    with an incident record and the run transparently falls back to
    dynamic translation.
    """

    kind = "artifact"

    def __init__(self, message: str, path: Optional[str] = None,
                 **kw: Any) -> None:
        super().__init__(message, **kw)
        self.path = path


class WorkerTaskError(InfrastructureError):
    """A sweep task raised.

    Deterministic task failures are not retried — the same inputs would
    fail again — so the original exception is re-raised in this typed
    form with the originating item attached (``item_index`` into the
    sweep batch plus the caller's human-readable ``point`` label,
    e.g. ``"IEx (1 CCA)[x=8]"``).  The original exception rides on
    ``__cause__``.
    """

    kind = "worker-task"

    def __init__(self, message: str, item_index: Optional[int] = None,
                 point: Optional[str] = None, **kw: Any) -> None:
        super().__init__(message, **kw)
        self.item_index = item_index
        self.point = point


def _subclasses(cls: type) -> list[type]:
    return [c for s in cls.__subclasses__() for c in (s, *_subclasses(s))]


#: ``kind`` -> class of every :class:`ReproError` subclass (all defined
#: above): how :func:`repro.service.wire.raise_error` rebuilds a typed
#: error, and the errors :mod:`repro.resilience.integrity` may load.
ERROR_CLASSES: dict[str, type[ReproError]] = {
    cls.kind: cls for cls in _subclasses(ReproError)}


__all__ = [
    "AcceleratorFault",
    "AdmissionRejected",
    "ArtifactError",
    "CacheConfigError",
    "CacheIntegrityError",
    "CircuitOpenError",
    "ERROR_CLASSES",
    "ExecutionError",
    "GuardViolation",
    "InfrastructureError",
    "ProtocolError",
    "RegisterPressureError",
    "ReproError",
    "ResourceClassError",
    "SchedulabilityError",
    "SchedulingError",
    "ServiceClosed",
    "ServiceError",
    "ServiceOverload",
    "SessionBudgetExceeded",
    "SettingsError",
    "ShardMovedError",
    "StreamLimitError",
    "TranslationBudgetExceeded",
    "TranslationError",
    "TransportError",
    "WorkerTaskError",
]
