"""``repro.service`` — the loop-acceleration service.

VEAL's translator is a *runtime service*: a co-designed VM accepts hot
loops from many applications and amortizes translation cost across
invocations (PAPER §4; the Figure 8/9 amortization argument).  This
package realises that posture at the process level:

* :class:`~repro.service.server.LoopService` — a long-running server.
  Sessions submit translate/run/figure requests into one bounded
  queue; concurrent identical translations are deduplicated
  (single-flight on the content-addressed transcache digest: one
  translation serves all waiters), every session shares the
  process-wide translation cache, and admission control (queue depth,
  per-session translation budgets) rejects excess load with typed
  :class:`~repro.errors.ServiceOverload` backpressure instead of
  queueing unboundedly.
* :mod:`~repro.service.loadgen` — the shared translate corpus and the
  multi-client worker/shard series that ``python -m repro xp run
  --preset service-workers|service-2shard`` times; a worker row passes
  only if single-flight dedup was exact.
* :mod:`~repro.service.net` / :mod:`~repro.service.client` — the TCP
  front end (``python -m repro serve --port``): a length-framed,
  checksummed wire protocol (:mod:`~repro.service.wire`), a
  :class:`~repro.service.net.NetServer` wrapping the service behind a
  socket, and a :class:`~repro.service.client.LoopClient` that owns
  deadlines, retries with seeded jittered backoff, idempotent
  resubmission and circuit breaking so callers see the session API.
* :mod:`~repro.service.admission` — the degradation ladder: per-session
  token buckets, queue-depth watermarks that shed low-priority and
  uncached work first, and ``retry_after`` hints on every rejection.
* :mod:`~repro.service.cluster` — the self-healing sharded tier
  (``python -m repro serve --shards N``): a
  :class:`~repro.service.cluster.ShardSupervisor` runs N single-worker
  shard processes, each owning a rendezvous-hashed slice of transcache
  digest space, health-checks them over the wire and restarts crashed
  or hung shards with bounded backoff; a
  :class:`~repro.service.cluster.ClusterClient` learns the shard map,
  routes by digest, follows ``shard-moved`` redirects and fails over
  with idempotent resubmission (exactly-once across shard death).

The service composes the existing layers rather than bypassing them:
results come from the same :func:`repro.vm.translator.translate_loop`
/ :mod:`repro.experiments` entry points the serial path uses (and are
byte-identical to it), requests run under :mod:`repro.obs` spans and
``service.*`` metrics, and every rejection is a
:mod:`repro.resilience` incident.
"""

from __future__ import annotations

from repro.errors import (
    AdmissionRejected,
    CircuitOpenError,
    ProtocolError,
    ServiceClosed,
    ServiceError,
    ServiceOverload,
    SessionBudgetExceeded,
    TransportError,
)
from repro.service.admission import (
    AdmissionController,
    AdmissionPolicy,
    TokenBucket,
)
from repro.service.client import ClientStats, LoopClient, RetryPolicy
from repro.service.cluster import (
    ClusterClient,
    ClusterClientStats,
    ClusterConfig,
    ShardInfo,
    ShardMap,
    ShardRouter,
    ShardSupervisor,
    rendezvous_score,
)
from repro.service.net import NetConfig, NetServer
from repro.service.server import (
    LoopService,
    ServiceConfig,
    ServiceSession,
    ServiceStats,
)

__all__ = [
    "AdmissionController", "AdmissionPolicy", "AdmissionRejected",
    "CircuitOpenError", "ClientStats", "ClusterClient",
    "ClusterClientStats", "ClusterConfig", "LoopClient", "LoopService",
    "NetConfig", "NetServer", "ProtocolError", "RetryPolicy",
    "ServiceClosed", "ServiceConfig", "ServiceError", "ServiceOverload",
    "ServiceSession", "ServiceStats", "SessionBudgetExceeded",
    "ShardInfo", "ShardMap", "ShardRouter", "ShardSupervisor",
    "TokenBucket", "TransportError", "rendezvous_score",
]
