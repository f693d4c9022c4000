"""Request-level serving layer over the batched attention kernel.

The paper amortizes one comprehension-time key preprocessing across
many query responses; PR 1's vectorized engine exploits that with a
whole-batch ``attend_many``.  This subsystem turns the kernel into a
multi-tenant service:

* :class:`~repro.serve.sessions.KeyCacheManager` — per-tenant sessions,
  LRU cache of prepared key artifacts with byte-capacity accounting,
  plus in-place session mutation with delta re-accounting;
* :class:`~repro.serve.mutator.SessionMutator` — streaming mutable
  sessions: typed append/delete/replace mutations maintained
  incrementally in the prepared backends
  (:mod:`repro.core.incremental`), bit-identical to a fresh prepare of
  the final key;
* :class:`~repro.serve.batcher.DynamicBatcher` — groups single-query
  requests by :class:`~repro.serve.request.BatchKey` (a server stamps
  the cross-session class of equal tier and query width) under a
  max-batch-size / max-wait policy whose wait a group skips when its
  recent arrivals are too far apart to fill it in time, with bounded
  admission and reject/block backpressure;
* :class:`~repro.serve.scheduler.Scheduler` — threaded workers
  running each group as one kernel call, a multi-key
  :func:`~repro.core.backends.attend_many_ragged` over its per-session
  segments (one segment or many), at the tier's config; a segment
  whose session went away fails alone, and every other segment stays
  bit-identical to per-session evaluation;
* :class:`~repro.serve.stats.ServerStats` — latency percentiles, batch
  histogram, queue depth, cache hit rate; aggregates per-session
  :class:`~repro.core.backends.BackendStats`;
* :class:`~repro.serve.server.AttentionServer` — the synchronous
  facade over one served backend (the vectorized
  :class:`~repro.core.backends.ApproximateBackend`, whose ``"exact"``
  tier is the exact-serving baseline), plus
  :class:`~repro.serve.server.ServedBackend` adapting a running server
  back to the ``AttentionBackend`` protocol;
* :class:`~repro.serve.router.ConsistentHashRouter` /
  :class:`~repro.serve.cluster.ShardedAttentionServer` — the scale-out
  layer: N shard replicas (thread- or process-backed), each with its
  own cache/batcher/scheduler stack, sessions placed by consistent
  hashing with explicit minimal-movement rebalancing, and cluster-wide
  aggregated telemetry;
* **fault tolerance** (:mod:`repro.serve.health`) — per-session
  replication across the ring's preference list, heartbeat failure
  detection (:class:`~repro.serve.health.HeartbeatMonitor`), and
  lossless automatic failover: a dead shard's sessions promote a
  surviving replica and rebuild redundancy from the cluster's own
  session record (which holds every applied mutation), while in-flight
  requests retry on the promoted primary
  (:class:`~repro.serve.cluster.ShardUnavailableError` is retryable;
  plain :class:`~repro.serve.cluster.ShardError` is fatal);
* **quality tiers** (:data:`repro.core.config.TIERS`) — every request
  carries a tier in ``{"exact", "conservative", "aggressive"}``; one
  prepared key artifact per session serves all tiers (the scheduler
  passes the tier's config per call), batches stay single-tier, and
  :class:`~repro.serve.controller.AdaptiveQualityController` degrades
  the default tier of best-effort traffic under sustained SLO
  violation (and restores it on recovery) instead of rejecting load;
* **observability** (:mod:`repro.serve.observability` /
  :mod:`repro.serve.tracing`) — sampled per-request trace span trees
  (submit → queue → batch-formation → dispatch → kernel → resolve)
  that propagate across the cluster's shard RPC boundary via
  :class:`~repro.serve.tracing.TraceContext`, one record of each
  server's books (:class:`~repro.serve.service.TelemetryResult`) that
  every snapshot and Prometheus-text exposition renders — a cluster's
  per shard and merged — and zero-overhead
  kernel stage profiling hooks
  (:class:`~repro.core.profiling.StageProfiler`).  All of it is
  off by default and never changes served outputs.

See ``examples/serving_demo.py`` for an end-to-end tour,
``benchmarks/run_kernels.py`` for the gated serving ratios (burst vs
one-at-a-time dispatch, the tier dial, cross-session fusion, append
splice and disk-tier promote), and ``perfbench/`` for open-loop
serving over a socket.
"""

from repro.core.config import TIERS
from repro.serve.batcher import BatchPolicy, DynamicBatcher
from repro.serve.cluster import (
    ClusterConfig,
    ProcessShard,
    ShardedAttentionServer,
    ShardError,
    ShardUnavailableError,
    ThreadShard,
)
from repro.serve.health import FaultInjector, HeartbeatMonitor, ShardDownEvent
from repro.serve.mutator import (
    AppendRowsMutation,
    DeleteRowsMutation,
    ReplaceKeyMutation,
    SessionMutation,
    SessionMutator,
)
from repro.serve.observability import (
    MetricsRegistry,
    StageProfiler,
    parse_exposition,
    publish_profile,
)
from repro.serve.client import AsyncAttentionClient, AttentionClient
from repro.serve.frontend import NetworkFrontend
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    BadFrameError,
    ConnectionLostError,
    FrameTooLargeError,
    ProtocolError,
    UnsupportedVersionError,
)
from repro.serve.request import (
    AttentionRequest,
    BatchKey,
    ServeError,
    ServerClosedError,
    ServerOverloadedError,
    UnknownSessionError,
)
from repro.serve.service import (
    AdoptSessionOp,
    AttendOp,
    AttendResult,
    AttentionService,
    CloseSessionOp,
    MetricsOp,
    MetricsResult,
    MutateSessionOp,
    PingOp,
    Pong,
    RegisterSessionOp,
    SessionInfo,
    SessionStatsOp,
    SetTierOp,
    SnapshotOp,
    SnapshotResult,
    SpansOp,
    SpansResult,
    TelemetryOp,
    TelemetryResult,
    TierResult,
)
from repro.serve.controller import (
    AdaptiveQualityController,
    QualityPolicy,
    TierTransition,
)
from repro.serve.router import ConsistentHashRouter
from repro.serve.scheduler import Scheduler
from repro.serve.server import AttentionServer, ServedBackend, ServerConfig
from repro.serve.sessions import (
    CacheStats,
    KeyCacheManager,
    PreparedSession,
    Session,
    validate_memory,
)
from repro.serve.stats import ServerStats
from repro.serve.tracing import Span, TraceContext, Tracer

__all__ = [
    "AdaptiveQualityController",
    "AdoptSessionOp",
    "AppendRowsMutation",
    "AsyncAttentionClient",
    "AttendOp",
    "AttendResult",
    "AttentionClient",
    "AttentionRequest",
    "AttentionServer",
    "AttentionService",
    "BadFrameError",
    "BatchKey",
    "CloseSessionOp",
    "ConnectionLostError",
    "FrameTooLargeError",
    "MetricsOp",
    "MetricsResult",
    "MutateSessionOp",
    "NetworkFrontend",
    "PROTOCOL_VERSION",
    "PingOp",
    "Pong",
    "ProtocolError",
    "RegisterSessionOp",
    "SessionInfo",
    "SessionStatsOp",
    "SetTierOp",
    "SnapshotOp",
    "SnapshotResult",
    "SpansOp",
    "SpansResult",
    "TelemetryOp",
    "TelemetryResult",
    "TierResult",
    "UnsupportedVersionError",
    "BatchPolicy",
    "CacheStats",
    "ClusterConfig",
    "ConsistentHashRouter",
    "DeleteRowsMutation",
    "DynamicBatcher",
    "FaultInjector",
    "HeartbeatMonitor",
    "KeyCacheManager",
    "MetricsRegistry",
    "PreparedSession",
    "ProcessShard",
    "QualityPolicy",
    "ReplaceKeyMutation",
    "Scheduler",
    "ServeError",
    "ServedBackend",
    "ServerClosedError",
    "ServerConfig",
    "ServerOverloadedError",
    "ServerStats",
    "Session",
    "SessionMutation",
    "SessionMutator",
    "ShardDownEvent",
    "ShardError",
    "ShardUnavailableError",
    "ShardedAttentionServer",
    "Span",
    "StageProfiler",
    "ThreadShard",
    "TIERS",
    "TierTransition",
    "TraceContext",
    "Tracer",
    "UnknownSessionError",
    "parse_exposition",
    "publish_profile",
    "validate_memory",
]
