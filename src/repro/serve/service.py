"""The transport-agnostic service core of the serving stack.

Until now every consumer of :class:`~repro.serve.server.AttentionServer`
and :class:`~repro.serve.cluster.ShardedAttentionServer` spoke to them
through their Python method surfaces.  That is fine in-process, but a
network front end (or any other transport) needs the request surface as
*data*: a closed vocabulary of request dataclasses, one response type
per request, and a single dispatch entry point.  This module is that
vocabulary:

* the **ops** — :class:`AttendOp`, :class:`RegisterSessionOp`,
  :class:`AdoptSessionOp`, :class:`CloseSessionOp`,
  :class:`MutateSessionOp`, :class:`SetTierOp`, :class:`SnapshotOp`,
  :class:`MetricsOp`, :class:`SessionStatsOp`, :class:`TelemetryOp`,
  :class:`SpansOp`, :class:`PingOp` — plain frozen dataclasses
  describing one request each.  Every field is wire-encodable
  (ndarrays, strings, typed :class:`~repro.serve.mutator.SessionMutation`
  records, key fingerprints);
* the **results** — :class:`AttendResult`, :class:`SessionInfo`,
  :class:`TierResult`, :class:`SnapshotResult`, :class:`MetricsResult`,
  :class:`TelemetryResult`, :class:`SpansResult`, :class:`Pong`, and a
  session's :class:`~repro.core.backends.BackendStats` counters;
* :class:`AttentionService` — the one dispatch surface: ``call(op)``
  executes any op against the wrapped target (a single server or a
  sharded cluster) and returns its typed result, raising the serving
  layer's usual exceptions on failure.

**Local and remote callers are the same code path**: an in-process
caller builds an op and hands it to ``AttentionService.call``; a remote
caller builds the *same* op, the wire codec
(:mod:`repro.serve.protocol`) carries it to the
:class:`~repro.serve.frontend.NetworkFrontend`, and the frontend hands
it to the same ``AttentionService.call``.  ``AttentionServer.attend`` /
``attend_many`` themselves route through the service
(:meth:`AttentionServer.service`), so there is exactly one gather/
dispatch implementation to test, trace, and reason about.  A cluster
shard is the same thing again: anything answering ``call(op)`` /
``submit_attend(op, trace_ctx)`` — an ``AttentionService`` over a local
server, or an :class:`~repro.serve.client.AttentionClient` connected to
a spawned one.

The service also exposes the **asynchronous attend seam** the network
front end is built on: :meth:`AttentionService.submit_attend` returns a
:class:`concurrent.futures.Future` instead of blocking.  Against a
single server this feeds the queries straight into the existing
:class:`~repro.serve.batcher.DynamicBatcher` (each query is one
``server.submit``; the result future gathers the rows), so network
traffic batches and fuses with in-process traffic under the exact same
policy.  Against a cluster — whose request path is inherently blocking
RPC with failover — the blocking call runs on a small service-owned
thread pool.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.core.backends import BackendStats, KeyFingerprint
from repro.errors import ConfigError
from repro.serve.batcher import FILL_EXITS
from repro.serve.mutator import SessionMutation
from repro.serve.observability import MetricsRegistry
from repro.serve.request import resolve_request
from repro.serve.sessions import CacheStats
from repro.serve.stats import ServerStats
from repro.serve.tracing import TraceContext

__all__ = [
    "AttendOp",
    "RegisterSessionOp",
    "AdoptSessionOp",
    "CloseSessionOp",
    "MutateSessionOp",
    "SetTierOp",
    "SnapshotOp",
    "MetricsOp",
    "SessionStatsOp",
    "TelemetryOp",
    "SpansOp",
    "PingOp",
    "AttendResult",
    "SessionInfo",
    "TierResult",
    "SnapshotResult",
    "MetricsResult",
    "TelemetryResult",
    "SpansResult",
    "Pong",
    "AttentionService",
]


# ----------------------------------------------------------------------
# ops — one frozen dataclass per request type
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AttendOp:
    """Attend ``queries`` (``(q, d)``) over one session's memory.

    ``tier`` pins the quality tier (``None`` rides the target's live
    default).  ``timeout`` bounds the blocking :meth:`AttentionService.call`
    path; the async :meth:`AttentionService.submit_attend` path leaves
    the patience to whoever consumes the future.
    """

    session_id: str
    queries: np.ndarray
    tier: str | None = None
    timeout: float | None = 30.0


@dataclass(frozen=True)
class RegisterSessionOp:
    """Register (or replace) a session's ``(key, value)`` memory."""

    session_id: str
    key: np.ndarray
    value: np.ndarray


@dataclass(frozen=True)
class AdoptSessionOp:
    """Register (or replace) a session by adopting a shared-memory
    artifact segment by name — the zero-copy seeding path of spawn
    shards.  The target verifies ``fingerprint`` against the segment's
    key before serving from it."""

    session_id: str
    segment_name: str
    fingerprint: KeyFingerprint


@dataclass(frozen=True)
class CloseSessionOp:
    session_id: str


@dataclass(frozen=True)
class MutateSessionOp:
    """Apply one typed :class:`SessionMutation` to a session's memory."""

    session_id: str
    mutation: SessionMutation


@dataclass(frozen=True)
class SetTierOp:
    """Move the target's live default quality tier."""

    tier: str


@dataclass(frozen=True)
class SnapshotOp:
    pass


@dataclass(frozen=True)
class MetricsOp:
    """Prometheus text exposition of the target's metrics."""

    pass


@dataclass(frozen=True)
class SessionStatsOp:
    """One session's selection counters, as a
    :class:`~repro.core.backends.BackendStats` (counters only)."""

    session_id: str


@dataclass(frozen=True)
class TelemetryOp:
    """A single server's books in one read — a :class:`TelemetryResult`
    carrying the finished spans it *drains*."""

    pass


@dataclass(frozen=True)
class SpansOp:
    """Drain the target's finished spans alone — a trace export that
    does not carry the books a :class:`TelemetryOp` does."""

    pass


@dataclass(frozen=True)
class PingOp:
    pass


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AttendResult:
    """``(q, d_v)`` attended output rows, one per query."""

    outputs: np.ndarray


@dataclass(frozen=True)
class SessionInfo:
    """Shape record of a registered session (post-register/mutate)."""

    session_id: str
    n: int
    d: int
    d_v: int


@dataclass(frozen=True)
class TierResult:
    """The default tier that was in effect before a :class:`SetTierOp`."""

    previous: str


@dataclass(frozen=True)
class SnapshotResult:
    """The target's JSON-serializable telemetry snapshot."""

    snapshot: dict


@dataclass(frozen=True)
class MetricsResult:
    text: str


#: Cache occupancy gauges of a record: occupancy key, family, help.
_OCCUPANCY_GAUGES = (
    ("sessions", "repro_serve_sessions", "Registered sessions."),
    (
        "entries",
        "repro_serve_cache_entries",
        "Sessions with live prepared artifacts.",
    ),
    (
        "resident_bytes",
        "repro_serve_cache_resident_bytes",
        "Bytes of prepared artifacts currently cached.",
    ),
    (
        "spilled_entries",
        "repro_serve_cache_spilled_entries",
        "Sessions with artifacts in the disk spill tier.",
    ),
    (
        "disk_bytes",
        "repro_serve_cache_disk_bytes",
        "Bytes of spilled artifact files in the disk tier.",
    ),
)


@dataclass(frozen=True)
class TelemetryResult:
    """One server's books: the record every telemetry view renders.

    A detached copy of a server's :class:`~repro.serve.stats.ServerStats`
    counters and reservoirs, its cache's
    :class:`~repro.serve.sessions.CacheStats` and occupancy, its
    batcher's fill-exit counts, its sessions' merged selection
    counters and its live default tier, plus the finished spans the
    read drained.  :meth:`snapshot` and :meth:`publish_metrics` are the
    only renderers: ``AttentionServer.snapshot()`` and
    ``metrics_registry()`` render the server's own record, and a
    cluster renders each shard's record (its exposition under
    ``shard=``) and its aggregate — the shards' records merged with
    ``ServerStats.merge``, ``CacheStats.merge`` and
    ``BackendStats.merge`` — with the same code.  ``TelemetryResult()``
    is the empty record of a shard that never served or whose books
    died with it.
    """

    stats: ServerStats = field(default_factory=ServerStats)
    cache: CacheStats = field(default_factory=CacheStats)
    occupancy: dict[str, int] = field(default_factory=dict)
    fill_exits: dict[str, int] = field(default_factory=dict)
    selection: BackendStats = field(
        default_factory=lambda: BackendStats(keep_traces=False)
    )
    default_tier: str = "conservative"
    spans: list[dict] = field(default_factory=list)

    def snapshot(self) -> dict:
        """One JSON-serializable dict of every headline signal: the
        stats, ``cache``, ``selection`` and ``default_tier``."""
        snapshot = self.stats.snapshot(
            cache_stats=self.cache, backend=self.selection
        )
        snapshot["default_tier"] = self.default_tier
        return snapshot

    def publish_metrics(self, registry: MetricsRegistry, labels=None) -> None:
        """Render the record's ``repro_serve_*`` families into
        ``registry``; ``labels`` (a cluster passes ``{"shard": id}``)
        is added to every sample."""
        extra = dict(labels or {})
        names = tuple(extra)
        self.stats.publish_metrics(registry, extra)
        exits = registry.counter(
            "repro_serve_batch_fill_exits_total",
            "Batches by why their fill loop ended: full, deadline, idle "
            "(no arrival expected in time) or closed.",
            labelnames=("reason", *names),
        )
        for reason in FILL_EXITS:
            exits.labels(reason=reason, **extra).inc(
                self.fill_exits.get(reason, 0)
            )
        self.cache.publish_metrics(registry, extra)
        for key, name, help in _OCCUPANCY_GAUGES:
            registry.gauge(name, help, labelnames=names).labels(
                **extra
            ).set(self.occupancy.get(key, 0))
        registry.gauge(
            "repro_serve_default_tier_info",
            "The server's live default tier (value 1 on the active tier).",
            labelnames=("tier", *names),
        ).labels(tier=self.default_tier, **extra).set(1)


@dataclass(frozen=True)
class SpansResult:
    """The finished spans a :class:`SpansOp` drained, as dicts."""

    spans: list[dict]


@dataclass(frozen=True)
class Pong:
    pass


def _gather_rows(futures: list) -> Future:
    """One future resolving to ``np.stack`` of many row futures.

    The first per-row failure fails the gather (matching the blocking
    ``attend_many`` semantics, where the first ``result()`` to raise
    propagates); remaining rows keep their own futures resolved by the
    scheduler, they just aren't waited on.
    """
    gathered: Future = Future()
    remaining = [len(futures)]
    lock = threading.Lock()
    rows: list = [None] * len(futures)

    def on_done(index: int, future) -> None:
        error = future.exception()
        if error is not None:
            if not gathered.done():
                try:
                    gathered.set_exception(error)
                except Exception:  # already resolved by a racing row
                    pass
            return
        rows[index] = future.result()
        with lock:
            remaining[0] -= 1
            finished = remaining[0] == 0
        if finished and not gathered.done():
            try:
                gathered.set_result(np.stack(rows))
            except Exception:  # already resolved by a racing row
                pass

    for index, future in enumerate(futures):
        future.add_done_callback(
            lambda f, index=index: on_done(index, f)
        )
    return gathered


class AttentionService:
    """Typed op dispatch over one serving target.

    Parameters
    ----------
    target:
        An :class:`~repro.serve.server.AttentionServer` or
        :class:`~repro.serve.cluster.ShardedAttentionServer` (anything
        with the shared session/attend/tier/telemetry surface works).
    max_dispatch_threads:
        Size of the fallback thread pool used by
        :meth:`submit_attend` when the target has no non-blocking
        submit path (clusters).  Lazily created.
    """

    def __init__(self, target, max_dispatch_threads: int = 8):
        self.target = target
        self._max_dispatch_threads = max_dispatch_threads
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        # A single server exposes submit() returning a per-request
        # future — the seam that feeds the DynamicBatcher directly.
        self._can_submit = hasattr(target, "submit")

    # -- async attend seam ---------------------------------------------
    def _executor(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._max_dispatch_threads,
                    thread_name_prefix="repro-service",
                )
            return self._pool

    def submit_attend(
        self, op: AttendOp, trace_ctx: TraceContext | None = None
    ) -> Future:
        """Begin one attend without blocking; resolves to
        :class:`AttendResult`.

        Single servers: each query row becomes one ``server.submit``
        (admission control, batching, and cross-session fusion apply
        exactly as for in-process traffic; ``trace_ctx`` parents each
        request's span tree under the remote caller's span).  A
        zero-row attend resolves at once to ``(0, d_v)`` after the same
        session lookup a one-row attend does.  Clusters: the blocking
        ``attend_many`` runs on the service's thread pool, keeping the
        failover retry ladder intact, with ``trace_ctx`` parenting the
        cluster's ``cluster_request`` span.

        Backpressure rejects raise *synchronously* (the admission
        decision is immediate); dispatch failures resolve the future.
        """
        queries = np.asarray(op.queries, dtype=np.float64)
        if queries.ndim == 1:
            queries = queries[np.newaxis, :]
        if not self._can_submit:
            gathered = self._executor().submit(
                self.target.attend_many, op.session_id, queries,
                timeout=op.timeout, tier=op.tier, trace_ctx=trace_ctx,
            )
        elif not len(queries):
            session = self.target.cache.get(op.session_id)
            gathered = Future()
            gathered.set_result(np.empty((0, session.value.shape[1])))
        else:
            requests = []
            try:
                for query in queries:
                    requests.append(
                        self.target.submit(
                            op.session_id,
                            query,
                            tier=op.tier,
                            trace_ctx=trace_ctx,
                        )
                    )
            except BaseException:
                # Partial admission: the already-queued rows dispatch
                # normally, but nobody will wait on them — fail them
                # now so the batch is all-or-nothing from the caller's
                # point of view and no future is left unobserved.
                for request in requests:
                    resolve_request(
                        request,
                        error=RuntimeError("sibling query was rejected"),
                    )
                raise
            if len(requests) == 1:  # a lone row's own future carries it
                gathered = requests[0].future
            else:
                gathered = _gather_rows([r.future for r in requests])
        result: Future = Future()

        def finish(future) -> None:
            error = future.exception()
            if error is not None:
                result.set_exception(error)
            else:
                outputs = np.atleast_2d(future.result())
                result.set_result(AttendResult(outputs=outputs))

        gathered.add_done_callback(finish)
        return result

    # -- blocking dispatch ---------------------------------------------
    def call(self, op, trace_ctx: TraceContext | None = None):
        """Execute one op against the target and return its typed result.

        Raises whatever the target raises —
        :class:`~repro.serve.request.ServeError` subclasses,
        :class:`~repro.errors.ConfigError`/:class:`~repro.errors.ShapeError`
        on bad inputs — unchanged; transports map them to typed wire
        errors (:mod:`repro.serve.protocol`), not this layer.
        """
        if isinstance(op, AttendOp):
            return self.submit_attend(op, trace_ctx=trace_ctx).result(
                op.timeout
            )
        if isinstance(op, RegisterSessionOp):
            session = self.target.register_session(
                op.session_id, op.key, op.value
            )
            return _session_info(session)
        if isinstance(op, AdoptSessionOp):
            session = self._server(op).adopt_session(
                op.session_id, op.segment_name, op.fingerprint
            )
            return _session_info(session)
        if isinstance(op, CloseSessionOp):
            self.target.close_session(op.session_id)
            return Pong()
        if isinstance(op, MutateSessionOp):
            session = self.target.mutate_session(op.session_id, op.mutation)
            return _session_info(session)
        if isinstance(op, SetTierOp):
            previous = self.target.set_default_tier(op.tier)
            return TierResult(previous=previous)
        if isinstance(op, SnapshotOp):
            return SnapshotResult(snapshot=self.target.snapshot())
        if isinstance(op, MetricsOp):
            return MetricsResult(text=self.target.metrics_text())
        if isinstance(op, SessionStatsOp):
            return self.target.cache.session_stats(op.session_id)
        if isinstance(op, TelemetryOp):
            server = self._server(op)
            return server.telemetry(spans=server.trace_spans())
        if isinstance(op, SpansOp):
            return SpansResult(spans=self.target.trace_spans())
        if isinstance(op, PingOp):
            return Pong()
        raise TypeError(f"unknown service op {type(op).__name__}")

    def _server(self, op):
        """The wrapped single server, for the shard-level ops a cluster
        does not answer (it pools these from its shards instead)."""
        if not self._can_submit:
            raise ConfigError(
                f"{type(op).__name__} needs a single-server target"
            )
        return self.target

    def close(self) -> None:
        """Release the fallback dispatch pool (idempotent)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False)


def _session_info(session) -> SessionInfo:
    return SessionInfo(
        session_id=session.session_id,
        n=int(session.key.shape[0]),
        d=int(session.key.shape[1]),
        d_v=int(session.value.shape[1]),
    )
