"""The synchronous serving facade: sessions in, attended rows out.

:class:`AttentionServer` wires the subsystem together — a
:class:`~repro.serve.sessions.KeyCacheManager` of per-tenant prepared
keys, a :class:`~repro.serve.batcher.DynamicBatcher` with bounded
admission, and a :class:`~repro.serve.scheduler.Scheduler` worker pool
— behind four calls: ``register_session``, ``submit`` (a future),
``attend`` (blocking), and ``stats``.

:class:`ServedBackend` adapts a running server back to the
:class:`~repro.core.backends.AttentionBackend` protocol, so existing
model code (``respond`` / ``respond_many`` / ``encode_inference``) can
route its attention through the server unchanged — each protocol-level
query becomes one server request, and cross-caller batching happens in
the batcher rather than in the model.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.core.backends import ApproximateBackend
from repro.core.config import (
    ApproximationConfig,
    aggressive,
    conservative,
    exact,
    tier_rank,
)
from repro.errors import ConfigError
from repro.serve.batcher import BatchPolicy, DynamicBatcher
from repro.serve.mutator import SessionMutation, SessionMutator
from repro.serve.request import (
    AttentionRequest,
    BatchKey,
    ServerClosedError,
    ServerOverloadedError,
    resolve_request,
)
from repro.serve.observability import MetricsRegistry
from repro.serve.scheduler import Scheduler
from repro.serve.service import TelemetryResult
from repro.serve.sessions import CacheStats, KeyCacheManager, Session
from repro.serve.stats import ServerStats
from repro.serve.tracing import TraceContext, Tracer

__all__ = ["ServerConfig", "AttentionServer", "ServedBackend"]


@dataclass(frozen=True)
class ServerConfig:
    """Everything tunable about one :class:`AttentionServer`.

    Selection statistics are not tunable: a server counts each served
    query's candidate and kept counts into its session's one record
    and keeps no per-query traces.  Figure code that needs
    :class:`~repro.core.approximate.AttentionTrace` objects runs an
    :class:`~repro.core.backends.ApproximateBackend` directly.

    Attributes
    ----------
    batch:
        Batching and backpressure policy (see :class:`BatchPolicy`).
    num_workers:
        Dispatch threads.  One worker per *concurrently active session*
        is the sweet spot: a single session cannot use more than one
        (dispatches against one backend are serialized), while extra
        workers let distinct sessions overlap.
    cache_capacity_bytes:
        Prepared-artifact budget of the key cache (``None`` = unbounded).
    cache_disk_capacity_bytes:
        Byte budget of the cache's disk spill tier.  ``None`` (default)
        disables spilling: evictions drop prepared state and the next
        checkout re-sorts.  When set, evicted artifacts spill to disk
        and later misses promote them back by mmap — see
        :class:`~repro.serve.sessions.KeyCacheManager`.
    cache_spill_dir:
        Directory for spill files (``None`` = a private temp dir).
    approximation:
        Operating point of every session's backend — an
        :class:`~repro.core.backends.ApproximateBackend` on the
        vectorized engine, the one served backend.  Equal-tier,
        equal-width requests from any sessions fuse into one batch, and
        every segment's outputs are bit-identical to a per-session
        dispatch.  ``approximation`` is also what the ``"conservative"``
        quality tier dispatches at, so a server configured with a
        custom operating point keeps serving untagged traffic exactly
        as before tiers existed.
    default_tier:
        Quality tier (one of :data:`repro.core.config.TIERS`) that
        requests without an explicit tier are dispatched at;
        ``"exact"`` makes an exact-serving baseline.  This is the
        *configured* default; the live default can be moved by
        :meth:`AttentionServer.set_default_tier` (e.g. by an
        :class:`~repro.serve.controller.AdaptiveQualityController`
        shedding load by degrading quality) and restored on recovery.
    trace_sample_rate:
        Fraction of requests traced as span trees (see
        :mod:`repro.serve.tracing`), in ``[0, 1]``.  ``0`` (default)
        disables tracing; the request path then performs a single
        boolean check per submit.  Tracing never changes served outputs
        — it only records timestamps.
    trace_max_spans:
        Bound on the tracer's finished-span buffer (oldest spans drop
        once it wraps; the slow-request exemplar ring is kept
        separately and survives wrap-around).
    """

    batch: BatchPolicy = field(default_factory=BatchPolicy)
    num_workers: int = 2
    cache_capacity_bytes: int | None = 256 * 1024 * 1024
    cache_disk_capacity_bytes: int | None = None
    cache_spill_dir: str | None = None
    approximation: ApproximationConfig = field(default_factory=conservative)
    default_tier: str = "conservative"
    trace_sample_rate: float = 0.0
    trace_max_spans: int = 16384

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ConfigError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        tier_rank(self.default_tier)  # raises ConfigError on unknown tiers
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ConfigError(
                "trace_sample_rate must lie in [0, 1], got "
                f"{self.trace_sample_rate}"
            )
        if self.trace_max_spans < 1:
            raise ConfigError(
                f"trace_max_spans must be >= 1, got {self.trace_max_spans}"
            )
        if (
            self.cache_disk_capacity_bytes is not None
            and self.cache_disk_capacity_bytes < 0
        ):
            raise ConfigError(
                "cache_disk_capacity_bytes must be >= 0 or None, got "
                f"{self.cache_disk_capacity_bytes}"
            )

    def tier_configs(self) -> dict[str, ApproximationConfig]:
        """Tier name → operating point served at that tier.

        ``"exact"`` and ``"aggressive"`` are the paper's fixed points;
        ``"conservative"`` serves this server's own ``approximation``
        (which defaults to the paper's conservative point), so the
        middle tier always means "this server's baseline quality".
        """
        return {
            "exact": exact(),
            "conservative": self.approximation,
            "aggressive": aggressive(),
        }


class AttentionServer:
    """Dynamic-batching attention service over registered sessions.

    Every session is served by its own
    :class:`~repro.core.backends.ApproximateBackend` at
    ``config.approximation`` on the vectorized engine, so every batch —
    one session or many fused — is one ragged kernel call at its tier's
    config.  ``ServerConfig(default_tier="exact")`` serves exact
    attention.

    Parameters
    ----------
    config:
        Server configuration; defaults to conservative approximation
        and a batch 64 / 5 ms policy.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> server = AttentionServer()
    >>> _ = server.register_session(
    ...     "tenant-a", rng.normal(size=(32, 8)), rng.normal(size=(32, 8))
    ... )
    >>> with server:
    ...     out = server.attend("tenant-a", rng.normal(size=8))
    >>> out.shape
    (8,)
    """

    def __init__(self, config: ServerConfig | None = None):
        self.config = config or ServerConfig()
        self.cache = KeyCacheManager(
            self._new_backend,
            capacity_bytes=self.config.cache_capacity_bytes,
            disk_capacity_bytes=self.config.cache_disk_capacity_bytes,
            spill_dir=self.config.cache_spill_dir,
        )
        self.stats = ServerStats()
        self.batcher = DynamicBatcher(self.config.batch)
        self.tracer = Tracer(
            sample_rate=self.config.trace_sample_rate,
            max_spans=self.config.trace_max_spans,
        )
        self.scheduler = Scheduler(
            self.batcher, self.cache, self.stats,
            num_workers=self.config.num_workers,
            tracer=self.tracer,
            tier_configs=self.config.tier_configs(),
        )
        self._started = False
        self._stopped = False
        self._next_request_id = 0
        self._id_lock = threading.Lock()
        self._default_tier = self.config.default_tier
        self._service = None
        self._service_lock = threading.Lock()

    def _new_backend(self) -> ApproximateBackend:
        """A fresh backend for one cached session (the cache hands it
        the session's selection record)."""
        return ApproximateBackend(
            self.config.approximation, engine="vectorized"
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "AttentionServer":
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        self.scheduler.start()
        return self

    def stop(self, timeout: float | None = 10.0, drain: bool = False) -> None:
        """Refuse new requests and stop the workers, deterministically.

        Shutdown semantics are explicit, not a race against thread-join
        timing.  After ``stop`` returns, **every request that was ever
        admitted has a resolved future**:

        * ``drain=False`` (default, reject) — requests still queued when
          the close lands fail with :class:`ServerClosedError`; batches
          a worker had already claimed are dispatched and resolve
          normally.
        * ``drain=True`` — the workers finish the whole backlog before
          exiting, so every admitted request resolves with its result
          (or its dispatch error).  Should the drain exceed ``timeout``,
          the remaining queue is converted to rejects — slow shutdown
          degrades to the reject semantics rather than leaving futures
          dangling.

        ``timeout`` bounds the backlog, never a claimed batch: in both
        modes ``stop`` returns after the batches the workers are
        dispatching have resolved.

        A ``submit`` racing with ``stop`` either lands before the close
        (and is served or rejected with the rest of the queue) or raises
        :class:`ServerClosedError` — there is no in-between.
        """
        if self._stopped:
            return
        self._stopped = True
        drained = self.batcher.close(drain=drain)
        self.scheduler.join(timeout)
        if drain and (self.scheduler.running or self.batcher.depth > 0):
            # Stop budget exceeded mid-drain — or there are no workers
            # to drain with (server never started): deterministically
            # reject whatever nobody claimed, rather than leaving the
            # futures dangling.
            drained = self.batcher.close()
        for request in drained:
            # resolve_request, not a bare set_exception: a worker
            # failing a poisoned batch (or a caller cancelling) can race
            # this loop, and the future must end up resolved exactly
            # once without the loser's InvalidStateError escaping stop().
            resolve_request(
                request,
                error=ServerClosedError("server stopped before dispatch"),
            )
        # The queue is closed and empty, so each worker exits once the
        # batch it claimed has resolved.
        self.scheduler.join()

    def __enter__(self) -> "AttentionServer":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._started and not self._stopped

    # ------------------------------------------------------------------
    # session registry
    # ------------------------------------------------------------------
    def register_session(
        self, session_id: str, key: np.ndarray, value: np.ndarray
    ) -> Session:
        """Register (or replace) a tenant's key/value memory."""
        return self.cache.register(session_id, key, value)

    def adopt_session(
        self, session_id: str, segment_name: str, fingerprint
    ) -> Session:
        """Register a session by adopting a shared-memory artifact
        segment by name — the zero-copy replication path.

        The segment (packed by :meth:`ApproximateBackend.export_artifact`
        with the value payload) was prepared once by the cluster front
        door; adopting it costs one attach plus an O(n d) fingerprint
        verification instead of re-sorting or receiving full copies.
        This server never owns the segment: the handle is closed when
        the cached entry retires, and unlinking stays with the creator.
        """
        from repro.core.artifacts import ArtifactBuffer

        artifact = ArtifactBuffer.attach(segment_name)
        try:
            return self.cache.register_prepared(
                session_id, artifact, fingerprint
            )
        except Exception:
            artifact.close()
            raise

    def close_session(self, session_id: str) -> None:
        self.cache.close(session_id)

    def mutate_session(
        self, session_id: str, mutation: SessionMutation
    ) -> Session:
        """Apply one mutation to a session's memory, in place.

        The prepared cache entry survives (incremental splice + byte
        re-accounting instead of evict-and-recreate); see
        :meth:`KeyCacheManager.mutate` and the ordering contract in
        :mod:`repro.serve.mutator`.
        """
        return self.cache.mutate(session_id, mutation)

    def mutator(self, session_id: str) -> SessionMutator:
        """A :class:`~repro.serve.mutator.SessionMutator` handle bound
        to one registered session."""
        self.cache.get(session_id)  # fail fast on unknown sessions
        return SessionMutator(self, session_id)

    # ------------------------------------------------------------------
    # quality tiers
    # ------------------------------------------------------------------
    @property
    def default_tier(self) -> str:
        """The tier currently used for requests submitted without one."""
        return self._default_tier

    def set_default_tier(self, tier: str) -> str:
        """Move the live default tier (the SLO controller's lever).

        Only affects how *future* tier-less submissions resolve; queued
        requests keep the tier they were admitted at, and explicitly
        pinned requests are never touched.  Records the move in the
        stats' quality counters.  Returns the previous default.
        """
        tier_rank(tier)  # raises ConfigError on unknown tiers
        previous = self._default_tier
        if tier != previous:
            self._default_tier = tier
            self.stats.record_tier_change(previous, tier)
        return previous

    def _resolve_tier(self, tier: str | None) -> tuple[str, bool]:
        """Resolve a submission's tier → ``(effective, pinned)``."""
        if tier is None:
            return self._default_tier, False
        tier_rank(tier)  # raises ConfigError on unknown tiers
        return tier, True

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def submit(
        self,
        session_id: str,
        query: np.ndarray,
        tier: str | None = None,
        trace_ctx: TraceContext | None = None,
    ) -> AttentionRequest:
        """Enqueue one query; returns the request whose future resolves
        to the attended ``(d_v,)`` output row.

        ``tier`` pins the request to one quality tier; ``None`` (best
        effort) uses the server's current default, which an SLO
        controller may have degraded below the configured default —
        counted as a downgraded request when it has.

        ``trace_ctx`` is the trace-context propagation hook: when set
        (and tracing is enabled on this server), the request's root
        span parents under the context's span id instead of starting a
        fresh trace — how a spawn shard's spans link back to the
        cluster-side ``rpc`` span, and a frontend's to its client's.
        """
        if self._stopped:
            raise ServerClosedError("server is stopped")
        session = self.cache.get(session_id)
        query = session.validate_query(query)
        effective, pinned = self._resolve_tier(tier)
        span = None
        if self.tracer.enabled and (
            trace_ctx is not None or self.tracer.sample()
        ):
            span = self.tracer.start_span(
                "request",
                trace_id=trace_ctx.trace_id if trace_ctx else None,
                parent_id=trace_ctx.span_id if trace_ctx else None,
                attrs={"session": session_id, "tier": effective},
            )
        request = AttentionRequest(
            session_id=session_id, query=query, tier=effective, pinned=pinned,
            span=span, batch_key=BatchKey(tier=effective, d=session.d),
        )
        request.request_id = self._claim_request_id()
        try:
            self.batcher.submit(request)
        except ServerOverloadedError:
            self.stats.record_rejected()
            if span is not None:
                span.attrs["error"] = "ServerOverloadedError"
                self.tracer.record(span)
            raise
        self.stats.record_submitted(
            tier=effective,
            downgraded=(
                not pinned
                and tier_rank(effective) > tier_rank(self.config.default_tier)
            ),
        )
        return request

    def _claim_request_id(self) -> int:
        with self._id_lock:
            rid = self._next_request_id
            self._next_request_id += 1
        return rid

    def attend(
        self,
        session_id: str,
        query: np.ndarray,
        timeout: float | None = 30.0,
        tier: str | None = None,
        trace_ctx: TraceContext | None = None,
    ) -> np.ndarray:
        """Submit one query and block until its output is ready."""
        return self.submit(
            session_id, query, tier=tier, trace_ctx=trace_ctx
        ).result(timeout)

    def attend_many(
        self,
        session_id: str,
        queries: np.ndarray,
        timeout: float | None = 30.0,
        tier: str | None = None,
        trace_ctx: TraceContext | None = None,
    ) -> np.ndarray:
        """Submit a caller-side batch as individual requests and gather.

        The requests flow through the same admission/batching path as
        everyone else's, so a large caller batch may be split (or fused
        with other callers' queries) according to the batch policy.
        Routed through :meth:`service` — the same op dispatch a network
        caller's frame lands in, so local and remote batches are one
        code path.
        """
        from repro.serve.service import AttendOp

        op = AttendOp(
            session_id=session_id,
            queries=np.asarray(queries),
            tier=tier,
            timeout=timeout,
        )
        return self.service().call(op, trace_ctx=trace_ctx).outputs

    def service(self):
        """This server's :class:`~repro.serve.service.AttentionService`
        — the transport-agnostic typed-op dispatch surface (cached)."""
        from repro.serve.service import AttentionService

        with self._service_lock:
            if self._service is None:
                self._service = AttentionService(self)
            return self._service

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def telemetry(self, spans=()) -> TelemetryResult:
        """This server's books as one detached record (see
        :class:`~repro.serve.service.TelemetryResult`); ``spans`` ride
        along (a :class:`~repro.serve.service.TelemetryOp` passes the
        ones it drained)."""
        stats = ServerStats()
        stats.merge(self.stats)
        cache = CacheStats()
        cache.merge(self.cache.stats)
        return TelemetryResult(
            stats=stats,
            cache=cache,
            occupancy=self.cache.occupancy(),
            fill_exits=self.batcher.fill_exits(),
            selection=self.cache.merged_backend_stats(),
            default_tier=self._default_tier,
            spans=list(spans),
        )

    def snapshot(self) -> dict:
        """JSON-serializable stats: serving, cache, and selection."""
        return self.telemetry().snapshot()

    def metrics_registry(self) -> MetricsRegistry:
        """A fresh :class:`~repro.serve.observability.MetricsRegistry`
        populated from this server's current books (pull-style: nothing
        extra is recorded on the request path)."""
        registry = MetricsRegistry()
        self.telemetry().publish_metrics(registry)
        return registry

    def metrics_text(self) -> str:
        """Prometheus text exposition of the server's metrics."""
        return self.metrics_registry().expose()

    def trace_spans(self) -> list[dict]:
        """Drain and return the tracer's finished spans as dicts."""
        return self.tracer.drain()


class ServedBackend:
    """An :class:`AttentionBackend` whose attends go through a server.

    Binds one session id; the ``key``/``value`` arguments of the
    protocol are validated against the registered session — shape
    checks by default, plus a :class:`~repro.core.backends.KeyFingerprint`
    content check of the key with ``verify_content=True`` — rather than
    shipped with each request: the server owns the memory, so passing
    arrays that differ from the registration (beyond the checks'
    resolution) is an error on the caller's side, not an update.

    ``tier`` pins every request this adapter submits to one quality
    tier (``None`` rides the server's live default), so model code can
    be evaluated at an explicit operating point without knowing about
    the serving layer's degradation machinery.
    """

    def __init__(
        self,
        server: AttentionServer,
        session_id: str,
        timeout: float | None = 30.0,
        verify_content: bool = False,
        tier: str | None = None,
    ):
        self.server = server
        self.session_id = session_id
        self.timeout = timeout
        self.verify_content = verify_content
        self.tier = tier

    @property
    def name(self) -> str:
        return f"served:{self.session_id}"

    @property
    def stats(self):
        return self.server.cache.session_stats(self.session_id)

    def _check_key(self, key: np.ndarray) -> None:
        session = self.server.cache.get(self.session_id)
        if self.verify_content:
            if not session.fingerprint.matches(key):
                raise ConfigError(
                    f"key does not match session {self.session_id!r} "
                    "registration"
                )
        elif np.asarray(key).shape != session.key.shape:
            raise ConfigError(
                f"key shape {np.asarray(key).shape} does not match session "
                f"{self.session_id!r} registration {session.key.shape}"
            )

    def _check_value(self, value: np.ndarray) -> None:
        session = self.server.cache.get(self.session_id)
        if np.asarray(value).shape != session.value.shape:
            raise ConfigError(
                f"value shape {np.asarray(value).shape} does not match "
                f"session {self.session_id!r} registration "
                f"{session.value.shape}"
            )

    def prepare(self, key: np.ndarray) -> None:
        self._check_key(key)

    def attend(
        self, key: np.ndarray, value: np.ndarray, query: np.ndarray
    ) -> np.ndarray:
        self._check_key(key)
        self._check_value(value)
        return self.server.attend(
            self.session_id, query, timeout=self.timeout, tier=self.tier
        )

    def attend_many(
        self, key: np.ndarray, value: np.ndarray, queries: np.ndarray
    ) -> np.ndarray:
        self._check_key(key)
        self._check_value(value)
        return self.server.attend_many(
            self.session_id, queries, timeout=self.timeout, tier=self.tier
        )
