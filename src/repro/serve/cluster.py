"""Sharded multi-replica attention serving.

The paper's accelerator scales throughput by replicating approximate-
attention units and streaming independent queries through them
(Section V); one :class:`~repro.serve.server.AttentionServer` is the
software analogue of a single unit — one scheduler, one backend stack,
one core's worth of dispatch.  :class:`ShardedAttentionServer` is the
replicated version: N shard replicas, each running its **own**
:class:`~repro.serve.sessions.KeyCacheManager` /
:class:`~repro.serve.batcher.DynamicBatcher` /
:class:`~repro.serve.scheduler.Scheduler` stack, with sessions placed
onto shards by a stable
:class:`~repro.serve.router.ConsistentHashRouter`.

A shard is anything that answers ``call(op)`` and
``submit_attend(op, trace_ctx)`` with the typed ops of
:mod:`repro.serve.service` — the same vocabulary a network caller
speaks — so the cluster has one op vocabulary and one codec from its
callers down to every replica.  Two shard flavors:

* :class:`ThreadShard` — an
  :class:`~repro.serve.service.AttentionService` over an in-process
  ``AttentionServer``.  Cheap, shares the GIL; distinct shards overlap
  only as far as NumPy releases the GIL (and not at all on one core).
* :class:`ProcessShard` — the replica lives in a ``multiprocessing``
  *spawn* child, giving true multi-core parallelism.  The parent holds
  an :class:`~repro.serve.client.AttentionClient` on one end of a
  ``socket.socketpair()``; the child answers the ops as
  :mod:`repro.serve.protocol` frames on the other end, through the
  connection loop a network frontend serves its callers with.  Requests carry
  correlation ids, so many queries stay in flight per shard and the
  child's dynamic batcher still gets to group them.  Nothing on the
  connection is pickled.

Placement changes are **explicit**: :meth:`ShardedAttentionServer.add_shard`
and :meth:`~ShardedAttentionServer.remove_shard` rebalance by moving
exactly the sessions whose consistent-hash route changed (the router
guarantees that set is minimal), re-registering each moved session's
key/value on its new shard before dropping it from the old one.

Shard *death*, by contrast, is handled automatically.  With a
replication factor R > 1 every session lives on the R shards of its
ring :meth:`~repro.serve.router.ConsistentHashRouter.preference_list`
(writes — registration, mutation, tier moves — fan out to all
replicas; reads are served by the primary, the list's head).  When a
shard is declared dead — by a
:class:`~repro.serve.health.HeartbeatMonitor`, by the request path
hitting a :class:`ShardUnavailableError`, or explicitly via
:meth:`ShardedAttentionServer.report_shard_failure` — failover runs as
one atomic control-plane step: the shard leaves the ring, each of its
sessions promotes the next surviving replica to primary, and lost
redundancy is rebuilt on the next healthy shards of its preference
list from the cluster's own :class:`~repro.serve.sessions.Session`
record — the one copy registration and rebalancing seed from too,
which already holds every applied mutation (preparing a final key from
scratch gives the same bits as splicing its mutations in one by one,
:mod:`repro.core.incremental`).  In-flight requests against the dead
shard fail parent-side with the *retryable*
:class:`ShardUnavailableError` (a lost connection is a
:class:`~repro.serve.protocol.ConnectionLostError`, which is one), and
the request path retries them on the promoted primary (bounded attempts
with backoff) — so a shard crash loses no requests, only the dead
replica's local telemetry.

Telemetry has one set of books: each shard answers a
:class:`~repro.serve.service.TelemetryOp` with its record (a
:class:`~repro.serve.service.TelemetryResult`), and the cluster renders
those records with the server's own code.
:meth:`~ShardedAttentionServer.snapshot` reports each live shard's
snapshot and an aggregate rendered from every live and retired shard's
records merged into one — so it has every key of a server snapshot,
with percentiles recomputed over the pooled samples — plus the
cluster's own keys, such as a load-imbalance metric (max/mean completed
requests per shard; 1.0 is perfectly balanced).
:meth:`~ShardedAttentionServer.metrics_registry` renders each shard's
record under a ``shard`` label.
"""

from __future__ import annotations

import multiprocessing
import socket
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.artifacts import ArtifactBuffer
from repro.core.backends import BackendStats
from repro.core.config import tier_rank
from repro.core.efficient_search import PreprocessedKey
from repro.errors import ConfigError
from repro.serve.client import AttentionClient
from repro.serve.frontend import Connection
from repro.serve.health import FaultInjector, HeartbeatMonitor
from repro.serve.mutator import SessionMutator
from repro.serve.observability import MetricsRegistry
from repro.serve.request import (
    ServeError,
    ServerClosedError,
    ShardError,
    ShardUnavailableError,
    UnknownSessionError,
)
from repro.serve.router import ConsistentHashRouter
from repro.serve.server import AttentionServer, ServerConfig
from repro.serve.service import (
    AdoptSessionOp,
    AttendOp,
    AttentionService,
    CloseSessionOp,
    MetricsOp,
    MutateSessionOp,
    RegisterSessionOp,
    SessionStatsOp,
    SetTierOp,
    SnapshotOp,
    SnapshotResult,
    SpansOp,
    SpansResult,
    TelemetryOp,
    TelemetryResult,
)
from repro.serve.sessions import CacheStats, Session, validate_memory
from repro.serve.stats import ServerStats
from repro.serve.tracing import TraceContext, Tracer

__all__ = [
    "ClusterConfig",
    "SegmentStore",
    "ShardError",
    "ShardUnavailableError",
    "ShardedAttentionServer",
    "ThreadShard",
    "ProcessShard",
]


class SegmentStore:
    """Parent-side registry of shared-memory artifact segments.

    When shards are spawn processes, the cluster front door prepares a
    session's key **once** — one column sort, one
    :class:`~repro.core.artifacts.ArtifactBuffer` packed into a
    ``/dev/shm`` segment holding the prepared planes plus the value
    matrix — and every replica adopts the segment *by name*: the
    register/replication fan-out, rebalancing and failover re-seeding
    ship a ~100-byte handle instead of R copies of the arrays, and no
    child ever re-sorts.

    Lifecycle ownership is strict: the store (the parent) is the sole
    owner of every segment it packs.  Segments are refcounted via
    :meth:`ArtifactBuffer.release` and unlinked when dropped — on
    session close, on mutation, on re-registration with new memory, and
    wholesale at cluster stop — which children tolerate because their
    established mappings survive an unlink (a SIGKILL'd child's mappings
    are freed by the kernel).  Reuse is keyed on *array identity*: a lease for
    the same ``(key, value)`` objects returns the existing segment (the
    common case — every replica is seeded from the one session
    record), while different arrays — the session was re-registered
    since — repack.  All calls run under the cluster lock.
    """

    def __init__(self) -> None:
        self._records: dict[
            str, tuple[ArtifactBuffer, np.ndarray, np.ndarray]
        ] = {}

    def lease(
        self, session_id: str, key: np.ndarray, value: np.ndarray
    ) -> ArtifactBuffer:
        """The session's segment for exactly these memory arrays,
        packing one (sort + copy) only when none exists yet."""
        record = self._records.get(session_id)
        if record is not None:
            artifact, base_key, base_value = record
            if base_key is key and base_value is value:
                return artifact
            self.drop(session_id)  # stale memory: repack below
        pre = PreprocessedKey.build(key)
        artifact = ArtifactBuffer.pack(pre, value, storage="shm")
        self._records[session_id] = (artifact, key, value)
        return artifact

    def drop(self, session_id: str) -> None:
        """Release (and, as owner, unlink) the session's segment."""
        record = self._records.pop(session_id, None)
        if record is not None:
            record[0].release()

    def close_all(self) -> None:
        """Drop every segment — the stop path's leak guarantee."""
        for session_id in list(self._records):
            self.drop(session_id)

    @property
    def segment_names(self) -> list[str]:
        return [record[0].name for record in self._records.values()]


@dataclass(frozen=True)
class ClusterConfig:
    """Everything tunable about one :class:`ShardedAttentionServer`.

    Attributes
    ----------
    num_shards:
        Initial replica count (shards can be added/removed live).
    shard:
        Per-shard :class:`~repro.serve.server.ServerConfig`; every
        replica runs an identical stack.
    spawn:
        ``True`` backs each shard with a ``multiprocessing`` spawn child
        (true parallelism); ``False`` keeps shards as in-process thread
        stacks.
    virtual_nodes:
        Consistent-hash ring points per shard (see
        :class:`~repro.serve.router.ConsistentHashRouter`).
    rpc_timeout_seconds:
        Patience for control-plane calls (register, stats, stop) to a
        spawned shard before declaring it dead.
    replication:
        Replica count R per session: writes fan out to the R shards of
        the session's ring preference list, reads go to the primary
        (the list's head), and a shard death promotes the next
        surviving replica.  R = 1 (the default) is the pre-failover
        behavior: sessions live on exactly one shard, and a shard
        death recovers them by re-seeding a survivor from the
        cluster's session record alone.  R larger than the live shard
        count degrades gracefully to every shard.
    failover_attempts:
        Request-path retry budget: how many times one ``attend`` may be
        re-dispatched after a retryable shard failure before the error
        propagates.  Bounds the time a request can chase a collapsing
        cluster.
    failover_backoff_seconds:
        Base of the linear backoff between request-path retries
        (attempt ``k`` sleeps ``k * failover_backoff_seconds``), giving
        the control plane time to finish a failover the request lost a
        race with.
    heartbeat_interval_seconds / heartbeat_misses:
        Defaults for :meth:`ShardedAttentionServer.monitor`: probe
        cadence and the consecutive-miss count that declares a shard
        dead.
    """

    num_shards: int = 2
    shard: ServerConfig = field(default_factory=ServerConfig)
    spawn: bool = False
    virtual_nodes: int = 64
    rpc_timeout_seconds: float = 60.0
    replication: int = 1
    failover_attempts: int = 3
    failover_backoff_seconds: float = 0.05
    heartbeat_interval_seconds: float = 0.25
    heartbeat_misses: int = 3

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ConfigError(
                f"num_shards must be >= 1, got {self.num_shards}"
            )
        if self.replication < 1:
            raise ConfigError(
                f"replication must be >= 1, got {self.replication}"
            )
        if self.failover_attempts < 1:
            raise ConfigError(
                f"failover_attempts must be >= 1, got {self.failover_attempts}"
            )
        if self.failover_backoff_seconds < 0:
            raise ConfigError(
                "failover_backoff_seconds must be >= 0, got "
                f"{self.failover_backoff_seconds}"
            )


# ----------------------------------------------------------------------
# thread-backed shard
# ----------------------------------------------------------------------

#: Ops that only read telemetry; they bypass a thread shard's fault
#: injector, so a "crashed" shard can still be reaped and its counters
#: read, just as a dead child's banked final telemetry can.
_TELEMETRY_OPS = (SnapshotOp, MetricsOp, SessionStatsOp, TelemetryOp, SpansOp)


class ThreadShard(AttentionService):
    """A shard replica: an :class:`AttentionService` over an in-process
    :class:`AttentionServer` (``.server``).

    Thread shards consult an optional :class:`FaultInjector` on every
    serving and control op and every heartbeat, so tests can crash,
    partition, or slow a shard deterministically — the thread-mode
    analogue of a spawned child dying.  Telemetry reads and ``stop``
    bypass the injector.
    """

    #: Thread shards share the parent's address space — passing array
    #: references is already zero-copy, so segment adoption would only
    #: add lifecycle bookkeeping; the fan-out registers plain arrays.
    supports_adopt = False

    def __init__(
        self,
        shard_id: str,
        config: ServerConfig,
        injector: FaultInjector | None = None,
    ):
        self.server = AttentionServer(config)
        super().__init__(self.server)
        self.shard_id = shard_id
        self.injector = injector

    def _check(self) -> None:
        if self.injector is not None:
            self.injector.check(self.shard_id)

    def start(self) -> None:
        if not self.server.running:
            self.server.start()

    def stop(self, timeout: float | None = 10.0, drain: bool = False) -> None:
        self.server.stop(timeout, drain=drain)

    def ping(self, timeout: float | None = None) -> bool:
        """Liveness probe: injector verdict plus the server's own state."""
        if self.injector is not None and not self.injector.heartbeat_ok(
            self.shard_id
        ):
            return False
        return self.server.running

    def submit_attend(
        self, op: AttendOp, trace_ctx: TraceContext | None = None
    ) -> Future:
        self._check()
        return super().submit_attend(op, trace_ctx)

    def call(self, op, trace_ctx: TraceContext | None = None):
        # Attends meet the injector once, in submit_attend.
        if not isinstance(op, (AttendOp, *_TELEMETRY_OPS)):
            self._check()
        return super().call(op, trace_ctx)


# ----------------------------------------------------------------------
# process-backed shard
# ----------------------------------------------------------------------


def _shard_main(sock: socket.socket, config: ServerConfig) -> None:
    """Entry point of a spawned shard: one ``AttentionServer`` answering
    the parent on its end of a socket pair through one
    :class:`~repro.serve.frontend.Connection`, the loop a network caller
    meets behind a :class:`~repro.serve.frontend.NetworkFrontend`.  A
    parent hang-up (or goodbye) ends the connection and stops the
    server.
    """
    server = AttentionServer(config).start()
    with ThreadPoolExecutor(thread_name_prefix="repro-shard-op") as ops:
        try:
            Connection(sock, server.service(), ops).serve()
        finally:
            server.stop()


class ProcessShard:
    """A shard replica in a ``multiprocessing`` spawn child.

    The parent side is an :class:`~repro.serve.client.AttentionClient`
    on one end of a ``socket.socketpair()`` whose other end the child
    inherits — no port, no path, no listening socket — the same client a
    network caller uses, answered by :func:`_shard_main` with the same
    :class:`~repro.serve.frontend.Connection` loop.  ``start``,
    ``stop``, ``kill`` and ``ping`` manage the child; ``call`` and
    ``submit_attend`` carry the ops (the child is spawned on first
    use).
    """

    #: Spawn children adopt shared-memory artifact segments by name:
    #: the fan-out ships a handle + fingerprint instead of the key,
    #: value and prepared arrays.
    supports_adopt = True

    def __init__(
        self,
        shard_id: str,
        config: ServerConfig,
        rpc_timeout: float = 60.0,
    ):
        self.shard_id = shard_id
        self.config = config
        self.rpc_timeout = rpc_timeout
        self._lock = threading.Lock()
        self._process = None
        self._client: AttentionClient | None = None
        self._stopped = False
        self._final: TelemetryResult | None = None  # banked at stop

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        with self._lock:
            if self._process is not None:
                return
            ours, theirs = socket.socketpair()
            process = multiprocessing.get_context("spawn").Process(
                target=_shard_main,
                args=(theirs, self.config),
                name=f"repro-shard-{self.shard_id}",
                daemon=True,
            )
            try:
                process.start()
            finally:
                theirs.close()
            self._process = process
            self._client = AttentionClient(ours, timeout=self.rpc_timeout)

    def stop(self, timeout: float | None = 10.0, drain: bool = False) -> None:
        """Bank the child's final telemetry, hang up, reap the child.

        The parent is the child's only client, so ``drain=True`` waits
        (up to ``timeout``) for the client's in-flight requests to
        resolve — the child's server still runs and serves them — and
        the final telemetry, read after that, counts them.  Hanging up
        makes the child stop its server and exit; requests still
        unanswered fail with :class:`ServerClosedError`.
        """
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            process, client = self._process, self._client
        if process is None:
            return
        if drain:
            client.drain(timeout)
        # Bounded by the caller's stop timeout (plus slack for the
        # reply), never the full rpc_timeout: a wedged child must not
        # stall shutdown for a minute when the caller asked for a
        # 10-second stop.
        patience = (
            self.rpc_timeout
            if timeout is None
            else min(self.rpc_timeout, timeout + 5.0)
        )
        try:
            self._final = client.call(TelemetryOp(), timeout=patience)
        except (ServeError, TimeoutError):
            pass  # dead or wedged: its telemetry died with it
        client.close()
        process.join(timeout)
        if process.is_alive():  # unresponsive child: don't leak it
            process.terminate()
            process.join(5.0)

    def kill(self) -> None:
        """SIGKILL the child immediately — no drain, no goodbye.

        The chaos path: the client sees the connection break and fails
        every request in flight with the retryable
        :class:`~repro.serve.protocol.ConnectionLostError`, same as a
        shard that crashed on its own.
        """
        if self._process is not None:
            self._process.kill()

    def ping(self, timeout: float | None = None) -> bool:
        """Liveness probe: process alive *and* answering a ping frame.

        Process liveness alone isn't health — a wedged child is alive
        but useless — so the probe round-trips a :class:`PingOp`,
        bounded by ``timeout``.  Never raises: any failure is ``False``.
        """
        process, client = self._process, self._client
        if self._stopped or process is None or not process.is_alive():
            return False
        try:
            return client.ping(timeout)
        except Exception:  # noqa: BLE001 — probes report, never raise
            return False

    # -- the shard protocol --------------------------------------------
    def _live_client(self) -> AttentionClient:
        if self._stopped:
            raise ServerClosedError(f"shard {self.shard_id!r} is stopped")
        if self._client is None:
            self.start()
        return self._client

    def submit_attend(
        self, op: AttendOp, trace_ctx: TraceContext | None = None
    ) -> Future:
        return self._live_client().submit_attend(op, trace_ctx)

    def call(self, op):
        """One op, blocking for its typed result.  A stopped or dead
        shard still answers telemetry reads from what it banked at
        stop (spans handed out once, like a live drain), else empty."""
        try:
            return self._live_client().call(op)
        except (ServerClosedError, ShardUnavailableError):
            if not isinstance(op, (SnapshotOp, TelemetryOp, SpansOp)):
                raise
        with self._lock:
            final = self._final or TelemetryResult(
                default_tier=self.config.default_tier
            )
            if isinstance(op, SnapshotOp):
                return SnapshotResult(snapshot=final.snapshot())
            self._final = replace(final, spans=[])
        if isinstance(op, SpansOp):
            return SpansResult(spans=final.spans)
        return final


# ----------------------------------------------------------------------
# the cluster facade
# ----------------------------------------------------------------------


class ClusterCacheView:
    """Read-only stand-in for ``AttentionServer.cache``.

    :class:`~repro.serve.server.ServedBackend` and
    ``KvWorkload.evaluate_served`` only touch three members of the
    cache — ``get``, ``session_stats``, and ``session_ids`` — so this
    view is all a cluster needs to slot in wherever a single server
    did.  ``get`` serves the cluster's own registration record;
    ``session_stats`` is fetched from the owning shard.
    """

    def __init__(self, cluster: "ShardedAttentionServer"):
        self._cluster = cluster

    def get(self, session_id: str) -> Session:
        return self._cluster._get_session(session_id)

    def session_stats(self, session_id: str) -> BackendStats:
        return self._cluster.session_stats(session_id)

    @property
    def session_ids(self) -> list[str]:
        return self._cluster.session_ids


class ShardedAttentionServer:
    """N shard replicas behind consistent-hash session routing.

    The request surface mirrors :class:`AttentionServer` —
    ``register_session`` / ``close_session`` / ``attend`` /
    ``attend_many`` / ``snapshot`` plus a ``cache`` view — so existing
    callers (``ServedBackend``, ``KvWorkload.evaluate_served``, a
    ``NetworkFrontend``) work against a cluster unchanged.  On top of that
    it adds live topology changes (:meth:`add_shard`,
    :meth:`remove_shard`) with minimal-movement rebalancing.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> cluster = ShardedAttentionServer(ClusterConfig(num_shards=2))
    >>> _ = cluster.register_session(
    ...     "tenant-a", rng.normal(size=(32, 8)), rng.normal(size=(32, 8))
    ... )
    >>> with cluster:
    ...     out = cluster.attend("tenant-a", rng.normal(size=8))
    >>> out.shape
    (8,)
    """

    def __init__(
        self,
        config: ClusterConfig | None = None,
        fault_injector: FaultInjector | None = None,
    ):
        self.config = config or ClusterConfig()
        self.fault_injector = fault_injector or FaultInjector()
        self._lock = threading.RLock()
        self._shards: dict[str, ThreadShard | ProcessShard] = {}
        self._next_shard_index = 0
        self.router = ConsistentHashRouter(
            virtual_nodes=self.config.virtual_nodes
        )
        self._sessions: dict[str, Session] = {}
        #: session id -> its replica shard ids, primary first (always
        #: the session's live ring preference list).
        self._replicas: dict[str, list[str]] = {}
        #: Shared-memory segments for zero-copy seeding of spawn shards
        #: (idle for thread clusters — nothing leases unless a shard
        #: advertises adoption support).
        self._segments = SegmentStore()
        self._down_shards: dict[str, str] = {}  # shard id -> reason
        self._failovers = 0
        self._replica_retries = 0
        self._replayed_sessions = 0
        #: (shard id, final telemetry) of every shard that left the
        #: topology; their spans already joined ``self.tracer``.
        self._retired_shards: list[tuple[str, TelemetryResult]] = []
        self._moved_selection = BackendStats(keep_traces=False)
        self._default_tier = self.config.shard.default_tier
        self._started = False
        self._stopped = False
        # The cluster-side tracer shares the shard ServerConfig's knobs:
        # one sample decision is taken here per attend, and a sampled
        # request's context rides the attend op so the owning shard's
        # span tree parents under the cluster's rpc span.  Shards'
        # drained spans are absorbed into its buffer.
        self.tracer = Tracer(
            sample_rate=self.config.shard.trace_sample_rate,
            max_spans=self.config.shard.trace_max_spans,
        )
        self.cache = ClusterCacheView(self)
        self._service = None
        self._service_lock = threading.Lock()
        for _ in range(self.config.num_shards):
            shard_id, handle = self._new_shard()
            self._shards[shard_id] = handle
            self.router.add_shard(shard_id)

    def _new_shard(self) -> tuple[str, ThreadShard | ProcessShard]:
        shard_id = f"shard-{self._next_shard_index}"
        self._next_shard_index += 1
        if self.config.spawn:
            handle = ProcessShard(
                shard_id,
                self.config.shard,
                rpc_timeout=self.config.rpc_timeout_seconds,
            )
        else:
            handle = ThreadShard(
                shard_id,
                self.config.shard,
                injector=self.fault_injector,
            )
        return shard_id, handle

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardedAttentionServer":
        with self._lock:
            if self._started:
                raise RuntimeError("cluster already started")
            self._started = True
            for handle in self._shards.values():
                handle.start()
            # A spawn child boots for about a second: return once every
            # shard answers, so no heartbeat probes a booting child.
            for handle in self._shards.values():
                handle.ping(self.config.rpc_timeout_seconds)
        return self

    def stop(self, timeout: float | None = 10.0, drain: bool = False) -> None:
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            handles = list(self._shards.values())
        for handle in handles:
            handle.stop(timeout, drain=drain)
        # After every child is stopped (or reaped), destroy all segment
        # names: this is what guarantees zero /dev/shm residue — even
        # for segments a SIGKILL'd shard was mapping (the kernel freed
        # its mappings; the parent owns the names).
        with self._lock:
            self._segments.close_all()

    def __enter__(self) -> "ShardedAttentionServer":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._started and not self._stopped

    @property
    def shard_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._shards)

    @property
    def num_shards(self) -> int:
        with self._lock:
            return len(self._shards)

    # ------------------------------------------------------------------
    # session registry and routing
    # ------------------------------------------------------------------
    def register_session(
        self, session_id: str, key: np.ndarray, value: np.ndarray
    ) -> Session:
        """Register (or replace) a session on its R preference shards.

        The write fans out to every replica of the session's ring
        preference list, each seeded from the returned
        :class:`~repro.serve.sessions.Session` record — the parent copy
        that rebalancing and failover later seed new replicas from.  A
        replica dying mid-fan-out is failed over inline and the fan-out
        restarts against the shrunk ring, skipping the shards it
        already seeded, until it lands on every target or no live shard
        is left (:class:`ShardUnavailableError`, and nothing is
        registered).  While the fan-out runs, the session's old record
        is out of the registry, so that inline failover never re-seeds
        the memory being replaced; it is restored only if registration
        fails.
        """
        key, value = validate_memory(key, value)
        session = Session(session_id, key, value)
        with self._lock:
            if self._stopped:
                raise ServerClosedError("cluster is stopped")
            old = self._sessions.pop(session_id, None)
            old_replicas = self._replicas.pop(session_id, None)
            seeded: set[str] = set()
            try:
                while True:
                    if not self._shards:
                        raise ShardUnavailableError(
                            "cluster has no live shards"
                        )
                    targets = self.router.preference_list(
                        session_id, self.config.replication
                    )
                    failed = None
                    for shard_id in targets:
                        if shard_id in seeded:
                            continue
                        try:
                            self._seed_session(self._shards[shard_id], session)
                        except ShardUnavailableError:
                            failed = shard_id
                            break
                        seeded.add(shard_id)
                    if failed is None:
                        break
                    self.report_shard_failure(
                        failed, reason="registration fan-out failed"
                    )
            except BaseException:
                if old is not None:
                    self._sessions[session_id] = old
                    self._replicas[session_id] = [
                        s for s in old_replicas if s in self._shards
                    ]
                raise
            self._sessions[session_id] = session
            self._replicas[session_id] = targets
        return session

    def _seed_session(self, handle, session: Session) -> None:
        """Place one replica: ship the session's current memory to a
        shard.  Registration, rebalancing and failover all seed through
        here, from the parent-side record.

        Shards that support it adopt a shared-memory segment (one
        parent-side sort per memory version, a name in an
        :class:`AdoptSessionOp`); thread shards get the arrays and keep
        their own defensive copy (the cache's contract).  A segment
        that cannot be packed (e.g. ``/dev/shm`` exhausted) falls back
        to shipping the arrays rather than failing the seed."""
        session_id = session.session_id
        key, value = session.memory
        op = RegisterSessionOp(session_id, key, value)
        if handle.supports_adopt:
            try:
                artifact = self._segments.lease(session_id, key, value)
                op = AdoptSessionOp(session_id, artifact.name, session.fingerprint)
            except OSError:
                pass
        handle.call(op)

    def close_session(self, session_id: str) -> None:
        with self._lock:
            self._sessions.pop(session_id, None)
            targets = self._replicas.pop(session_id, ())
            handles = [
                self._shards[shard_id]
                for shard_id in targets
                if shard_id in self._shards
            ]
            self._segments.drop(session_id)
        for handle in handles:
            try:
                handle.call(CloseSessionOp(session_id))
            except ShardUnavailableError:
                pass  # a dying replica holds nothing worth closing

    def mutate_session(self, session_id: str, mutation) -> Session:
        """Apply one session mutation cluster-wide, consistently.

        Runs under the cluster lock, like rebalancing and failover — so
        a mutation and a topology change serialize.  The mutation is
        validated parent-side, fanned out to every replica, and applied
        to the parent-side session record as one step; a rebalance or
        failover that later seeds a new replica ships the parent copy,
        which therefore already contains every applied mutation — the
        new shard serves the mutated memory from its first request
        (item 4 of the :mod:`repro.serve.mutator` ordering contract).

        The order is fan-out, then the parent record, then reporting
        replicas that died mid-fan-out: the failover that rebuilds
        their redundancy seeds from a record that already carries this
        mutation, while the survivors received it directly —
        exactly-once everywhere, because failover only seeds shards
        that were not in the session's replica set.
        """
        with self._lock:
            if self._stopped:
                raise ServerClosedError("cluster is stopped")
            session = self._sessions.get(session_id)
            if session is None:
                raise UnknownSessionError(
                    f"session {session_id!r} is not registered"
                )
            # Validate parent-side first: a bad mutation must fail
            # before anything is shipped to any shard.  The record grows
            # through the same append path as a server's sessions.
            new_key, new_value = mutation.next_memory(session)
            dead: list[str] = []
            for shard_id in list(self._replicas[session_id]):
                try:
                    self._shards[shard_id].call(
                        MutateSessionOp(session_id, mutation)
                    )
                except ShardUnavailableError:
                    dead.append(shard_id)
            session.replace_memory(new_key, new_value)
            # The replicas' own mappings survive the unlink; a later
            # seed leases a segment of the new memory.
            self._segments.drop(session_id)
            for shard_id in dead:
                self.report_shard_failure(
                    shard_id, reason="mutation fan-out failed"
                )
        return session

    def mutator(self, session_id: str) -> SessionMutator:
        """A :class:`~repro.serve.mutator.SessionMutator` bound to one
        session; mutations follow the session across rebalances."""
        self._get_session(session_id)  # fail fast on unknown sessions
        return SessionMutator(self, session_id)

    def _get_session(self, session_id: str) -> Session:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSessionError(
                f"session {session_id!r} is not registered"
            )
        return session

    @property
    def session_ids(self) -> list[str]:
        with self._lock:
            return list(self._sessions)

    def session_shard(self, session_id: str) -> str:
        """The session's *primary* shard (its preference-list head)."""
        return self.session_replicas(session_id)[0]

    def session_replicas(self, session_id: str) -> list[str]:
        """The session's replica shard ids, primary first."""
        with self._lock:
            replicas = self._replicas.get(session_id)
        if replicas is None:
            raise UnknownSessionError(
                f"session {session_id!r} is not registered"
            )
        if not replicas:
            raise ShardUnavailableError(
                f"session {session_id!r} has no live replicas"
            )
        return list(replicas)

    def _route_handle(
        self, session_id: str
    ) -> tuple[str, ThreadShard | ProcessShard]:
        with self._lock:
            primary = self.session_shard(session_id)
            return primary, self._shards[primary]

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def _dispatch(self, session_id: str, send, reason: str, trace_root=None):
        """Run ``send(handle, trace_ctx)`` — one read — against the
        session's primary, failing over on retryable errors.

        The retry ladder (bounded by ``failover_attempts``, linear
        backoff between attempts):

        * :class:`ShardUnavailableError` — the primary died before
          answering.  Report the failure under ``reason`` (promoting
          the next surviving replica) and re-dispatch there; the backends are
          deterministic, so the retried read returns the bit-identical
          row.  Counted in ``replica_retries``.
        * :class:`UnknownSessionError` / ``ServerClosedError`` — the
          session moved between routing and dispatch (an explicit
          rebalance or a failover won the race): retry on its new home.
        * Any other error is **fatal** — the shard actually processed
          the request and refused it; every replica would refuse
          identically, so it propagates immediately.

        ``trace_root`` (a sampled cluster-side root span) makes each
        attempt an ``rpc`` child span whose context ``send`` ships with
        the op, so the shard-side span tree links under it.
        """
        last_error: Exception | None = None
        for attempt in range(self.config.failover_attempts):
            if attempt:
                time.sleep(self.config.failover_backoff_seconds * attempt)
            shard_id, handle = self._route_handle(session_id)
            rpc = None
            if trace_root is not None:
                rpc = self.tracer.start_span(
                    "rpc",
                    trace_id=trace_root.trace_id,
                    parent_id=trace_root.span_id,
                    attrs={"shard": shard_id, "attempt": attempt},
                )
            try:
                result = send(handle, rpc.context() if rpc else None)
            except ShardUnavailableError as exc:
                last_error = exc
                if rpc is not None:
                    rpc.attrs["error"] = type(exc).__name__
                    self.tracer.record(rpc)
                self.report_shard_failure(shard_id, reason=reason)
                with self._lock:
                    self._replica_retries += 1
            except (UnknownSessionError, ServerClosedError) as exc:
                last_error = exc
                if rpc is not None:
                    rpc.attrs["error"] = type(exc).__name__
                    self.tracer.record(rpc)
            else:
                if rpc is not None:
                    self.tracer.record(rpc)
                return result
        assert last_error is not None
        raise last_error

    def attend(
        self,
        session_id: str,
        query: np.ndarray,
        timeout: float | None = 30.0,
        tier: str | None = None,
    ) -> np.ndarray:
        """Route one query to its session's primary and block for the
        row: a batch of one through :meth:`attend_many`."""
        return self.attend_many(
            session_id, np.asarray(query)[np.newaxis], timeout, tier
        )[0]

    def attend_many(
        self,
        session_id: str,
        queries: np.ndarray,
        timeout: float | None = 30.0,
        tier: str | None = None,
        trace_ctx: TraceContext | None = None,
    ) -> np.ndarray:
        """Route a caller-side batch to the session's primary and
        gather, failing over to a surviving replica if the primary dies
        (see :meth:`_dispatch`).

        ``tier`` rides the op unchanged: the owning shard resolves
        ``None`` against its own live default (kept cluster-consistent
        by :meth:`set_default_tier`) and pins explicit tiers exactly as
        a single server would.  A sampled request opens a
        ``cluster_request`` root span; ``trace_ctx`` (a remote caller's
        span, e.g. from a network frontend) parents it and forces the
        sample, as on a single server.
        """
        queries = np.asarray(queries)
        if self.config.spawn:
            # Fail bad queries parent-side instead of shipping them to
            # the child; thread shards validate inside submit() already.
            session = self._get_session(session_id)
            rows = [session.validate_query(q) for q in queries]
            queries = np.stack(rows) if rows else np.empty((0, session.d))
        op = AttendOp(session_id, queries, tier=tier, timeout=timeout)
        root = None
        if self.tracer.enabled and (
            trace_ctx is not None or self.tracer.sample()
        ):
            root = self.tracer.start_span(
                "cluster_request",
                trace_id=trace_ctx.trace_id if trace_ctx else None,
                parent_id=trace_ctx.span_id if trace_ctx else None,
                attrs={"session": session_id},
            )
        try:
            result = self._dispatch(
                session_id,
                lambda handle, ctx: handle.submit_attend(op, ctx)
                .result(timeout)
                .outputs,
                "request dispatch failed",
                trace_root=root,
            )
        except BaseException as exc:
            if root is not None:
                root.attrs["error"] = type(exc).__name__
                self.tracer.record(root)
            raise
        if root is not None:
            self.tracer.record(root)
        return result

    def service(self):
        """This cluster's :class:`~repro.serve.service.AttentionService`
        — the same transport-agnostic typed-op dispatch surface a single
        server exposes, so a network frontend (or any op-speaking
        caller) targets either interchangeably (cached)."""
        from repro.serve.service import AttentionService

        with self._service_lock:
            if self._service is None:
                self._service = AttentionService(self)
            return self._service

    # ------------------------------------------------------------------
    # quality tiers
    # ------------------------------------------------------------------
    @property
    def default_tier(self) -> str:
        """The live default tier applied cluster-wide."""
        with self._lock:
            return self._default_tier

    def set_default_tier(self, tier: str) -> str:
        """Move every shard's live default tier, atomically with respect
        to topology changes (runs under the cluster lock, like
        rebalancing, so a shard added concurrently can never miss the
        change — :meth:`add_shard` applies the current default to new
        replicas).  Returns the previous cluster-wide default.

        The recorded cluster default is updated *before* the per-shard
        fan-out and every shard is attempted even if one fails, so a
        dead replica cannot leave the cluster silently split-tier: the
        survivors and the recorded default stay consistent (and future
        :meth:`add_shard` joins inherit the intended tier), while the
        first shard failure is re-raised to the caller.
        """
        tier_rank(tier)  # raises ConfigError on unknown tiers
        with self._lock:
            if self._stopped:
                raise ServerClosedError("cluster is stopped")
            previous = self._default_tier
            if tier != previous:
                self._default_tier = tier
                failure = None
                dead: list[str] = []
                for shard_id, handle in list(self._shards.items()):
                    try:
                        handle.call(SetTierOp(tier))
                    except ShardUnavailableError:
                        # The replica is gone, not split-tier: fail it
                        # over (below) instead of failing the caller.
                        dead.append(shard_id)
                    except ShardError as exc:
                        failure = failure or exc
                for shard_id in dead:
                    self.report_shard_failure(
                        shard_id, reason="tier fan-out failed"
                    )
                if failure is not None:
                    raise failure
        return previous

    # ------------------------------------------------------------------
    # failure detection and failover
    # ------------------------------------------------------------------
    def ping_shard(self, shard_id: str, timeout: float | None = None) -> bool:
        """One liveness probe of one shard (the heartbeat primitive).

        Spawned shards answer with process liveness *plus* a ping frame
        round trip bounded by ``timeout``; thread shards consult the fault
        injector and their server state.  Unknown (already failed-over)
        shards are simply dead.  Never raises.
        """
        with self._lock:
            handle = self._shards.get(shard_id)
        if handle is None:
            return False
        try:
            return bool(handle.ping(timeout=timeout))
        except Exception:  # noqa: BLE001 — probes report, never raise
            return False

    def kill_shard(self, shard_id: str) -> None:
        """Crash a shard, the chaos hook: ``SIGKILL`` for spawned
        shards, an injected kill for thread shards.

        Deliberately does *not* run failover — that is the job of the
        :class:`~repro.serve.health.HeartbeatMonitor` or the request
        path's retry, which is exactly what a chaos test wants to
        exercise.
        """
        with self._lock:
            handle = self._shards.get(shard_id)
        if handle is None:
            raise ConfigError(f"unknown shard {shard_id!r}")
        if isinstance(handle, ProcessShard):
            handle.kill()
        else:
            self.fault_injector.kill(shard_id)

    def monitor(self) -> HeartbeatMonitor:
        """A :class:`~repro.serve.health.HeartbeatMonitor` for this
        cluster, configured from :class:`ClusterConfig` (not started)."""
        return HeartbeatMonitor(
            self,
            interval_seconds=self.config.heartbeat_interval_seconds,
            misses=self.config.heartbeat_misses,
        )

    def report_shard_failure(
        self, shard_id: str, reason: str = "reported down"
    ) -> bool:
        """Declare a shard dead and fail its sessions over.  Idempotent.

        Every detection path converges here — the heartbeat monitor,
        the request path's :class:`ShardUnavailableError`, fan-out
        failures, and operators.  Under the cluster lock (atomic with
        respect to requests' routing reads and other control-plane
        work):

        1. the shard leaves the ring and the live shard map; its
           remaining telemetry is banked best-effort and the handle is
           reaped;
        2. every session it replicated promotes its next surviving
           replica to primary (survivors keep preference order — ring
           removal preserves the relative order of the remaining
           shards);
        3. lost redundancy is rebuilt by seeding each affected session
           onto the next live shards of its preference list from the
           parent-side session record (:meth:`_seed_session`, as
           registration and rebalancing do), until the session is back
           to ``min(R, live_shards)`` replicas.  The record already
           holds every applied mutation, and preparing that final key
           afresh gives the same bits the survivors' splices did, so
           the rebuilt replica serves bit-identical answers.

        A replica that dies *during* step 3 is failed over recursively
        once this pass finishes.  Returns ``True`` if this call
        performed the failover, ``False`` if the shard was already gone
        (a lost race, not an error).
        """
        cascade: list[str] = []
        with self._lock:
            handle = self._shards.pop(shard_id, None)
            if handle is None:
                return False
            self.router.remove_shard(shard_id)
            self._down_shards[shard_id] = reason
            self._failovers += 1
            self._retire(shard_id, handle, timeout=1.0, drain=False)
            r = self.config.replication
            for session_id, session in self._sessions.items():
                current = [
                    s
                    for s in self._replicas[session_id]
                    if s in self._shards
                ]
                # Write the filtered list back even when no rebuild is
                # needed: the dead shard must never linger as a routable
                # replica.
                self._replicas[session_id] = current
                if not self._shards:
                    continue
                preference = self.router.preference_list(session_id, r)
                if current == preference:
                    continue
                # Ring removal keeps the survivors' relative order, so
                # the filtered `current` is already a prefix-subsequence
                # of `preference`; missing members are seeded from the
                # session record.
                rebuilt = [s for s in preference if s in current]
                for target in preference:
                    if target in rebuilt:
                        continue
                    try:
                        self._seed_session(self._shards[target], session)
                    except ShardUnavailableError:
                        if target not in cascade:
                            cascade.append(target)
                        continue
                    self._replayed_sessions += 1
                    rebuilt.append(target)
                self._replicas[session_id] = rebuilt
            for dead in cascade:
                self.report_shard_failure(
                    dead, reason="died during failover re-seeding"
                )
        return True

    def _retire(self, shard_id: str, handle, timeout, drain: bool) -> None:
        """Stop a shard leaving the topology and bank its final
        telemetry, so cluster-wide totals never shrink because the
        topology changed.

        A thread shard "killed" by the injector still has its counters
        in memory, so nothing is lost; a crashed child process takes
        its local telemetry with it (the one thing a shard death does
        lose) and contributes an empty record.
        """
        try:
            handle.stop(timeout, drain=drain)
        except Exception:  # noqa: BLE001 — reaping is best-effort
            pass
        try:
            telemetry = self._telemetry(handle)
        except Exception:  # noqa: BLE001 — telemetry died with the shard
            return
        with self._lock:
            self._retired_shards.append((shard_id, telemetry))

    @property
    def down_shards(self) -> dict[str, str]:
        """Shards declared dead, with the reason each was failed over."""
        with self._lock:
            return dict(self._down_shards)

    # ------------------------------------------------------------------
    # topology changes
    # ------------------------------------------------------------------
    def add_shard(self) -> tuple[str, list[str]]:
        """Join a new replica; move exactly the sessions it now owns.

        Returns ``(shard_id, moved_session_ids)``.  Consistent hashing
        guarantees every moved session's new route *is* the new shard —
        the property test pins that down.

        Rebalancing is a stop-the-world control-plane operation: the
        cluster lock is held while the moved sessions' key/value
        matrices are re-registered (for spawned shards, adopted from a
        shared-memory segment), so concurrent attends stall for the
        duration.  In exchange, no request can ever observe a half-moved
        topology.
        """
        with self._lock:
            if self._stopped:
                raise ServerClosedError("cluster is stopped")
            shard_id, handle = self._new_shard()
            self._shards[shard_id] = handle
            if self._started:
                handle.start()
                handle.ping(self.config.rpc_timeout_seconds)
            if self._default_tier != self.config.shard.default_tier:
                # The cluster's live default was moved (e.g. by an SLO
                # controller); a replica joining mid-degradation must
                # not serve best-effort traffic at the stale ceiling.
                handle.call(SetTierOp(self._default_tier))
            self.router.add_shard(shard_id)
            moved = self._rebalance()
        return shard_id, moved

    def remove_shard(
        self, shard_id: str, timeout: float | None = 10.0
    ) -> list[str]:
        """Retire a replica; move exactly the sessions it hosted.

        The handle is drained (in-flight requests finish) after its
        sessions have been re-registered elsewhere.  Returns the moved
        session ids.  Like :meth:`add_shard`, the re-registration runs
        under the cluster lock (stop-the-world; see there).
        """
        with self._lock:
            if shard_id not in self._shards:
                raise ConfigError(f"unknown shard {shard_id!r}")
            if len(self._shards) == 1:
                raise ConfigError("cannot remove the last shard")
            self.router.remove_shard(shard_id)
            handle = self._shards.pop(shard_id)
            moved = self._rebalance()
        # Drained first, so the banked telemetry counts its last batches.
        self._retire(shard_id, handle, timeout, drain=True)
        return moved

    def _rebalance(self) -> list[str]:
        """Re-register every session whose replica set changed; returns
        them.

        New replicas are seeded from the session's parent-side record
        (:meth:`_seed_session`, as registration and failover do).
        Registration on the new shards happens *before* the replica
        flip and the close on the old shards, so a concurrent
        ``attend`` either still finds the session on its old home or
        already finds it on the new one — the request-path retry
        covers the gap.
        """
        moved = []
        r = self.config.replication
        for session_id, session in self._sessions.items():
            target = self.router.preference_list(session_id, r)
            current = self._replicas[session_id]
            if target == current:
                continue
            for shard_id in target:
                if shard_id not in current:
                    self._seed_session(self._shards[shard_id], session)
            self._replicas[session_id] = target
            for shard_id in current:
                if shard_id in target:
                    continue
                old = self._shards.get(shard_id)
                if old is not None:  # absent when rebalancing a removal
                    # Closing the session on its old shard drops its
                    # selection history there; bank it first so the
                    # cluster-wide aggregate survives the move.
                    self._moved_selection.merge(
                        old.call(SessionStatsOp(session_id))
                    )
                    old.call(CloseSessionOp(session_id))
            moved.append(session_id)
        return moved

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def session_stats(self, session_id: str) -> BackendStats:
        """One session's selection counters, from its primary shard.

        Fails over like an attend (see :meth:`_dispatch`): a dead
        primary is reported and the next surviving replica answers.
        The dead shard's own counters are banked into the *cluster*
        aggregate, not the per-session stats — a crash can shrink a
        session's reported selection history, never its served answers.
        """
        return self._dispatch(
            session_id,
            lambda handle, _: handle.call(SessionStatsOp(session_id)),
            "session-stats dispatch failed",
        )

    def _telemetry(self, handle) -> TelemetryResult:
        """One shard's :class:`TelemetryResult`.  Its drained spans join
        the cluster tracer's buffer, so :meth:`trace_spans` returns them
        whichever read fetched them."""
        telemetry = handle.call(TelemetryOp())
        self.tracer.absorb(telemetry.spans)
        return telemetry

    def snapshot(self) -> dict:
        """Cluster-wide aggregate plus the per-shard snapshots.

        Each shard's snapshot renders its record.  The aggregate renders
        the cluster's books — every live and retired shard's record
        merged (``ServerStats.merge``, ``CacheStats.merge``,
        ``BackendStats.merge``), plus the selection history banked from
        sessions moved off a shard — with the same code, so it has every
        key a server snapshot has, computed the same way: percentiles
        over the pooled samples (percentiles don't average),
        ``mean_batch_size`` as requests per batch, failures included.
        Retired shards' books keep the aggregate from shrinking on a
        topology change.  On top come the cluster's own keys;
        ``load_imbalance`` is the max/mean ratio of completed requests
        per live shard — 1.0 means the router spread the load
        perfectly, ``num_shards`` means one shard took everything.
        """
        with self._lock:
            handles = dict(self._shards)
            retired = [telemetry for _, telemetry in self._retired_shards]
            selection = BackendStats(keep_traces=False)
            selection.merge(self._moved_selection)
            default_tier = self._default_tier
            # Primaries only: replicas are redundancy, not load (reads
            # go to the primary), so the per-shard session count — and
            # the "sums to len(sessions)" invariant — stays primary-based.
            sessions_per_shard = {shard_id: 0 for shard_id in handles}
            for replicas in self._replicas.values():
                if replicas and replicas[0] in sessions_per_shard:
                    sessions_per_shard[replicas[0]] += 1
            down_shards = dict(self._down_shards)
            failover = {
                "failovers": self._failovers,
                "down_shards": sorted(down_shards),
                "replica_retries": self._replica_retries,
                "replayed_sessions": self._replayed_sessions,
            }
        live = {
            shard_id: self._telemetry(handle)
            for shard_id, handle in sorted(handles.items())
        }
        shards = {shard_id: t.snapshot() for shard_id, t in live.items()}
        completed = {
            shard_id: snap["completed"] for shard_id, snap in shards.items()
        }
        mean_completed = (
            sum(completed.values()) / len(completed) if completed else 0.0
        )
        stats, cache = ServerStats(), CacheStats()
        for record in [*live.values(), *retired]:
            stats.merge(record.stats)
            cache.merge(record.cache)
            selection.merge(record.selection)
        cluster = TelemetryResult(
            stats=stats,
            cache=cache,
            selection=selection,
            default_tier=default_tier,
        ).snapshot()
        cluster.update(
            num_shards=len(shards),
            retired_shards=len(retired),
            sessions=len(self._sessions),
            sessions_per_shard=sessions_per_shard,
            completed_per_shard=completed,
            load_imbalance=(
                max(completed.values()) / mean_completed
                if mean_completed
                else 1.0
            ),
            replication=self.config.replication,
            liveness={
                **{shard_id: True for shard_id in shards},
                **{shard_id: False for shard_id in sorted(down_shards)},
            },
            failover=failover,
        )
        return {"cluster": cluster, "shards": shards}

    def trace_spans(self) -> list[dict]:
        """Drain the cluster's finished spans: its own
        ``cluster_request``/``rpc`` spans plus every shard's, each
        shard's drained with a :class:`SpansOp` (telemetry reads drain
        them too, and retired shards' spans joined the buffer when they
        were banked).  Each span is returned at most once."""
        with self._lock:
            handles = dict(self._shards)
        for _, handle in sorted(handles.items()):
            try:
                self.tracer.absorb(handle.call(SpansOp()).spans)
            except Exception:  # noqa: BLE001 — telemetry is best-effort
                pass
        return self.tracer.drain()

    def metrics_registry(self) -> MetricsRegistry:
        """One :class:`~repro.serve.observability.MetricsRegistry`:
        every live and retired shard's record rendered under its
        ``shard`` label (a shard's samples are exactly its own
        exposition's), plus the cluster's own failover/liveness
        families."""
        registry = MetricsRegistry()
        with self._lock:
            handles = dict(self._shards)
            retired = list(self._retired_shards)
            down = dict(self._down_shards)
            failover = {
                "failovers": self._failovers,
                "replica_retries": self._replica_retries,
                "replayed_sessions": self._replayed_sessions,
            }
            sessions = len(self._sessions)
        live = []
        for shard_id, handle in sorted(handles.items()):
            try:
                live.append((shard_id, self._telemetry(handle)))
            except Exception:  # noqa: BLE001 — telemetry is best-effort
                continue
        for shard_id, telemetry in live + retired:
            telemetry.publish_metrics(registry, labels={"shard": shard_id})
        registry.gauge(
            "repro_cluster_shards", "Live shard replicas."
        ).set(len(handles))
        registry.gauge(
            "repro_cluster_sessions", "Registered sessions."
        ).set(sessions)
        up = registry.gauge(
            "repro_cluster_shard_up",
            "Shard liveness (1 live, 0 declared down).",
            labelnames=("shard",),
        )
        for shard_id in sorted(handles):
            up.labels(shard=shard_id).set(1)
        for shard_id in sorted(down):
            up.labels(shard=shard_id).set(0)
        events = registry.counter(
            "repro_cluster_failover_events_total",
            "Failover machinery counters by event.",
            labelnames=("event",),
        )
        for event, value in sorted(failover.items()):
            events.labels(event=event).inc(value)
        return registry

    def metrics_text(self) -> str:
        """Prometheus text exposition of the merged cluster metrics."""
        return self.metrics_registry().expose()

