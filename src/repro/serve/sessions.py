"""Per-tenant sessions and the LRU cache of prepared key artifacts.

The paper's economics rest on amortizing one comprehension-time key
preprocessing (the Figure 7 column sort) across many query responses.
A *session* is the serving-layer unit of that amortization: a tenant
registers a ``(key, value)`` memory once, and every subsequent request
against the session reuses the prepared artifacts.

:class:`KeyCacheManager` owns those artifacts.  Each session checkout
yields a :class:`PreparedSession` holding a dedicated
:class:`~repro.core.backends.ApproximateBackend` whose ``prepare()`` has
already run for the session's key.  The prepared state holds the
session's own read-only key view, not a copy, and every dispatch hands
the backend that same view, so the backend's key guard passes in
``O(1)``; content fingerprints are taken only where memory crosses a
boundary (spill, promote, artifact adoption).  Prepared artifacts are byte-accounted by the backend's
``prepared_nbytes`` and evicted least-recently-used when
the configured capacity is exceeded — sessions themselves survive
eviction (the registration keeps the raw key/value); only the prepared
state is rebuilt on the next checkout, which the hit/miss counters make
visible as a cache miss.  One prepared artifact serves every quality
tier: the column sort does not depend on the operating point, so the
:class:`~repro.serve.scheduler.Scheduler` passes each tier's config per
call and the cache itself knows nothing of tiers.

The cache is **two-tier** when given a disk budget: instead of throwing
a cold entry's prepared artifact away, eviction *spills* it — the
backend exports an :class:`~repro.core.artifacts.ArtifactBuffer` to an
mmap-backed file in the spill directory — and the next checkout of that
session *promotes by mmap*: the artifact is mapped back and adopted as
read-only views, skipping the ``O(n d log n)`` column re-sort entirely
(the pages fault in lazily off the critical path).  The disk tier has
its own byte capacity with oldest-spill reaping, per-tier byte
accounting, and spill/promote counters in :class:`CacheStats`; a
``None`` disk capacity (the default) keeps the classic single-tier
evict-and-re-prepare behavior.  Stale spills are harmless: each spill
records the session's key fingerprint, and promotion of a mismatched
artifact falls back to a fresh prepare.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from repro.core.artifacts import ArtifactBuffer
from repro.core.backends import (
    ApproximateBackend,
    BackendStats,
    KeyFingerprint,
)
from repro.core.incremental import require_finite
from repro.errors import ShapeError
from repro.serve.observability import now
from repro.serve.request import UnknownSessionError

__all__ = [
    "Session",
    "PreparedSession",
    "SpilledArtifact",
    "CacheStats",
    "KeyCacheManager",
    "validate_memory",
]

BackendFactory = Callable[[], ApproximateBackend]


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def validate_memory(
    key: np.ndarray, value: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Validate and copy one registration's ``(key, value)`` pair.

    Shared by :meth:`KeyCacheManager.register` and the sharded cluster's
    front door, so a bad registration fails identically whether the
    session lands in-process or on a spawned shard.  Key entries must
    be finite (:func:`~repro.core.incremental.require_finite`); values
    are not checked.  Returns float64 *copies* — later caller-side
    mutation must never corrupt in-flight batches.
    """
    key = np.array(key, dtype=np.float64)
    value = np.array(value, dtype=np.float64)
    if key.ndim != 2 or key.shape[0] == 0 or key.shape[1] == 0:
        raise ShapeError(f"key must be non-empty 2-D, got {key.shape}")
    if value.ndim != 2 or value.shape[0] != key.shape[0]:
        raise ShapeError(
            f"value shape {value.shape} does not match key rows "
            f"n={key.shape[0]}"
        )
    require_finite(key, "key")
    return key, value


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array`` (``array`` itself if it is one)."""
    if array.flags.writeable:
        array = array.view()
        array.flags.writeable = False
    return array


class Session:
    """One registered tenant memory: a ``(key, value)`` pair plus metadata.

    Attributes
    ----------
    session_id:
        Caller-chosen unique id (the batcher's grouping key).
    key / value:
        ``(n, d)`` key and ``(n, d_v)`` value matrices, copied at
        registration so later caller-side mutation cannot corrupt
        in-flight batches.  Both are read-only views.
    fingerprint:
        Content fingerprint of ``key``, computed on first use and
        cached per memory version.  Only boundaries read it — spill
        and promote, artifact adoption, a cluster's replica seeding —
        never the append or dispatch path.
    stats:
        The session's one selection record (no traces): every backend
        built for the session counts into it, so it survives eviction.

    **Grow-only memory.**  An append (:meth:`grown`) writes its rows
    into storage past the end of every published view and returns the
    longer views; :meth:`replace_memory` then publishes them with one
    tuple swap, so a reader holding the old views sees them unchanged.
    The storage has spare rows, doubled whenever an append does not
    fit, so appends cost ``O(k d)`` amortized.  Registration allocates
    no spare rows; delete and replace publish fresh arrays.  Callers
    serialize mutations of one session (``mutation_lock``, or the
    cluster lock for a cluster's parent-side record).
    """

    def __init__(
        self,
        session_id: str,
        key: np.ndarray,
        value: np.ndarray,
        fingerprint: KeyFingerprint | None = None,
    ) -> None:
        self.session_id = session_id
        self.created_at = time.monotonic()
        self.stats = BackendStats(keep_traces=False)
        # Serializes mutations of this session; dispatches synchronize
        # through the prepared entry's lock instead.
        self.mutation_lock = threading.Lock()
        # The owned (key, value) buffers whose row prefixes the memory
        # views, once an append has laid them out.
        self._storage: tuple[np.ndarray, np.ndarray] | None = None
        self._memory = (_read_only(key), _read_only(value))
        # (key view, its fingerprint): valid while that view is live.
        self._fingerprint = (
            None if fingerprint is None else (self._memory[0], fingerprint)
        )

    @property
    def memory(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(key, value)`` pair as one atomic snapshot.

        Dispatchers must read through this single tuple (one reference
        read) rather than ``.key`` / ``.value`` separately, so a
        concurrent :meth:`replace_memory` can never produce a torn
        old-key/new-value pair.
        """
        return self._memory

    @property
    def key(self) -> np.ndarray:
        return self._memory[0]

    @property
    def value(self) -> np.ndarray:
        return self._memory[1]

    @property
    def fingerprint(self) -> KeyFingerprint:
        key = self._memory[0]
        cached = self._fingerprint
        if cached is None or cached[0] is not key:
            cached = (key, KeyFingerprint.of(key))
            self._fingerprint = cached
        return cached[1]

    def grown(
        self, key_rows: np.ndarray, value_rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Write ``k`` appended row pairs past the live memory and return
        the grown ``(key, value)`` views, not yet published.

        The rows land in spare storage rows when the live views are
        prefixes of this session's storage with room for them;
        otherwise both matrices are re-laid into new storage of
        ``2 (n + k)`` rows.  Rows written by an append that is never
        published are overwritten by the next one.
        """
        key, value = self._memory
        n, k = key.shape[0], key_rows.shape[0]
        storage = self._storage
        if (
            storage is None
            or key.base is not storage[0]
            or value.base is not storage[1]
            or n + k > storage[0].shape[0]
        ):
            storage = tuple(
                np.empty((2 * (n + k), live.shape[1]), dtype=np.float64)
                for live in (key, value)
            )
            storage[0][:n] = key
            storage[1][:n] = value
            self._storage = storage
        key_buffer, value_buffer = storage
        key_buffer[n : n + k] = key_rows
        value_buffer[n : n + k] = value_rows
        return (
            _read_only(key_buffer[: n + k]),
            _read_only(value_buffer[: n + k]),
        )

    def replace_memory(self, key: np.ndarray, value: np.ndarray) -> None:
        """Publish mutated memory atomically (mutation path)."""
        key, value = _read_only(key), _read_only(value)
        if self._storage is not None and key.base is not self._storage[0]:
            self._storage = None  # fresh arrays: let the old buffers go
        self._memory = (key, value)
        self._fingerprint = None

    @property
    def n(self) -> int:
        return int(self._memory[0].shape[0])

    @property
    def d(self) -> int:
        return int(self._memory[0].shape[1])

    def validate_query(self, query: np.ndarray) -> np.ndarray:
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (self.d,):
            raise ShapeError(
                f"query shape {query.shape} does not match session "
                f"{self.session_id!r} d={self.d}"
            )
        return query


@dataclass(eq=False)  # identity semantics (held in identity-keyed lists)
class PreparedSession:
    """A session checkout: the session plus its prepared backend.

    ``lock`` serializes dispatches against this backend (the prepared
    state is mutable, so two workers must not drive one concurrently,
    whatever tier each dispatches at); distinct sessions dispatch in
    parallel.  The backend counts into ``session.stats`` under that
    record's own lock: an entry evicted while pinned and its successor
    may dispatch at once, under two entry locks.

    ``pins`` counts dispatchers holding a checkout that has not been
    released yet, and ``retired`` marks an entry dropped from the cache
    that is not finalized yet.  Together they let eviction finalize an
    entry — spill it, close its artifact — exactly once, *after* any
    in-flight batch has finished, without ever blocking the cache on a
    running dispatch.

    ``spill_requested`` marks an entry evicted with the disk tier
    enabled: the spill runs at finalization — immediately for an idle
    entry, or at the *last release* of one evicted while pinned — so a
    parked entry is spilled exactly once, after its final in-flight
    dispatch.  ``artifact`` pins the backing buffer of an entry whose
    backend adopted (rather than built) its prepared state — a promoted
    spill file or a shared-memory segment — and is closed at the first
    mutation (the splice leaves the backend's planes private) or when
    the entry finalizes.
    """

    session: Session
    backend: ApproximateBackend
    nbytes: int
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    pins: int = 0
    retired: bool = False
    spill_requested: bool = False
    artifact: ArtifactBuffer | None = field(default=None, repr=False)


@dataclass(frozen=True)
class SpilledArtifact:
    """One disk-tier entry: a spilled artifact file plus the key
    fingerprint it was exported under (the promotion guard — a session
    mutated after spilling no longer matches and re-prepares instead)."""

    path: str
    nbytes: int
    fingerprint: KeyFingerprint


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of the prepared-artifact cache.

    ``spills`` / ``promotes`` / ``spill_reaps`` cover the disk tier:
    entries written out on eviction, misses served by mmap-adopting a
    spilled artifact instead of re-sorting, and spill files reaped for
    disk capacity.  All three stay 0 with the disk tier disabled.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    prepare_seconds: float = 0.0
    spills: int = 0
    promotes: int = 0
    spill_reaps: int = 0

    @property
    def lookups(self) -> int:
        """Total checkouts that went through the cache (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup, ``0.0`` before any lookup.

        An idle cache has no evidence of being effective — reporting
        ``1.0`` made a server that had served nothing look perfectly
        warm on dashboards (the old behavior).  Callers that need to
        distinguish "no traffic" from "all misses" should check
        :attr:`lookups`.
        """
        total = self.lookups
        return self.hits / total if total else 0.0

    def merge(self, other: "CacheStats") -> None:
        """Add ``other``'s counters into these (the
        :meth:`BackendStats.merge` idiom); ``CacheStats().merge(live)``
        is a detached copy."""
        for counter in fields(self):
            name = counter.name
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def publish_metrics(self, registry, labels=None) -> None:
        """Publish the cache counters into a
        :class:`~repro.serve.observability.MetricsRegistry`."""
        extra = dict(labels or {})
        names = tuple(extra)
        lookups = registry.counter(
            "repro_serve_cache_lookups_total",
            "Prepared-artifact cache checkouts by outcome.",
            labelnames=("outcome", *names),
        )
        lookups.labels(outcome="hit", **extra).inc(self.hits)
        lookups.labels(outcome="miss", **extra).inc(self.misses)
        registry.counter(
            "repro_serve_cache_evictions_total",
            "Prepared entries evicted for capacity.",
            labelnames=names,
        ).labels(**extra).inc(self.evictions)
        registry.counter(
            "repro_serve_cache_prepare_seconds_total",
            "Time spent preparing keys on cache misses.",
            labelnames=names,
        ).labels(**extra).inc(self.prepare_seconds)
        registry.gauge(
            "repro_serve_cache_hit_rate",
            "Hits per cache lookup (0.0 before any lookup).",
            labelnames=names,
        ).labels(**extra).set(self.hit_rate)
        registry.counter(
            "repro_serve_cache_spills_total",
            "Prepared entries spilled to the disk tier on eviction.",
            labelnames=names,
        ).labels(**extra).inc(self.spills)
        registry.counter(
            "repro_serve_cache_promotes_total",
            "Misses served by mmap-promoting a spilled artifact.",
            labelnames=names,
        ).labels(**extra).inc(self.promotes)
        registry.counter(
            "repro_serve_cache_spill_reaps_total",
            "Spilled artifacts reaped for disk-tier capacity.",
            labelnames=names,
        ).labels(**extra).inc(self.spill_reaps)


class KeyCacheManager:
    """Session registry plus LRU cache of prepared backends.

    Every prepared backend holds its session's own read-only key view
    (a cold checkout prepares ``session.key``; a mutation hands the
    backend the very array it publishes), so the backend's key guard
    passes by identity on every dispatch.  Content fingerprints are
    taken only where memory crosses a boundary: a spill records one,
    a promote compares it, and an adopted artifact is checked against
    the fingerprint that came with it.

    Parameters
    ----------
    backend_factory:
        Zero-argument callable producing a fresh
        :class:`~repro.core.backends.ApproximateBackend` for a session;
        each cached entry owns one so per-session prepared state never
        interleaves, counting into the session's record.  An
        :class:`~repro.serve.server.AttentionServer` passes its one
        served backend (the vectorized engine at the server's operating
        point); a subclass can observe or slow the cache's calls.
    capacity_bytes:
        Upper bound on the summed ``prepared_nbytes`` of cached entries.
        ``None`` disables eviction.  A single entry larger than the
        capacity is still admitted (evicting everything else) so a big
        session degrades to prepare-per-checkout instead of failing.
    disk_capacity_bytes:
        Byte budget of the disk spill tier.  ``None`` (default)
        disables spilling entirely — evictions drop prepared state, the
        pre-two-tier behavior.  When set, evicted entries are exported
        to mmap-backed artifact files and later misses promote them by
        mapping instead of re-sorting; the oldest spills are reaped
        when the tier exceeds this budget.
    spill_dir:
        Directory for spill files.  ``None`` lazily creates a private
        temporary directory (cleaned up when the manager is collected).
    """

    def __init__(
        self,
        backend_factory: BackendFactory,
        capacity_bytes: int | None = 256 * 1024 * 1024,
        disk_capacity_bytes: int | None = None,
        spill_dir: str | None = None,
    ):
        self._factory = backend_factory
        self.capacity_bytes = capacity_bytes
        self.disk_capacity_bytes = disk_capacity_bytes
        self.spill_dir = spill_dir
        self._spill_tmpdir: tempfile.TemporaryDirectory | None = None
        self._spill_seq = 0
        self._sessions: dict[str, Session] = {}
        self._entries: OrderedDict[str, PreparedSession] = OrderedDict()
        self._spilled: OrderedDict[str, SpilledArtifact] = OrderedDict()
        self._preparing: dict[str, threading.Event] = {}
        self._bytes_in_use = 0
        self._disk_bytes_in_use = 0
        self._lock = threading.RLock()
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # registry
    # ------------------------------------------------------------------
    def register(
        self, session_id: str, key: np.ndarray, value: np.ndarray
    ) -> Session:
        """Register (or replace) a session's key/value memory."""
        key, value = validate_memory(key, value)
        session = Session(session_id, key, value)
        with self._lock:
            self._drop_entry(session_id, count_eviction=False)
            self._sessions[session_id] = session
        return session

    def register_prepared(
        self,
        session_id: str,
        artifact: ArtifactBuffer,
        fingerprint: KeyFingerprint,
    ) -> Session:
        """Register (or replace) a session directly from a packed
        artifact — the zero-copy adoption path.

        The artifact must carry a value payload (the cluster packs key
        planes and value matrix into one segment); its key planes become
        the session memory *and* the cached prepared state as read-only
        views, so an adopting shard holds no private copy of either.
        The caller transfers ownership of the ``artifact`` handle: the
        cache closes it when the entry retires.  ``fingerprint`` is
        verified against the packed key — cross-process adoption always
        content-checks (O(n d), still ~log(n)-fold cheaper than the
        column sort it replaces).
        """
        pre = artifact.view()
        value = artifact.value_view()
        if value is None:
            raise ValueError(
                "artifact carries no value payload; pack(value=...) is "
                "required for session adoption"
            )
        session = Session(session_id, pre.key, value, fingerprint)
        backend = self._factory()
        backend.stats = session.stats
        backend.adopt_artifact(artifact, fingerprint)
        entry = PreparedSession(
            session=session,
            backend=backend,
            nbytes=backend.prepared_nbytes(pre.key),
            artifact=artifact,
        )
        with self._lock:
            self._drop_entry(session_id, count_eviction=False)
            self._sessions[session_id] = session
            self._entries[session_id] = entry
            self._bytes_in_use += entry.nbytes
            self._evict_over_capacity(keep=session_id)
        return session

    def close(self, session_id: str) -> None:
        """Forget a session and its cached preparation."""
        with self._lock:
            self._drop_entry(session_id, count_eviction=False)
            self._sessions.pop(session_id, None)

    def get(self, session_id: str) -> Session:
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

    @property
    def bytes_in_use(self) -> int:
        with self._lock:
            return self._bytes_in_use

    @property
    def disk_bytes_in_use(self) -> int:
        """Bytes of spilled artifact files currently in the disk tier."""
        with self._lock:
            return self._disk_bytes_in_use

    @property
    def cached_session_ids(self) -> list[str]:
        """LRU → MRU order of sessions with live prepared artifacts."""
        with self._lock:
            return list(self._entries)

    @property
    def spilled_session_ids(self) -> list[str]:
        """Oldest → newest order of sessions with spilled artifacts."""
        with self._lock:
            return list(self._spilled)

    # ------------------------------------------------------------------
    # prepared-artifact cache
    # ------------------------------------------------------------------
    def checkout(self, session_id: str) -> PreparedSession:
        """Return the session's prepared backend, building it on a miss
        (a new backend counts into ``session.stats``).

        The returned entry is *pinned*: every checkout must be paired
        with a :meth:`release` once the caller is done dispatching (or
        inspecting), so that eviction finalizes the entry (its spill,
        its artifact close) after the last in-flight batch — an entry
        evicted while pinned stays parked (and byte-unaccounted) until
        its last release.  Pure telemetry readers should use
        :meth:`session_stats` instead, which never pins.

        Cold checkouts are single-flight per session: concurrent
        callers wait for the one in-progress ``prepare`` instead of
        redoing the column sort.
        """
        while True:
            session = self.get(session_id)
            with self._lock:
                entry = self._entries.get(session_id)
                if entry is not None:
                    self._entries.move_to_end(session_id)
                    self.stats.hits += 1
                    entry.pins += 1
                    return entry
                inflight = self._preparing.get(session_id)
                if inflight is None:
                    inflight = threading.Event()
                    self._preparing[session_id] = inflight
                    self.stats.misses += 1
                    break
            # Another caller is preparing this session; wait for it and
            # retry (their install may be skipped if the session was
            # replaced mid-prepare, hence the loop, not a lookup).
            inflight.wait()
        try:
            # Prepare outside the lock: the column sort is the expensive
            # part, and other sessions should keep dispatching meanwhile.
            # A spilled artifact short-circuits it: mmap + adopt instead
            # of re-sorting (the pages fault in lazily).
            backend = self._factory()
            backend.stats = session.stats
            started = now()
            artifact = self._try_promote(session_id, session, backend)
            if artifact is None:
                backend.prepare(session.key)
            elapsed = now() - started
            entry = PreparedSession(
                session=session,
                backend=backend,
                nbytes=backend.prepared_nbytes(session.key),
                pins=1,
                artifact=artifact,
            )
            with self._lock:
                self.stats.prepare_seconds += elapsed
                if artifact is not None:
                    self.stats.promotes += 1
                if self._sessions.get(session_id) is not session:
                    # Closed or replaced mid-prepare: hand the orphan to
                    # the caller for this one dispatch, but never cache it.
                    entry.retired = True
                    return entry
                self._entries[session_id] = entry
                self._bytes_in_use += entry.nbytes
                self._evict_over_capacity(keep=session_id)
            return entry
        finally:
            with self._lock:
                self._preparing.pop(session_id, None)
                inflight.set()

    def release(self, entry: PreparedSession) -> None:
        """Drop a checkout pin; finalizes a retired entry when the last
        pin goes."""
        with self._lock:
            entry.pins -= 1
            self._finalize_if_idle(entry)

    def _try_promote(
        self, session_id: str, session: Session, backend: ApproximateBackend
    ) -> ArtifactBuffer | None:
        """Serve a miss from the disk tier: mmap the session's spilled
        artifact and adopt it into ``backend``, skipping the column
        re-sort.  Returns the mapped buffer (to be held by the new
        entry) or ``None`` when there is nothing promotable — no spill,
        a stale fingerprint (session mutated since spilling) or an
        unreadable file; every ``None`` path falls back to a fresh
        ``prepare``.
        """
        with self._lock:
            record = self._spilled.pop(session_id, None)
            if record is None:
                return None
            self._disk_bytes_in_use -= record.nbytes
            stale = record.fingerprint != session.fingerprint
        if stale:
            _unlink_quietly(record.path)
            return None
        try:
            artifact = ArtifactBuffer.map_file(record.path)
        except (OSError, ValueError):
            _unlink_quietly(record.path)
            return None
        try:
            # The spill was exported by this manager under this exact
            # fingerprint, so the O(n d) content re-check is skipped.
            backend.adopt_artifact(
                artifact, session.fingerprint, verify=False
            )
        except Exception:  # noqa: BLE001 — any failure falls back to prepare
            artifact.close()
            _unlink_quietly(record.path)
            return None
        # The mapping keeps the pages alive; removing the name now means
        # a crashed process can never leak promoted files.
        _unlink_quietly(record.path)
        return artifact

    # ------------------------------------------------------------------
    # in-place mutation (streaming sessions)
    # ------------------------------------------------------------------
    def mutate(self, session_id: str, mutation) -> Session:
        """Apply one :class:`~repro.serve.mutator.SessionMutation` to a
        registered session, **in place**.

        Unlike re-registration, the prepared cache entry (when live)
        survives: the mutation builds the session's next memory (an
        append writes past the live views, :meth:`Session.grown`),
        drives the backend's incremental splice hooks with that very
        key array under the entry's dispatch lock, publishes the memory
        atomically, and re-accounts the entry's ``prepared_nbytes`` as
        a delta (with capacity eviction re-checked) — the backend
        instance carries over, and the selection counts stay in the
        session's record whichever backend made them.  A session
        without a live entry just gets its memory swapped; the next
        checkout prepares the mutated key as usual.  No content
        fingerprint is taken on this path.

        Mutations of one session serialize (per-session mutation lock)
        and are atomic with respect to dispatch: a batch in flight sees
        the pre- or post-mutation memory in full, never a mix, and
        every request submitted after ``mutate`` returns sees the
        mutated memory.
        """
        while True:
            session = self.get(session_id)
            with session.mutation_lock:
                # The mutation lock guarantees the memory can't change
                # under us, so validation and the new arrays are built
                # outside every cache lock; an append's rows land past
                # every view a reader may hold.
                new_key, new_value = mutation.next_memory(session)
                replaced = False
                while True:
                    with self._lock:
                        if self._sessions.get(session_id) is not session:
                            replaced = True  # re-registered: retry outer
                            break
                        entry = self._entries.get(session_id)
                        if entry is not None:
                            entry.pins += 1
                            break
                        inflight = self._preparing.get(session_id)
                        if inflight is None:
                            # No prepared state and nobody building one:
                            # swapping under the cache lock makes the
                            # swap atomic with any later entry install.
                            session.replace_memory(new_key, new_value)
                            # Any spilled artifact is now stale.
                            self._drop_spilled(session_id)
                            return session
                    # A cold checkout is mid-prepare.  Swapping now would
                    # let it cache pre-mutation prepared state (and its
                    # byte count) as current; wait for the install and
                    # splice the entry instead.
                    inflight.wait()
                if replaced:
                    continue
                new_nbytes = None
                try:
                    # The entry lock serializes against dispatches: the
                    # splice and the memory swap are one atomic step
                    # from the scheduler's point of view.
                    with entry.lock:
                        mutation.apply_to_backend(entry.backend, new_key)
                        session.replace_memory(new_key, new_value)
                    new_nbytes = entry.backend.prepared_nbytes(new_key)
                finally:
                    with self._lock:
                        if new_nbytes is not None:
                            # Any spilled artifact is now stale, and an
                            # adopted one unread: the splice left the
                            # backend's planes private.
                            self._drop_spilled(session_id)
                            if entry.artifact is not None:
                                entry.artifact.close()
                                entry.artifact = None
                            delta = new_nbytes - entry.nbytes
                            entry.nbytes = new_nbytes
                            if not entry.retired:
                                # Re-account the grown/shrunk artifact
                                # exactly once; a retired (evicted)
                                # entry's bytes were already removed.
                                self._bytes_in_use += delta
                                self._evict_over_capacity(keep=session_id)
                        entry.pins -= 1
                        self._finalize_if_idle(entry)
            return session

    def _evict_over_capacity(self, keep: str) -> None:
        if self.capacity_bytes is None:
            return
        while self._bytes_in_use > self.capacity_bytes:
            victim = next(
                (sid for sid in self._entries if sid != keep), None
            )
            if victim is None:  # only the just-admitted entry remains
                break
            self._drop_entry(victim, count_eviction=True, spill=True)

    def _drop_entry(
        self, session_id: str, *, count_eviction: bool, spill: bool = False
    ) -> None:
        if not spill:
            # Close / re-register invalidate the disk tier too; capacity
            # eviction keeps it (that's where the spill lands).
            self._drop_spilled(session_id)
        entry = self._entries.pop(session_id, None)
        if entry is None:
            return
        self._bytes_in_use -= entry.nbytes
        if count_eviction:
            self.stats.evictions += 1
        entry.retired = True
        entry.spill_requested = spill and self.disk_capacity_bytes is not None
        # A pinned entry's dispatch is (or may be about to start)
        # running: its last release finalizes it, so the cache never
        # blocks on a running attend.
        self._finalize_if_idle(entry)

    def _finalize_if_idle(self, entry: PreparedSession) -> None:
        """Finalize a retired, unpinned entry (once): spill the prepared
        artifact if its eviction requested one, and close any adopted
        artifact."""
        if not entry.retired or entry.pins > 0:
            return
        entry.retired = False
        if entry.spill_requested:
            # Cleared before spilling: finalization runs exactly once
            # (retired flipped above), so an entry evicted while pinned
            # spills once at its last release, never twice.
            entry.spill_requested = False
            self._spill_entry(entry)
        if entry.artifact is not None:
            entry.artifact.close()
            entry.artifact = None

    # ------------------------------------------------------------------
    # disk tier (spill / reap)
    # ------------------------------------------------------------------
    def _spill_root(self) -> str:
        if self.spill_dir is not None:
            os.makedirs(self.spill_dir, exist_ok=True)
            return self.spill_dir
        if self._spill_tmpdir is None:
            self._spill_tmpdir = tempfile.TemporaryDirectory(
                prefix="repro-spill-"
            )
        return self._spill_tmpdir.name

    def _spill_path(self) -> str:
        self._spill_seq += 1
        return os.path.join(self._spill_root(), f"spill-{self._spill_seq}.art")

    def _spill_entry(self, entry: PreparedSession) -> None:
        """Export an evicted entry's prepared artifact into the disk
        tier (called under the cache lock, from finalization).

        Skipped when the session was closed or replaced while the entry
        was parked; a parked backend can also lag the session's memory
        (a newer entry or a cold-path mutation advanced it), so the
        export is verified against the session's *current* fingerprint
        and discarded on mismatch — never paired with a fingerprint it
        doesn't match.
        """
        session = entry.session
        session_id = session.session_id
        if self._sessions.get(session_id) is not session:
            return
        try:
            path = self._spill_path()
            artifact = entry.backend.export_artifact(storage="mmap", path=path)
        except (RuntimeError, ValueError, OSError):
            return  # nothing prepared, or the disk tier is unusable
        try:
            if not session.fingerprint.matches(artifact.view().key):
                artifact.release()  # owner: unlink + close
                return
        except Exception:  # noqa: BLE001 — treat as unspillable
            artifact.release()
            return
        artifact.close()  # the file *is* the spill; no need to stay mapped
        self._drop_spilled(session_id)  # replace any older spill
        record = SpilledArtifact(
            path=path,
            nbytes=artifact.nbytes,
            fingerprint=session.fingerprint,
        )
        self._spilled[session_id] = record
        self._disk_bytes_in_use += record.nbytes
        self.stats.spills += 1
        self._reap_disk_over_capacity(keep=session_id)

    def _drop_spilled(self, session_id: str) -> None:
        record = self._spilled.pop(session_id, None)
        if record is None:
            return
        self._disk_bytes_in_use -= record.nbytes
        _unlink_quietly(record.path)

    def _reap_disk_over_capacity(self, keep: str) -> None:
        if self.disk_capacity_bytes is None:
            return
        while self._disk_bytes_in_use > self.disk_capacity_bytes:
            victim = next(
                (sid for sid in self._spilled if sid != keep), None
            )
            if victim is None:  # only the just-spilled artifact remains
                break
            self._drop_spilled(victim)
            self.stats.spill_reaps += 1

    # ------------------------------------------------------------------
    # aggregate telemetry
    # ------------------------------------------------------------------
    def occupancy(self) -> dict[str, int]:
        """Registry and cache occupancy: registered sessions, resident
        prepared entries and bytes, spilled entries and disk bytes."""
        with self._lock:
            return {
                "sessions": len(self._sessions),
                "entries": len(self._entries),
                "resident_bytes": self._bytes_in_use,
                "spilled_entries": len(self._spilled),
                "disk_bytes": self._disk_bytes_in_use,
            }

    def session_stats(self, session_id: str) -> BackendStats:
        """A detached copy of one session's record, which every backend
        built for the session counts into, cached, evicted or pinned."""
        copy = BackendStats(keep_traces=False)
        copy.merge(self.get(session_id).stats)
        return copy

    def merged_backend_stats(self) -> BackendStats:
        """The registered sessions' records summed into one view."""
        merged = BackendStats(keep_traces=False)
        with self._lock:
            for session in self._sessions.values():
                merged.merge(session.stats)
        return merged
