"""Per-session mutation logs: the cluster's replay-based recovery record.

A replicated cluster survives a shard death by rebuilding the dead
shard's sessions on a healthy replica.  Re-shipping the *current*
memory would work for the parent's own copy, but the durable recovery
contract the serving layer promises is stronger: every session can be
reconstructed from its **registration snapshot plus the ordered
mutation sequence** — exactly the information a write-ahead log would
hold, and exactly what the mutation ordering contract of
:mod:`repro.serve.mutator` makes well-defined (mutations of one session
are serialized; replaying them in recorded order over the registration
memory is bit-identical to the live session, because the incremental
splice itself is bit-identical to a fresh build — the PR 4 property).

:class:`MutationLog` records three events:

* ``record_register`` — a session's base ``(key, value)`` at
  registration (held by reference: mutations never modify arrays in
  place, they build new ones, so the base arrays are immutable once
  logged and cost no copy);
* ``record_mutation`` — one applied
  :class:`~repro.serve.mutator.SessionMutation`, appended in the order
  the cluster applied it;
* ``forget`` — the session closed; drop its record.

Recovery then calls :meth:`replay_onto`, which registers the base
memory on a target shard and replays every mutation as a
:class:`~repro.serve.service.MutateSessionOp` — driving the same
incremental-splice path live traffic uses, so the rebuilt prepared
artifacts are bit-identical to the dead replica's.  :meth:`replay_memory` folds the log parent-side
(used by tests to pin log/parent agreement without a shard).

Long-lived streaming sessions would otherwise accumulate unbounded
logs; ``auto_compact_above`` folds a session's log back into a single
registration snapshot once its mutation count passes the threshold.
Compaction is semantically free — replaying a compacted log is one
registration of the folded memory, which the splice bit-identity
property guarantees prepares identically — and turns O(mutations)
replay into O(1).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.serve.mutator import SessionMutation
from repro.serve.request import UnknownSessionError
from repro.serve.service import (
    AdoptSessionOp,
    MutateSessionOp,
    RegisterSessionOp,
)

__all__ = ["MutationLog", "SessionLogRecord"]


@dataclass
class SessionLogRecord:
    """One session's recovery record: base memory + ordered mutations."""

    base_key: np.ndarray
    base_value: np.ndarray
    mutations: list[SessionMutation] = field(default_factory=list)
    #: Mutations folded away by compaction (telemetry: total mutations
    #: ever recorded for the session is ``compacted + len(mutations)``).
    compacted: int = 0


class MutationLog:
    """Registration snapshots + ordered mutations, per session.

    Thread-safe on its own lock; the cluster additionally serializes
    writers through its own lock (mutations and topology changes are
    already mutually exclusive there), so the log's lock only has to
    protect against concurrent readers during a replay.

    Parameters
    ----------
    auto_compact_above:
        When a session's recorded mutation count exceeds this bound,
        the log is folded into a single registration snapshot of the
        current memory (see the module docstring).  ``None`` disables
        compaction.
    """

    def __init__(self, auto_compact_above: int | None = 256):
        self._lock = threading.Lock()
        self._records: dict[str, SessionLogRecord] = {}
        self.auto_compact_above = auto_compact_above

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_register(
        self, session_id: str, key: np.ndarray, value: np.ndarray
    ) -> None:
        """Start (or restart — re-registration resets) a session's log."""
        with self._lock:
            self._records[session_id] = SessionLogRecord(key, value)

    def record_mutation(
        self, session_id: str, mutation: SessionMutation
    ) -> None:
        """Append one applied mutation to the session's log."""
        with self._lock:
            record = self._require(session_id)
            record.mutations.append(mutation)
            bound = self.auto_compact_above
        if bound is not None and len(record.mutations) > bound:
            self.compact(session_id)

    def forget(self, session_id: str) -> None:
        with self._lock:
            self._records.pop(session_id, None)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def session_ids(self) -> list[str]:
        with self._lock:
            return list(self._records)

    def mutation_count(self, session_id: str) -> int:
        """Mutations currently pending replay (post-compaction)."""
        with self._lock:
            return len(self._require(session_id).mutations)

    def mutations(self, session_id: str) -> tuple[SessionMutation, ...]:
        with self._lock:
            return tuple(self._require(session_id).mutations)

    def _require(self, session_id: str) -> SessionLogRecord:
        record = self._records.get(session_id)
        if record is None:
            raise UnknownSessionError(
                f"session {session_id!r} has no mutation log"
            )
        return record

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def replay_memory(
        self, session_id: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fold the log into the session's current ``(key, value)``.

        Pure (no shard involved): applies each recorded mutation over
        the base snapshot in order.  Must always equal the parent-side
        session memory — the invariant the failover tests pin.
        """
        with self._lock:
            record = self._require(session_id)
            key, value = record.base_key, record.base_value
            mutations = tuple(record.mutations)
        for mutation in mutations:
            key, value = mutation.apply(key, value)
        return key, value

    def replay_onto(self, session_id: str, shard, exporter=None) -> int:
        """Rebuild the session on ``shard`` by replaying its log.

        ``shard`` is anything answering ``call(op)`` with the
        :mod:`repro.serve.service` ops.  Registers the base memory, then
        replays every mutation as a :class:`MutateSessionOp` — the same
        incremental-splice path live mutations take, so the rebuilt
        prepared state is bit-identical to the lost replica's.  Returns
        the number of mutations replayed.  Raises whatever the shard
        raises (the caller decides whether the target itself just
        died).

        ``exporter`` enables zero-copy seeding of the base snapshot:
        called as ``exporter(session_id, base_key, base_value)`` it
        returns a ``(segment_name, fingerprint)`` pair for the shard to
        adopt (an :class:`AdoptSessionOp`) instead of receiving the
        base arrays (shards not advertising ``supports_adopt``, and an
        exporter returning ``None``, fall back to plain registration).
        The mutations still replay one by one, so the rebuilt state is
        bit-identical either way.
        """
        with self._lock:
            record = self._require(session_id)
            base_key, base_value = record.base_key, record.base_value
            mutations = tuple(record.mutations)
        seed = RegisterSessionOp(session_id, base_key, base_value)
        if exporter is not None and getattr(shard, "supports_adopt", False):
            lease = exporter(session_id, base_key, base_value)
            if lease is not None:
                seed = AdoptSessionOp(session_id, *lease)
        shard.call(seed)
        for mutation in mutations:
            shard.call(MutateSessionOp(session_id, mutation))
        return len(mutations)

    def compact(self, session_id: str) -> None:
        """Fold a session's log into one registration snapshot.

        Replay after compaction is a single registration of the folded
        memory; bit-identity to the mutation-by-mutation replay is the
        incremental-splice property (splice == fresh build of the final
        key).
        """
        key, value = self.replay_memory(session_id)
        with self._lock:
            record = self._require(session_id)
            folded = len(record.mutations)
            record.base_key, record.base_value = key, value
            record.mutations.clear()
            record.compacted += folded
