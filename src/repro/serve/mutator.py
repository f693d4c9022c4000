"""Mutable sessions: typed mutations and the ``SessionMutator`` handle.

The serving layer's sessions were immutable until now — a single
appended memory row forced a full re-registration, a cold cache entry,
and a from-scratch column sort.  Real contexts stream: chat sessions
append turns, KV stores delete and replace facts.  This module is the
request-level surface for that:

* three typed, picklable mutation records
  (:class:`AppendRowsMutation`, :class:`DeleteRowsMutation`,
  :class:`ReplaceKeyMutation`) that know how to transform a session's
  ``(key, value)`` pair and how to drive a prepared backend's
  incremental splice hooks (:mod:`repro.core.incremental`, whose
  validators they share, so a mutation is refused identically before
  and inside the backend — a non-finite key entry included);
* :class:`SessionMutator`, a tenant-facing handle bound to one session
  on an :class:`~repro.serve.server.AttentionServer` or
  :class:`~repro.serve.cluster.ShardedAttentionServer`.

**Ordering contract** (the guarantees callers may rely on):

1. *Serialized per session* — mutations of one session apply atomically
   and in the order their calls complete; two concurrent mutator calls
   never interleave their edits (a per-session mutation lock).
2. *Read-your-writes* — every request **submitted after** a mutation
   call returns observes the mutated memory.
3. *No torn reads* — a request in flight while a mutation lands
   observes either the pre- or the post-mutation memory in full, never
   a mix of old key and new value (memory swaps are atomic with respect
   to dispatch).  An append never writes into published memory: its
   rows go into the session's spare storage past the end of every
   live ``(key, value)`` view (:meth:`~repro.serve.sessions.Session.grown`),
   and the longer views are published with one tuple swap, so a
   reader still holding the old views sees exactly the old memory.
   Delete and replace publish fresh arrays.
4. *Migration-safe* — on a sharded cluster, mutations serialize with
   rebalancing: a session moved by ``add_shard``/``remove_shard``
   arrives on its new shard with every previously applied mutation
   already in place, and mutations issued during the move apply after
   it, on the new home.

Mutations across *different* sessions are independent and unordered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.backends import ApproximateBackend
from repro.core.incremental import (
    validate_append_rows,
    validate_delete_rows,
    validate_replace_row,
)
from repro.errors import ShapeError

__all__ = [
    "SessionMutation",
    "AppendRowsMutation",
    "DeleteRowsMutation",
    "ReplaceKeyMutation",
    "SessionMutator",
]


class SessionMutation:
    """One atomic edit of a session's ``(key, value)`` memory.

    Subclasses implement ``apply`` (pure: old arrays in, new arrays
    out, with validation) and ``apply_to_backend`` (drive the prepared
    backend's incremental splice hook with the mutated key).
    :meth:`next_memory` is what the serving layer publishes: ``apply``
    to the live memory, except that an append grows the session's own
    storage instead of copying it.
    Instances are immutable and wire-encodable, so process-backed
    shards receive them as typed protocol frames unchanged.
    """

    def apply(
        self, key: np.ndarray, value: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def next_memory(self, session) -> tuple[np.ndarray, np.ndarray]:
        """The session's validated memory after this mutation, read-only
        and not yet published
        (:meth:`~repro.serve.sessions.Session.replace_memory` publishes
        it).  ``apply`` returns fresh arrays or the live read-only
        views, so freezing them in place is safe."""
        memory = self.apply(*session.memory)
        for array in memory:
            array.flags.writeable = False
        return memory

    def apply_to_backend(
        self, backend: ApproximateBackend, key: np.ndarray
    ) -> None:
        raise NotImplementedError


def _as_matrix(rows: np.ndarray, what: str) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[np.newaxis, :]
    if rows.ndim != 2:
        raise ShapeError(f"{what} must be 2-D (k, d), got {rows.shape}")
    return rows


@dataclass(frozen=True)
class AppendRowsMutation(SessionMutation):
    """Append ``k`` new ``(key, value)`` row pairs at the end of the
    memory; the new rows take indices ``n .. n + k - 1``."""

    key_rows: np.ndarray
    value_rows: np.ndarray

    def _rows(self, key, value) -> tuple[np.ndarray, np.ndarray]:
        key_rows = validate_append_rows(
            _as_matrix(self.key_rows, "appended key rows"), key.shape[1]
        )
        value_rows = _as_matrix(self.value_rows, "appended value rows")
        if value_rows.shape[1] != value.shape[1]:
            raise ShapeError(
                f"appended value rows have d_v={value_rows.shape[1]}, "
                f"session has d_v={value.shape[1]}"
            )
        if key_rows.shape[0] != value_rows.shape[0]:
            raise ShapeError(
                f"appended {key_rows.shape[0]} key rows but "
                f"{value_rows.shape[0]} value rows"
            )
        if key_rows.shape[0] == 0:
            raise ShapeError("append requires at least one row")
        return key_rows, value_rows

    def apply(self, key, value):
        key_rows, value_rows = self._rows(key, value)
        return (
            np.concatenate([key, key_rows]),
            np.concatenate([value, value_rows]),
        )

    def next_memory(self, session):
        return session.grown(*self._rows(*session.memory))

    def apply_to_backend(self, backend, key):
        backend.append_rows(
            _as_matrix(self.key_rows, "appended key rows"), key=key
        )


@dataclass(frozen=True)
class DeleteRowsMutation(SessionMutation):
    """Delete the given memory rows; survivors renumber densely (row
    ``i`` becomes ``i - #deleted_below_i``), exactly as if the session
    had been registered with the shrunken memory."""

    rows: tuple[int, ...]

    def apply(self, key, value):
        rows = validate_delete_rows(self.rows, key.shape[0])
        if rows.size == 0:
            raise ShapeError("delete requires at least one row index")
        keep = np.ones(key.shape[0], dtype=bool)
        keep[rows] = False
        return key[keep], value[keep]

    def apply_to_backend(self, backend, key):
        backend.delete_rows(np.asarray(self.rows, dtype=np.int64), key=key)


@dataclass(frozen=True)
class ReplaceKeyMutation(SessionMutation):
    """Replace one row's key vector (and optionally its value row) in
    place; every other row keeps its index."""

    row: int
    key_row: np.ndarray
    value_row: np.ndarray | None = None

    def apply(self, key, value):
        row, key_row = validate_replace_row(self.row, self.key_row, *key.shape)
        new_key = key.copy()
        new_key[row] = key_row
        new_value = value
        if self.value_row is not None:
            value_row = np.asarray(self.value_row, dtype=np.float64).ravel()
            if value_row.shape != (value.shape[1],):
                raise ShapeError(
                    f"replacement value row must have shape "
                    f"({value.shape[1]},), got {value_row.shape}"
                )
            new_value = value.copy()
            new_value[row] = value_row
        return new_key, new_value

    def apply_to_backend(self, backend, key):
        backend.replace_key(
            int(self.row),
            np.asarray(self.key_row, dtype=np.float64).ravel(),
            key=key,
        )


class SessionMutator:
    """Tenant-facing handle for mutating one session's memory in place.

    Obtained from :meth:`AttentionServer.mutator` or
    :meth:`ShardedAttentionServer.mutator`; each method builds the
    typed mutation and hands it to the server's ``mutate_session``,
    which applies it under the ordering contract in the module
    docstring.  Returns the updated
    :class:`~repro.serve.sessions.Session` record, whose ``n`` reflects
    the new memory size.
    """

    def __init__(self, server, session_id: str):
        self.server = server
        self.session_id = session_id

    def append_rows(self, key_rows: np.ndarray, value_rows: np.ndarray):
        """Append ``(key, value)`` row pairs to the session memory."""
        return self.server.mutate_session(
            self.session_id, AppendRowsMutation(key_rows, value_rows)
        )

    def delete_rows(self, rows):
        """Delete memory rows; surviving rows renumber densely."""
        return self.server.mutate_session(
            self.session_id,
            DeleteRowsMutation(tuple(int(r) for r in np.asarray(rows).ravel())),
        )

    def replace_key(self, row: int, key_row: np.ndarray, value_row=None):
        """Replace one row's key vector (and optionally its value)."""
        return self.server.mutate_session(
            self.session_id, ReplaceKeyMutation(int(row), key_row, value_row)
        )
