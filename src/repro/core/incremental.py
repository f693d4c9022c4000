"""Incremental maintenance of the per-column sorted key structures.

The paper prepares a key matrix once (the Figure 7 column sort) and
amortizes it over many queries — but a live serving context *mutates*:
chat-style sessions append new memory rows, KV stores delete and
replace entries.  Re-running ``PreprocessedKey.build`` on every edit
costs ``O(n d log n)``; this module maintains the sorted structures
incrementally instead:

* :func:`splice_append_grow` inserts ``k`` new rows.  A one-row append
  into planes the caller owns, with a spare row left, shifts each
  column's tail down one slot in place: ``O(n d)`` compares and moves,
  and no new planes.  Any other append re-lays both planes in one scatter
  pass (one batched binary search per column, then a histogram of
  insertion points) into a fresh buffer of doubled capacity, so a
  growing key re-lays ``O(log n)`` times.  :func:`splice_append` is the
  same re-lay, returning fresh planes;
* :func:`splice_delete` compacts the deleted rows out of every column
  and renumbers the surviving row ids in one vectorized pass;
* :func:`splice_replace` moves a single row's entry inside each sorted
  column via two binary searches and a band shift.

Every splice takes an optional ``key``: the mutated key matrix, when
the caller has already built it.  The result's ``key`` is then that
very array, so a serving session and its prepared state hold one key.
Without it, the splice builds the mutated key itself, read-only.

**Bit-identity contract.**  Every function returns a
:class:`~repro.core.efficient_search.PreprocessedKey` whose
``sorted_values`` / ``row_ids`` / ``key`` arrays are *exactly* equal to
``PreprocessedKey.build(final_key)`` on the equivalent final key —
including tie order.  ``build`` uses a stable sort, so within a run of
equal column values the row ids ascend; each splice preserves that
invariant (appended rows carry the largest ids and are inserted after
their ties; deletion preserves relative order; replacement re-inserts
at the exact ``(value, row id)`` lexicographic position).  Ties are
only well defined for ordered values, so appended and replacement key
rows must be finite (:func:`require_finite`).  The property tests in
``tests/core/test_incremental.py`` pin this down on tie-heavy inputs,
which is what makes a mutated serving session's attention output
bit-identical to a freshly prepared backend.

**Copy-on-write contract.**  Only :func:`splice_append_grow` writes
into existing planes, and only into the :class:`PlaneBuffers` its
caller passes back from an earlier append: the one-row in-place shift
overwrites the previous result's planes, so the caller must keep every
reader out while it runs (the serving layer holds the session entry's
dispatch lock).  Everything else reads the incoming ``pre`` and writes
fresh arrays.  Planes that were prepared, adopted or promoted, or that
are full, are re-laid into a new buffer on their first append.  This
is load-bearing for the zero-copy artifact store
(:mod:`repro.core.artifacts`): a backend that adopted read-only
``np.frombuffer`` views over a shared-memory segment or an mmap'd
spill file can be mutated freely — the splice re-materializes the
prepared state as private heap arrays (a copy-on-write re-export), and
the shared buffer other adopters may still be mapping is never touched.
"""

from __future__ import annotations

from time import perf_counter
from typing import NamedTuple

import numpy as np

from repro.core import profiling
from repro.core.efficient_search import PreprocessedKey
from repro.errors import InvalidInputError, ShapeError

__all__ = [
    "PlaneBuffers",
    "require_finite",
    "splice_append",
    "splice_append_grow",
    "splice_delete",
    "splice_replace",
    "validate_append_rows",
    "validate_delete_rows",
    "validate_replace_row",
]

#: Bytes of one plane block the in-place shift moves at a time.  A
#: block's ``np.where`` result stays well under glibc's mmap threshold,
#: so the heap reuses it and an append takes no page faults.
_SHIFT_BLOCK_BYTES = 1 << 16


class PlaneBuffers(NamedTuple):
    """Grow-only storage behind a prepared key's two sorted planes.

    Both buffers have ``capacity`` rows; the prepared planes are views
    of their first ``n`` rows (C-contiguous, like freshly built
    planes), and the rows past ``n`` are spare until an append lands
    in them.
    """

    sorted_values: np.ndarray
    row_ids: np.ndarray

    @property
    def capacity(self) -> int:
        return int(self.sorted_values.shape[0])

    def back(self, pre: PreprocessedKey) -> bool:
        """Whether ``pre``'s planes are row prefixes of these buffers."""
        return (
            pre.sorted_values.base is self.sorted_values
            and pre.row_ids.base is self.row_ids
        )


def require_finite(key: np.ndarray, what: str) -> None:
    """Refuse NaN and infinite key entries.

    Sorted columns need ordered values: a NaN compares false both ways,
    so a splice would place it differently from the stable column sort
    and break bit-identity.  Registration, append and replace all
    refuse them with :class:`~repro.errors.InvalidInputError` (mapped
    to ``ERR_INVALID`` on the wire).
    """
    if not np.isfinite(key).all():
        raise InvalidInputError(f"{what} must be finite, got NaN or inf")


def validate_append_rows(rows, d: int) -> np.ndarray:
    """Validate appended key rows against a width-``d`` key; returns
    them as a float64 ``(k, d)`` matrix.  Shared by the splices and
    the serving layer's append, so both refuse the same rows."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != d:
        raise ShapeError(
            f"appended rows must be 2-D (k, d={d}), got {rows.shape}"
        )
    require_finite(rows, "appended key rows")
    return rows


def validate_delete_rows(rows, n: int) -> np.ndarray:
    """Validate delete indices against an ``n``-row key; returns them
    as int64 (numpy would otherwise wrap negatives silently)."""
    rows = np.asarray(rows, dtype=np.int64).ravel()
    if rows.size == 0:
        return rows
    if rows.min() < 0 or rows.max() >= n:
        raise ShapeError(
            f"delete rows must lie in [0, {n}), got {rows.tolist()}"
        )
    if np.unique(rows).size != rows.size:
        raise ShapeError(f"duplicate delete rows: {rows.tolist()}")
    if rows.size >= n:
        raise ShapeError("cannot delete every row; the key must stay non-empty")
    return rows


def validate_replace_row(row: int, new_row: np.ndarray, n: int, d: int):
    """Validate one replacement against an ``(n, d)`` key; returns
    ``(row, new_row)`` normalized."""
    new_row = np.asarray(new_row, dtype=np.float64).ravel()
    if new_row.shape != (d,):
        raise ShapeError(
            f"replacement row must have shape ({d},), got {new_row.shape}"
        )
    row = int(row)
    if not 0 <= row < n:
        raise ShapeError(f"replace row must lie in [0, {n}), got {row}")
    require_finite(new_row, "replacement key row")
    return row, new_row


def _mutated_key(key, shape: tuple[int, int], build) -> np.ndarray:
    """The caller's mutated key after a shape check, or ``build()``'s
    private one, made read-only."""
    if key is None:
        key = build()
        key.flags.writeable = False
    elif key.shape != shape:
        raise ShapeError(
            f"mutated key has shape {key.shape}, expected {shape}"
        )
    return key


def _bisect_columns(
    sorted_cols: np.ndarray, targets: np.ndarray, *, side: str
) -> np.ndarray:
    """Per-column ``searchsorted`` for a ``(k, d)`` target matrix.

    Column ``j`` of the result is
    ``np.searchsorted(sorted_cols[:, j], targets[:, j], side=side)``;
    the bisection advances all ``k * d`` searches together in
    ``O(log n)`` array passes instead of ``d`` Python-level calls.
    """
    n = sorted_cols.shape[0]
    lo = np.zeros(targets.shape, dtype=np.int64)
    hi = np.full(targets.shape, n, dtype=np.int64)
    cols = np.arange(targets.shape[1], dtype=np.int64)[np.newaxis, :]
    for _ in range(int(n).bit_length() + 1):
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi) >> 1
        vals = sorted_cols[np.minimum(mid, n - 1), cols]
        if side == "right":
            go_right = vals <= targets
        else:
            go_right = vals < targets
        lo = np.where(active & go_right, mid + 1, lo)
        hi = np.where(active & ~go_right, mid, hi)
    return lo


def _scatter_append(
    pre: PreprocessedKey,
    rows: np.ndarray,
    sorted_values: np.ndarray,
    row_ids: np.ndarray,
) -> None:
    """Lay ``pre``'s planes plus ``k`` new rows into the ``(n + k, d)``
    output planes in one scatter pass.

    Each column's insertion points come from one batched binary search
    against the existing sorted column (``side="right"``, so new
    entries land after their value ties — exactly where a stable
    re-sort would put the higher row ids), and the block itself is
    stably pre-sorted so equal values within it keep ascending ids.
    """
    n, d = pre.n, pre.d
    k = rows.shape[0]
    order = np.argsort(rows, axis=0, kind="stable")  # (k, d)
    block_vals = np.take_along_axis(rows, order, axis=0)
    block_ids = order.astype(np.int64) + n
    pos = _bisect_columns(pre.sorted_values, block_vals, side="right")

    # Final positions: block entry b of a column lands at pos[b] plus
    # the b block entries inserted before it; old entry i shifts down
    # by the number of block entries inserted at or before it, counted
    # with one histogram + cumulative sum per column.
    # Per-column insertion histogram, laid out column-major so the
    # running count is one cache-friendly contiguous cumsum per column.
    cols_k = np.broadcast_to(np.arange(d, dtype=np.int64), (k, d))
    ins = pos + np.arange(k, dtype=np.int64)[:, np.newaxis]
    hist = np.bincount(
        (cols_k * (n + 1) + pos).ravel(), minlength=(n + 1) * d
    ).reshape(d, n + 1)
    shift = np.cumsum(hist, axis=1)[:, :n].T

    # Scatter through flat indices: one index computation serves both
    # the value and the row-id planes.
    cols_n = np.arange(d, dtype=np.int64)[np.newaxis, :]
    old_flat = (
        (np.arange(n, dtype=np.int64)[:, np.newaxis] + shift) * d + cols_n
    ).ravel()
    ins_flat = (ins * d + cols_k).ravel()
    values_flat = sorted_values.reshape(-1)
    ids_flat = row_ids.reshape(-1)
    values_flat[old_flat] = pre.sorted_values.ravel()
    ids_flat[old_flat] = pre.row_ids.ravel()
    values_flat[ins_flat] = block_vals.ravel()
    ids_flat[ins_flat] = block_ids.ravel()


def _shift_in(
    sorted_values: np.ndarray, row_ids: np.ndarray, n: int, row: np.ndarray
) -> None:
    """Insert ``row`` as row id ``n`` into the first ``n`` sorted rows
    of the planes, in place; row ``n`` of both planes must be spare.

    In each column the entries that sort after the new value (greater,
    or a NaN a caller prepared — the order :func:`_bisect_columns`
    gives it) move down one slot, and the new entry takes the freed
    slot.  Rows before the first one holding a moving entry stay put.
    The rest moves in blocks from the bottom up, each block's result
    built before it is written one row lower, so no block overwrites
    rows a later block still reads.
    """
    d = row.shape[0]
    moved = sorted_values[:n] <= row
    np.logical_not(moved, out=moved)
    moved_per_column = np.count_nonzero(moved, axis=0)
    top = n - int(moved_per_column.max())
    step = max(1, _SHIFT_BLOCK_BYTES // (8 * d))
    for hi in range(n, top, -step):
        lo = max(hi - step, top)
        block = moved[lo:hi]
        sorted_values[lo + 1 : hi + 1] = np.where(
            block, sorted_values[lo:hi], sorted_values[lo + 1 : hi + 1]
        )
        row_ids[lo + 1 : hi + 1] = np.where(
            block, row_ids[lo:hi], row_ids[lo + 1 : hi + 1]
        )
    slots = n - moved_per_column
    cols = np.arange(d)
    sorted_values[slots, cols] = row
    row_ids[slots, cols] = n


def splice_append_grow(
    pre: PreprocessedKey,
    rows: np.ndarray,
    buffers: PlaneBuffers | None,
    *,
    key: np.ndarray | None = None,
) -> tuple[PreprocessedKey, PlaneBuffers | None]:
    """Append ``k`` key rows (row ids ``n .. n + k - 1``) to ``pre``,
    growing the plane storage; returns the new prepared key and the
    buffers behind it, for the next append.

    ``buffers`` are the ones an earlier call returned with ``pre``, or
    ``None`` when ``pre``'s planes are not the caller's to write (a
    fresh prepare, an adopted artifact, a delete or replace).  A
    one-row append into buffers that back ``pre`` and have a spare row
    shifts them in place (see the module's copy-on-write contract);
    anything else re-lays into new buffers of ``2 (n + k)`` rows.
    """
    rows = validate_append_rows(rows, pre.d)
    k = rows.shape[0]
    if k == 0:
        return pre, buffers
    prof = profiling.HOOK
    t0 = perf_counter() if prof is not None else 0.0
    n, d = pre.n, pre.d
    key = _mutated_key(
        key, (n + k, d), lambda: np.concatenate([pre.key, rows])
    )
    if (
        k == 1
        and buffers is not None
        and n < buffers.capacity
        and buffers.back(pre)
    ):
        _shift_in(buffers.sorted_values, buffers.row_ids, n, rows[0])
    else:
        capacity = 2 * (n + k)
        buffers = PlaneBuffers(
            np.empty((capacity, d), dtype=np.float64),
            np.empty((capacity, d), dtype=np.int64),
        )
        _scatter_append(
            pre, rows, buffers.sorted_values[: n + k], buffers.row_ids[: n + k]
        )
    out = PreprocessedKey(
        sorted_values=buffers.sorted_values[: n + k],
        row_ids=buffers.row_ids[: n + k],
        key=key,
    )
    if prof is not None:
        prof.record("splice.append", perf_counter() - t0)
    return out, buffers


def splice_append(
    pre: PreprocessedKey, rows: np.ndarray, *, key: np.ndarray | None = None
) -> PreprocessedKey:
    """Insert ``k`` new key rows into the sorted structures by splice,
    into fresh planes (:func:`splice_append_grow`'s re-lay)."""
    return splice_append_grow(pre, rows, None, key=key)[0]


def splice_delete(
    pre: PreprocessedKey, rows, *, key: np.ndarray | None = None
) -> PreprocessedKey:
    """Remove the given rows, renumbering the survivors densely.

    The surviving rows keep their relative order (row ``i`` becomes
    ``i - #deleted_below_i``), so each column is compacted in place —
    relative order of the kept entries never changes, which is exactly
    what a stable re-sort of the shrunken key would produce.
    """
    n, d = pre.n, pre.d
    rows = validate_delete_rows(rows, n)
    if rows.size == 0:
        return pre
    prof = profiling.HOOK
    t0 = perf_counter() if prof is not None else 0.0

    keep = np.ones(n, dtype=bool)
    keep[rows] = False
    key = _mutated_key(key, (n - rows.size, d), lambda: pre.key[keep])
    remap = np.cumsum(keep) - 1  # old row id -> new row id (kept rows)
    kept = keep[pre.row_ids]  # (n, d): which sorted entries survive
    target = np.cumsum(kept, axis=0) - 1
    cols = np.broadcast_to(np.arange(d, dtype=np.int64), (n, d))
    out_n = n - rows.size
    sorted_values = np.empty((out_n, d), dtype=np.float64)
    row_ids = np.empty((out_n, d), dtype=np.int64)
    sorted_values[target[kept], cols[kept]] = pre.sorted_values[kept]
    row_ids[target[kept], cols[kept]] = remap[pre.row_ids[kept]]
    out = PreprocessedKey(
        sorted_values=sorted_values,
        row_ids=row_ids,
        key=key,
    )
    if prof is not None:
        prof.record("splice.delete", perf_counter() - t0)
    return out


def splice_replace(
    pre: PreprocessedKey,
    row: int,
    new_row: np.ndarray,
    *,
    key: np.ndarray | None = None,
) -> PreprocessedKey:
    """Replace one key row, moving its entry inside each sorted column.

    Per column the old entry is located, the new value's stable
    position is found with two binary searches (value bounds, then row
    id among ties — columns are sorted by ``(value, row id)``), and the
    band between the two positions shifts by one slot.
    """
    n, d = pre.n, pre.d
    row, new_row = validate_replace_row(row, new_row, n, d)
    prof = profiling.HOOK
    t0 = perf_counter() if prof is not None else 0.0

    def replaced() -> np.ndarray:
        out = pre.key.copy()
        out[row] = new_row
        return out

    key = _mutated_key(key, (n, d), replaced)

    # Where the old entry sits in each column.
    removed = np.argmax(pre.row_ids == row, axis=0)

    # Where the new value belongs among the *remaining* entries: count
    # the entries lexicographically before (value, row) and discount
    # the removed entry when it qualified.
    target = new_row[np.newaxis, :]
    lo = _bisect_columns(pre.sorted_values, target, side="left")[0]
    hi = _bisect_columns(pre.sorted_values, target, side="right")[0]
    q = lo.copy()
    for j in np.flatnonzero(hi > lo):  # value ties: rare for real keys
        tied_ids = pre.row_ids[lo[j] : hi[j], j]
        q[j] += int(np.searchsorted(tied_ids, row))
    q -= (pre.key[row] < new_row).astype(np.int64)

    i = np.arange(n, dtype=np.int64)[:, np.newaxis]
    q_ = q[np.newaxis, :]
    r_ = removed[np.newaxis, :]
    shift = np.where(
        (q_ <= r_) & (i > q_) & (i <= r_),
        -1,
        np.where((q_ > r_) & (i >= r_) & (i < q_), 1, 0),
    )
    src = i + shift
    cols = np.broadcast_to(np.arange(d, dtype=np.int64), (n, d))
    sorted_values = pre.sorted_values[src, cols]
    row_ids = pre.row_ids[src, cols]
    sorted_values[q, np.arange(d)] = new_row
    row_ids[q, np.arange(d)] = row
    out = PreprocessedKey(
        sorted_values=sorted_values, row_ids=row_ids, key=key
    )
    if prof is not None:
        prof.record("splice.replace", perf_counter() - t0)
    return out
