"""Batched vectorized greedy candidate search (the ``"vectorized"`` engine).

The paper's headline deployment amortizes the key preprocessing over many
queries against one key matrix — the BERT self-attention pattern of
Section IV-C.  The reference engine replays the Figure 6 walk one query
at a time through Python-level stream pops; this module runs the same
walk for a whole ``(q, d)`` query batch using NumPy array operations:

* **stream extraction** exploits the preprocessed column-sorted key the
  same way the Figure 7 hardware does: along each sorted column the
  products ``value * query[col]`` are monotone, so the ``M`` globally
  largest (smallest) products per query live in a per-column prefix
  whose exact length a batched binary search finds against a boundary
  estimate from a strided product sample.  Gathering just those ragged
  prefixes and running one ``argpartition`` + stable ``argsort`` along
  the flattened pool axis yields each query's ``(q, m)`` max/min stream
  without ever materializing the full ``(q, n, d)`` product tensor;
* **the greedy walk** consumes the max stream unconditionally, so only
  the min-side pointer is state: a per-query running total gates each
  min pop exactly as the Section IV-C min-skip heuristic prescribes (no
  gating at all when the heuristic is disabled).  A large fuse group
  advances all its queries in lockstep, each of the ``M`` iterations a
  handful of ``(q,)``-shaped array operations; a small one walks each
  query in plain Python, where that per-iteration dispatch would cost
  more than the arithmetic.  Both walks perform the same IEEE additions
  in the same order, so they agree bit for bit;
* **greedy-score accumulation** happens in one shot afterwards: every
  consumed product is written into an interleaved per-iteration slot
  grid (max pop of iteration ``i`` before the min pop of iteration
  ``i``) and accumulated per row with a single ``bincount``, whose
  sequential scan reproduces the reference engine's addition order
  exactly.

Because the per-query sequence of running-total updates and greedy-score
additions matches :func:`repro.core.candidate_search.greedy_candidate_search`
addition-for-addition, every per-query selection outcome (greedy scores,
candidate sets, pop counts, fallback flags) is bit-identical to the
reference engine on tie-free inputs.  The property tests in
``tests/core/test_search_equivalence.py`` enforce this.

**Tie policy.**  When a query's product multiset contains duplicates,
the engines consume tied entries in different orders: the reference
walk breaks ties by row-major flat position of the product matrix,
while this engine's stream extraction breaks them by its column-prefix
pool layout.  Two regimes follow, both pinned by
``tests/core/test_tie_handling.py``:

* ties confined to a single row (duplicated key *columns* whose query
  entries also coincide) are harmless — every tied product belongs to
  the same row, so candidate sets, pop counts, and fallback flags match
  the reference exactly and greedy scores match to roundoff (the
  addition order inside a row may permute);
* ties spanning rows (duplicated key *rows*) are implementation-defined
  — the row attribution of a tied product, and therefore candidate
  sets and attended outputs, may diverge from the reference.  The
  *value* sequence of both streams is tie-independent, so the walk
  statistics still agree exactly: iterations, max/min pop counts, skip
  counts, and the total greedy mass summed over rows.

**One pipeline, one or many keys.**  :func:`attend_many_ragged` is the
only vectorized pipeline: it runs a query slab that may span *several*
prepared keys, laid out with per-segment offsets, and a single-key
batch is just a one-segment slab (``ApproximateAttention.attend_many``
and :func:`batched_candidate_search` both dispatch that way).  Segments
that share ``(n, d, M)`` form one fuse group whose boundary estimate,
stream extraction, and gated walk run as one group-batched pass over
block-stacked column sorts (a lone segment is a group of one and reads
its own sorts in place), so the search front's fixed dispatch cost is
paid once per group instead of once per segment.  The greedy-score
accumulation of all groups happens in a single ``bincount`` over
per-group offset bin spaces.  Every fused operation is per-query-row
independent and ``bincount`` accumulates in input scan order, so every
segment's additions replay in exactly the order of its own one-segment
dispatch — the fused path is bit-identical per segment, a property the
serving layer's cross-session batcher relies on (pinned by
``tests/core/test_ragged_kernel.py`` and
``tests/serve/test_ragged_fusion.py``).

**Stage accounting.**  While a :mod:`repro.core.profiling` hook is
installed, the stage timers are chained — each stage starts where the
previous one ended — so the ``search.*`` stages sum to
``attend.candidate_search`` and the four ``attend.*`` stages sum to
the whole call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from time import perf_counter

import numpy as np

from repro.core import profiling
from repro.core.efficient_search import PreprocessedKey
from repro.core.selection import CandidateResult
from repro.errors import ShapeError

__all__ = [
    "BatchedCandidateResult",
    "RaggedAttendResult",
    "attend_many_ragged",
    "batched_candidate_search",
]

#: Fuse groups of at most this many query rows take the per-row Python
#: walk (:func:`_scalar_walk`); larger ones the lockstep NumPy walk
#: (:func:`_gated_walk`).  At one row the lockstep walk is almost all
#: NumPy dispatch: at M=512 on one vCPU of a 2-vCPU x86 VM it took
#: about 3 ms against 0.1 ms.  The two cost about the same near 32 rows,
#: and at 64 rows the lockstep walk is the faster.
_SCALAR_WALK_MAX_ROWS = 16


@dataclass
class BatchedCandidateResult:
    """Per-query candidate-search outcomes for a whole query batch.

    The candidate sets are ragged (each query selects a different
    number of rows), so they are stored flat: ``flat_rows`` holds every
    query's candidate rows concatenated in ascending row order, and
    ``flat_query`` the owning query of each entry.  Query ``i`` owns
    ``flat_rows[offsets[i]:offsets[i + 1]]``; the padded ``candidates``
    matrix is derived on demand.

    Attributes
    ----------
    flat_query / flat_rows:
        Parallel 1-D int64 arrays: (query, candidate row) pairs sorted
        by query then row.
    num_candidates:
        ``(q,)`` number of candidates per query (``C``).
    greedy_scores:
        ``(q, n)`` greedy-score matrix after the walk.
    iterations / max_pops / min_pops / skipped_min:
        ``(q,)`` per-query loop statistics, identical in meaning to the
        scalar fields of :class:`~repro.core.selection.CandidateResult`.
    used_fallback:
        ``(q,)`` boolean; ``True`` where the top-1 fallback fired.
    """

    flat_query: np.ndarray
    flat_rows: np.ndarray
    num_candidates: np.ndarray
    greedy_scores: np.ndarray
    iterations: np.ndarray
    max_pops: np.ndarray
    min_pops: np.ndarray
    skipped_min: np.ndarray
    used_fallback: np.ndarray

    @property
    def batch(self) -> int:
        return int(self.greedy_scores.shape[0])

    @property
    def offsets(self) -> np.ndarray:
        """``(q + 1,)`` segment boundaries into the flat arrays."""
        cached = self.__dict__.get("_offsets")
        if cached is None:
            cached = np.concatenate(
                ([0], np.cumsum(self.num_candidates))
            ).astype(np.int64)
            self.__dict__["_offsets"] = cached
        return cached

    @property
    def candidates(self) -> np.ndarray:
        """``(q, c_max)`` candidate rows, right-padded with ``-1``."""
        cached = self.__dict__.get("_candidates")
        if cached is None:
            q = self.batch
            c_max = int(self.num_candidates.max()) if q else 0
            cached = np.full((q, c_max), -1, dtype=np.int64)
            if self.flat_rows.size:
                slots = (
                    np.arange(self.flat_rows.size)
                    - self.offsets[:-1][self.flat_query]
                )
                cached[self.flat_query, slots] = self.flat_rows
            self.__dict__["_candidates"] = cached
        return cached

    def candidate_rows(self, i: int) -> np.ndarray:
        """The ascending candidate rows of query ``i`` (a view)."""
        return self.flat_rows[self.offsets[i] : self.offsets[i + 1]]

    def result(self, i: int) -> CandidateResult:
        """Extract query ``i`` as a reference-compatible result object."""
        return CandidateResult(
            candidates=self.candidate_rows(i).copy(),
            greedy_scores=self.greedy_scores[i],
            iterations=int(self.iterations[i]),
            max_pops=int(self.max_pops[i]),
            min_pops=int(self.min_pops[i]),
            skipped_min=int(self.skipped_min[i]),
            used_fallback=bool(self.used_fallback[i]),
        )


class _StageClock:
    """Chained kernel-stage timer, built only while a
    :mod:`repro.core.profiling` hook is installed.

    Each :meth:`lap` records the time since the previous lap (or since
    construction), so consecutive stages tile the timed span with no
    gap and no overlap.
    """

    __slots__ = ("hook", "start", "last")

    def __init__(self, hook) -> None:
        self.hook = hook
        self.start = self.last = perf_counter()

    def lap(self, stage: str) -> None:
        now = perf_counter()
        self.hook.record(stage, now - self.last)
        self.last = now

    def span(self, stage: str) -> None:
        """Record everything from construction to the last lap."""
        self.hook.record(stage, self.last - self.start)


def _cat(parts: list[np.ndarray]) -> np.ndarray:
    """``np.concatenate`` that hands a lone part back uncopied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _boundary_from_prods(
    prods: np.ndarray, total: int, m_eff: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rank the per-query sample products into boundary estimates.

    ``prods`` holds each query's sampled products (one row per query,
    all rows the same sample size against a ``total``-element product
    space).  Returns ``(tight, backup)`` estimates for the stacked
    ``[queries; -queries]`` layout of the fused two-sided extraction:
    the min-side statistics of a query are the exact negations of the
    max-side statistics of its negation, so one partition serves all
    four order statistics.  The tight estimate keeps the candidate pool
    small; the clearly lower backup is used when the tight one turns
    out to overshoot the true stream boundary.  Overshoots are
    harmless: :func:`_column_streams_stacked` verifies the exact pool
    size against the estimate and relaxes it (to the backup, then to
    the minimum) when short.  The partition is per-row independent, so
    batching any set of queries through one call leaves every row's
    estimates unchanged.
    """
    size = prods.shape[1]
    expected = m_eff * size / total
    rank = min(size, int(expected + 1.2 * expected**0.5 + 2.0))
    relaxed_rank = min(size, 2 * rank + 8)
    kths = sorted({rank - 1, relaxed_rank - 1, size - relaxed_rank, size - rank})
    ordered = np.partition(prods, kths, axis=1)
    tight = np.concatenate([ordered[:, size - rank], -ordered[:, rank - 1]])
    backup = np.concatenate(
        [ordered[:, size - relaxed_rank], -ordered[:, relaxed_rank - 1]]
    )
    return tight, backup


def _depth_counts(
    sorted_key: np.ndarray,
    queries: np.ndarray,
    base: np.ndarray,
    step: np.ndarray,
    tau: np.ndarray,
    n: int,
) -> np.ndarray:
    """Exact per-column count of products no smaller than ``tau``.

    Walking a sorted column from its ``base`` end, the product
    ``value * query[col]`` is monotone non-increasing, so the count is a
    binary search on the depth — ``O(d log n)`` per query with the
    products compared directly (no division, hence exact).  ``base``
    holds absolute row indices into ``sorted_key`` (which may stack
    several segments' column sorts) while ``n`` is the depth of one
    segment's columns: ``lo``/``hi`` bisect local depths and only the
    reads ``base + step * depth`` touch absolute rows.
    """
    d = queries.shape[1]
    cols = np.arange(d)
    tau_col = tau[:, np.newaxis]
    shallow = 8
    if n <= shallow:
        lo = np.zeros(queries.shape, dtype=np.int64)
        hi = np.full(queries.shape, n, dtype=np.int64)
    else:
        # Most columns hold only a few stream entries, so probe a
        # shallow depth first and bisect only [0, shallow) for them; the
        # few deep columns are bisected separately in compact form.
        probe = sorted_key[base + step * (shallow - 1), cols] * queries
        deep = probe >= tau_col
        lo = np.zeros(queries.shape, dtype=np.int64)
        hi = np.where(deep, 0, shallow - 1)  # deep: resolved below
    for _ in range(int(n).bit_length()):
        if not (lo < hi).any():
            break
        mid = (lo + hi) >> 1
        safe = np.minimum(mid, n - 1)
        vals = sorted_key[base + step * safe, cols] * queries
        qualified = (vals >= tau_col) & (mid < hi)
        lo = np.where(qualified, mid + 1, lo)
        hi = np.where(qualified, hi, mid)
    counts = lo
    if n > shallow:
        flat_deep = np.flatnonzero(deep.ravel())
        if flat_deep.size:
            deep_base = base.ravel()[flat_deep]
            deep_step = step.ravel()[flat_deep]
            deep_q = queries.ravel()[flat_deep]
            deep_tau = tau[flat_deep // d]
            deep_col = flat_deep % d
            lo1 = np.full(flat_deep.size, shallow, dtype=np.int64)
            hi1 = np.full(flat_deep.size, n, dtype=np.int64)
            while (lo1 < hi1).any():
                mid = (lo1 + hi1) >> 1
                safe = np.minimum(mid, n - 1)
                vals = sorted_key[deep_base + deep_step * safe, deep_col]
                qualified = (vals * deep_q >= deep_tau) & (mid < hi1)
                lo1 = np.where(qualified, mid + 1, lo1)
                hi1 = np.where(qualified, hi1, mid)
            counts.ravel()[flat_deep] = lo1
    return counts


def _column_streams_stacked(
    sorted_values: np.ndarray,
    queries: np.ndarray,
    m_eff: int,
    estimates: tuple[np.ndarray, np.ndarray],
    n: int,
    row_offset: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-query descending product stream over stacked column sorts.

    The stream extraction of :func:`_grouped_segment_walk`:
    ``sorted_values`` holds one fuse group's ``(n, d)`` column sorts
    stacked to ``(G * n, d)`` (a lone segment's own sorts when
    ``G == 1``), with ``row_offset`` giving each query's segment's
    absolute starting row.  Every operation is per-query-row
    independent, so stacking segments leaves each row's arithmetic —
    and therefore its stream — bit-identical to a one-segment call.

    Returns ``(q, m_eff)`` value and *flat-position* arrays: positions
    index the raveled stacked layout (callers map them to key rows
    through their segment's ``row_ids``).

    For each query the pool of stream candidates is the ragged set of
    per-column prefixes (starting from the end that maximizes
    ``value * query[col]``, exactly the Figure 7 pointer rule) whose
    products are at least as large as a boundary estimate; the prefix
    lengths come from :func:`_depth_counts`, so the pool provably
    contains the true top ``m_eff`` whenever the estimate does not
    overshoot the true boundary, which is re-checked exactly and relaxed
    as needed.
    """
    d = queries.shape[1]
    q = queries.shape[0]

    want_high = queries > 0.0
    base = np.where(want_high, n - 1, 0).astype(np.int64)
    step = np.where(want_high, -1, 1).astype(np.int64)
    base += row_offset[:, np.newaxis]

    tight, backup = estimates
    tau = tight.copy()
    counts = _depth_counts(sorted_values, queries, base, step, tau, n)
    pool = counts.sum(axis=1)
    short = np.flatnonzero(pool < m_eff)
    if short.size:
        # The tight estimate overshot the true m-th product for these
        # (rare) queries; retry with the relaxed sample statistic, then
        # with the smallest product, which admits every entry and is
        # therefore always sufficient.
        tau[short] = backup[short]
        counts[short] = _depth_counts(
            sorted_values, queries[short], base[short], step[short],
            tau[short], n,
        )
        pool[short] = counts[short].sum(axis=1)
        short = short[pool[short] < m_eff]
        if short.size:
            tail = sorted_values[
                base[short] + step[short] * (n - 1), np.arange(d)
            ] * queries[short]
            tau[short] = tail.min(axis=1)
            counts[short] = _depth_counts(
                sorted_values, queries[short], base[short], step[short],
                tau[short], n,
            )
            pool[short] = counts[short].sum(axis=1)

    # Ragged gather of the per-column prefixes (flat indexing: one pass
    # of index arithmetic, three flat gathers).
    seg_len = counts.ravel()
    seg_total = int(seg_len.sum())
    seg_id = np.repeat(np.arange(q * d), seg_len)
    seg_starts = np.concatenate(([0], np.cumsum(seg_len)[:-1]))
    depth = np.arange(seg_total) - seg_starts[seg_id]
    ptr = base.ravel()[seg_id] + step.ravel()[seg_id] * depth
    flat = ptr * d + seg_id % d  # position in the stacked (rows, d) arrays
    vals = sorted_values.ravel()[flat] * queries.ravel()[seg_id]
    pool_starts = np.concatenate(([0], np.cumsum(pool)[:-1]))
    qq = seg_id // d
    position = np.arange(seg_total) - pool_starts[qq]

    # Pad each query's pool and take its top m_eff in stream order
    # (stable sort; tie handling matches the reference on tie-free
    # inputs by value uniqueness).  Queries are grouped by power-of-two
    # pool width so one outlier pool cannot inflate the whole batch's
    # padded width.  Only the products are scattered into the padded
    # layout; the selected entries map back through their pool position
    # to the ragged flat index.
    out_vals = np.empty((q, m_eff), dtype=np.float64)
    out_src = np.empty((q, m_eff), dtype=np.int64)
    bucket = np.maximum(pool, m_eff)
    bucket = 1 << np.int64(np.ceil(np.log2(bucket)))
    local = np.zeros(q, dtype=np.int64)
    for width in np.unique(bucket):
        width = int(width)
        members = bucket == width
        group = np.flatnonzero(members)
        local[group] = np.arange(group.size)
        seg_mask = members[qq]
        pool_vals = np.full((group.size, width), -np.inf, dtype=np.float64)
        pool_vals[local[qq[seg_mask]], position[seg_mask]] = vals[seg_mask]
        chosen = np.argpartition(pool_vals, width - m_eff, axis=1)[
            :, width - m_eff :
        ]
        chosen_vals = np.take_along_axis(pool_vals, chosen, axis=1)
        order = np.argsort(chosen_vals, axis=1, kind="stable")[:, ::-1]
        out_vals[group] = np.take_along_axis(chosen_vals, order, axis=1)
        ragged_idx = (
            pool_starts[group][:, np.newaxis]
            + np.take_along_axis(chosen, order, axis=1)
        )
        out_src[group] = flat[ragged_idx]
    return out_vals, out_src


def _gated_walk(
    max_vals: np.ndarray,
    min_vals: np.ndarray,
    m_eff: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gated min-side walk for all queries in lockstep, heuristic
    enabled.

    Returns ``(min_pos, min_iter, running)``: how many min-stream entries
    each query consumed, at which iteration each was popped, and the
    final running total.  Only the consumed ``min_iter`` entries
    (``[:min_pos]`` of each row) are defined.  Each of the ``m_eff``
    iterations is a handful of ``(q,)``-shaped operations: the
    unconditional max pop updates the running total in place, and the
    min pop happens wherever the total is non-negative (the Section
    IV-C min-skip heuristic).  During this main phase the min pointer
    can never overtake the iteration index, so the min stream cannot
    run dry and needs no exhaustion check.
    """
    q = max_vals.shape[0]
    min_iter = np.empty((q, m_eff), dtype=np.int64)
    running = np.zeros(q, dtype=np.float64)
    row_base = np.arange(q) * m_eff
    at = row_base.copy()  # flat index of each query's next min entry
    min_flat = min_vals.ravel()
    iter_flat = min_iter.ravel()
    max_cols = np.ascontiguousarray(max_vals.T)
    for i in range(m_eff):
        running += max_cols[i]
        popping = running >= 0.0
        # Speculatively read each query's next min entry; adding 0.0
        # where the pop is skipped leaves the running total bit-exact,
        # and a skipped query's min_iter slot is overwritten at its
        # real pop iteration before the pointer moves past it.
        running += np.where(popping, min_flat[at], 0.0)
        iter_flat[at] = i
        at += popping
    return at - row_base, min_iter, running


def _scalar_walk(
    max_vals: np.ndarray,
    min_vals: np.ndarray,
    m_eff: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_gated_walk` one query at a time, in plain Python.

    Same contract and result: each row's streams walk as Python floats
    (IEEE doubles) through the same additions in the same order, and a
    skipped min pop adds nothing where the lockstep walk adds ``0.0`` to
    a negative total — exact either way — so ``min_pos``, the consumed
    ``min_iter`` entries and ``running`` match it bit for bit.
    """
    q = max_vals.shape[0]
    min_pos = np.empty(q, dtype=np.int64)
    min_iter = np.empty((q, m_eff), dtype=np.int64)
    running = np.empty(q, dtype=np.float64)
    rows = zip(max_vals.tolist(), min_vals.tolist())
    for r, (maxs, mins) in enumerate(rows):
        total = 0.0
        popped = []  # iteration of each min pop, in stream order
        for i, value in enumerate(maxs):
            total += value
            if total >= 0.0:
                total += mins[len(popped)]
                popped.append(i)
        min_pos[r] = len(popped)
        min_iter[r, : len(popped)] = popped
        running[r] = total
    return min_pos, min_iter, running


def _stream_walk(
    max_vals: np.ndarray,
    min_vals: np.ndarray,
    m: int,
    m_eff: int,
    min_skip_heuristic: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run the greedy walk over already-extracted streams.

    Returns ``(min_pos, min_iter, iterations, skipped)``.  Every update
    is per-query-row independent, so any set of queries — one segment's
    or several equal-``m`` segments' concatenated — walks identically
    row by row.  The main phase runs :func:`_scalar_walk` for at most
    ``_SCALAR_WALK_MAX_ROWS`` rows and :func:`_gated_walk` above that;
    the two are bit-identical, so the choice only moves time.
    """
    q = max_vals.shape[0]
    iterations = np.full(q, m_eff, dtype=np.int64)
    if min_skip_heuristic:
        walk = _scalar_walk if q <= _SCALAR_WALK_MAX_ROWS else _gated_walk
        min_pos, min_iter, running = walk(max_vals, min_vals, m_eff)
        skipped = m_eff - min_pos
    else:
        # Without the heuristic both streams drain in lockstep: the walk
        # is fully determined and needs no gating at all.
        min_pos = np.full(q, m_eff, dtype=np.int64)
        min_iter = np.broadcast_to(
            np.arange(m_eff, dtype=np.int64), (q, m_eff)
        ).copy()
        skipped = np.zeros(q, dtype=np.int64)

    if m > m_eff and min_skip_heuristic:
        # Max stream exhausted but iterations remain (m > n*d): the
        # reference keeps counting passes while the min stream lasts.
        for i in range(m_eff, m):
            active = np.flatnonzero(min_pos < m_eff)
            if active.size == 0:
                break
            iterations[active] += 1
            gate = running[active] >= 0.0
            skipped[active[~gate]] += 1
            popping = active[gate]
            at = min_pos[popping]
            value = min_vals[popping, at]
            running[popping] += value
            min_iter[popping, at] = i
            min_pos[popping] = at + 1
    return min_pos, min_iter, iterations, skipped


@dataclass
class _Walk:
    """Search-front outcome of one fuse group, one row per group query.

    ``query`` holds each row's global slab index (ascending); the
    ``(rows, m_eff)`` stream arrays carry key rows local to the row's
    own segment; ``min_pos`` / ``min_iter`` / ``iterations`` /
    ``skipped`` are the walk state returned by :func:`_stream_walk`.
    """

    query: np.ndarray
    n: int
    m_eff: int
    max_rows: np.ndarray
    max_vals: np.ndarray
    min_rows: np.ndarray
    min_vals: np.ndarray
    min_pos: np.ndarray
    min_iter: np.ndarray
    iterations: np.ndarray
    skipped: np.ndarray


def _grouped_segment_walk(
    group_pres: list[PreprocessedKey],
    bounds: list[tuple[int, int]],
    queries: np.ndarray,
    m: int,
    *,
    min_skip_heuristic: bool,
    clock: _StageClock | None,
) -> _Walk:
    """Boundary estimate, fused two-sided stream extraction, gated walk.

    The search front, run once per fuse group: the slab segments
    (``bounds`` holds their ``(lo, hi)`` query rows) whose keys share
    ``(n, d)`` and whose ``M`` agrees; a lone segment is a group of
    one.  A many-tenant batch typically holds dozens of segments with
    only a query or two each, so running the front per segment would
    pay its fixed Python/NumPy dispatch cost dozens of times.  Instead
    the group's queries form one slab, their prepared column sorts are
    stacked block-wise (a lone segment's are read in place), and the
    boundary estimate, stream extraction, and gated walk each run once
    for the whole group.  The min stream of a query is the max stream
    of its negation (products negate exactly, so the values recover
    bit-for-bit), and one sample partition serves the boundary
    estimates of both sides.  Every operation involved is
    per-query-row independent (the partition, depth bisection, pool
    selection, and walk updates never mix rows), and each query's reads
    resolve to exactly its own segment's block of the stack — so every
    segment's walk is bit-identical to its one-segment dispatch.
    """
    n, d = group_pres[0].n, group_pres[0].d
    m_eff = min(m, n * d)
    sizes = [hi - lo for lo, hi in bounds]
    starts = list(accumulate(sizes, initial=0))
    q = starts[-1]
    query = _cat([np.arange(lo, hi) for lo, hi in bounds])
    group_queries = _cat([queries[lo:hi] for lo, hi in bounds])
    member = np.repeat(np.arange(len(bounds)), sizes)

    # Boundary estimate from a row-strided sample of each key (whole
    # rows, so every column is represented).
    total = n * d
    target = min(total, max(1024, 2 * m_eff))
    row_stride = max(1, total // target)
    samples = [pre.key[::row_stride, :] for pre in group_pres]
    sample = samples[0] if len(samples) == 1 else np.stack(samples)[member]
    prods = (group_queries[:, np.newaxis, :] * sample).reshape(q, -1)
    estimates = _boundary_from_prods(prods, total, m_eff)
    if clock is not None:
        clock.lap("search.boundary_estimate")

    stream_vals, stream_src = _column_streams_stacked(
        _cat([pre.sorted_values for pre in group_pres]),
        np.concatenate([group_queries, -group_queries]),
        m_eff,
        estimates,
        n,
        np.concatenate([member, member]) * n,
    )
    # Flat positions → key rows, through each segment's own row_ids.
    stream_rows = np.empty_like(stream_src)
    for g, pre in enumerate(group_pres):
        rows_flat = pre.row_ids.ravel()
        for half in (0, q):
            sl = slice(half + starts[g], half + starts[g + 1])
            stream_rows[sl] = rows_flat[stream_src[sl] - g * total]
    if clock is not None:
        clock.lap("search.stream_extraction")

    max_vals = stream_vals[:q]
    min_vals = -stream_vals[q:]
    min_pos, min_iter, iterations, skipped = _stream_walk(
        max_vals, min_vals, m, m_eff, min_skip_heuristic
    )
    if clock is not None:
        clock.lap("search.gated_walk")
    return _Walk(
        query=query,
        n=n,
        m_eff=m_eff,
        max_rows=stream_rows[:q],
        max_vals=max_vals,
        min_rows=stream_rows[q:],
        min_vals=min_vals,
        min_pos=min_pos,
        min_iter=min_iter,
        iterations=iterations,
        skipped=skipped,
    )


def _slot_grid(walk: _Walk) -> tuple[np.ndarray, np.ndarray]:
    """Interleaved per-iteration slot grid of every consumed product.

    The max pop of iteration ``i`` lands at slot ``2i`` and its min pop
    at slot ``2i + 1``, so a sequential scan of the grid replays the
    reference engine's addition order row-for-row; accumulating it with
    ``bincount`` (whose scan is sequential) therefore reproduces the
    reference greedy scores bit-for-bit.  Returns ``(slot_rows,
    slot_vals)`` of shape ``(q, width)``; unused slots carry row 0 with
    weight 0.0 and are harmless to accumulate.
    """
    m_eff = walk.m_eff
    q = walk.max_rows.shape[0]
    width = 2 * max(m_eff, int(walk.iterations.max()))
    slot_rows = np.zeros((q, width), dtype=np.int64)
    slot_vals = np.zeros((q, width), dtype=np.float64)
    slot_rows[:, 0 : 2 * m_eff : 2] = walk.max_rows
    slot_vals[:, 0 : 2 * m_eff : 2] = np.where(
        walk.max_vals > 0.0, walk.max_vals, 0.0
    )
    consumed = np.arange(m_eff) < walk.min_pos[:, np.newaxis]
    contributing = consumed & (walk.min_vals < 0.0)
    qi, ki = np.nonzero(contributing)
    slots = 2 * walk.min_iter[qi, ki] + 1
    slot_rows[qi, slots] = walk.min_rows[qi, ki]
    slot_vals[qi, slots] = walk.min_vals[qi, ki]
    return slot_rows, slot_vals


def _positive_candidates(
    greedy: np.ndarray,
    first_max_row: np.ndarray,
    fallback_top1: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Positive-greedy-score rows per query (ascending), with the same
    top-1 fallback as ``selection.select_candidate_rows``.  Returns
    ``(query_idx, row_idx, counts, used_fallback)`` in the flat ragged
    layout of :class:`BatchedCandidateResult`.
    """
    q = greedy.shape[0]
    positive = greedy > 0.0
    counts = positive.sum(axis=1).astype(np.int64)
    used_fallback = np.zeros(q, dtype=bool)
    if fallback_top1:
        used_fallback = counts == 0
    query_idx, row_idx = np.nonzero(positive)
    query_idx = query_idx.astype(np.int64, copy=False)
    row_idx = row_idx.astype(np.int64, copy=False)
    if used_fallback.any():
        # Splice one fallback entry into each empty query's segment.
        empty_queries = np.flatnonzero(used_fallback)
        insert_at = np.concatenate(([0], np.cumsum(counts)))[empty_queries]
        query_idx = np.insert(query_idx, insert_at, empty_queries)
        row_idx = np.insert(row_idx, insert_at, first_max_row[empty_queries])
        counts = np.where(used_fallback, 1, counts)
    return query_idx, row_idx, counts, used_fallback


@dataclass
class _Candidates:
    """Stage-1 outcome for a whole slab (see :func:`_candidate_search`).

    The flat arrays follow :class:`RaggedAttendResult`'s layout;
    ``greedy`` holds every fuse group's ``(rows, n)`` greedy-score block
    back to back, in ``walks`` order.
    """

    flat_query: np.ndarray
    flat_rows: np.ndarray
    num_candidates: np.ndarray
    offsets: np.ndarray
    iterations: np.ndarray
    used_fallback: np.ndarray
    greedy: np.ndarray
    walks: list[_Walk]


def _candidate_search(
    pres: list[PreprocessedKey],
    queries: np.ndarray,
    bounds: list[int],
    ms: list[int],
    *,
    min_skip_heuristic: bool,
    fallback_top1: bool,
    clock: _StageClock | None,
) -> _Candidates:
    """Stage 1 — greedy candidate selection — for a whole query slab.

    Segment ``s`` owns slab rows ``bounds[s]:bounds[s + 1]`` and
    searches ``pres[s]`` for ``ms[s]`` iterations (``0`` disables
    selection: every row is a candidate).  Segments sharing
    ``(n, d, M)`` walk as one fuse group (:func:`_grouped_segment_walk`).
    One pass then accumulates the greedy scores of every group in a
    single ``bincount`` and finalizes each group's positive-score
    candidates into the global flat layout: ``(global query,
    segment-local row)`` pairs sorted by query, then row.
    """
    total_q = queries.shape[0]
    groups: dict[tuple[int, int, int], list[int]] = {}
    for s, pre in enumerate(pres):
        if ms[s] >= 1 and bounds[s + 1] > bounds[s]:
            groups.setdefault((pre.n, pre.d, ms[s]), []).append(s)
    walks = [
        _grouped_segment_walk(
            [pres[s] for s in members],
            [(bounds[s], bounds[s + 1]) for s in members],
            queries,
            m,
            min_skip_heuristic=min_skip_heuristic,
            clock=clock,
        )
        for (_n, _d, m), members in groups.items()
    ]

    # Greedy-score accumulation: every group's slot grid lands in its
    # own (rows, n) block of one bin space, and a single bincount, whose
    # scan is sequential, replays each query's additions in order.
    block_starts = list(
        accumulate((w.query.size * w.n for w in walks), initial=0)
    )
    bins_parts: list[np.ndarray] = []
    weight_parts: list[np.ndarray] = []
    for walk, start in zip(walks, block_starts):
        slot_rows, slot_vals = _slot_grid(walk)
        row_starts = start + walk.n * np.arange(walk.query.size)
        bins_parts.append((row_starts[:, np.newaxis] + slot_rows).ravel())
        weight_parts.append(slot_vals.ravel())
    if walks:
        greedy = np.bincount(
            _cat(bins_parts),
            weights=_cat(weight_parts),
            minlength=block_starts[-1],
        )
    else:
        greedy = np.zeros(0, dtype=np.float64)
    if clock is not None:
        clock.lap("search.accumulate")

    # Finalize: positive-score rows (with the top-1 fallback) per group,
    # scattered back to global query order.
    num_candidates = np.zeros(total_q, dtype=np.int64)
    iterations = np.zeros(total_q, dtype=np.int64)
    used_fallback = np.zeros(total_q, dtype=bool)
    query_parts: list[np.ndarray] = []
    row_parts: list[np.ndarray] = []
    for walk, start in zip(walks, block_starts):
        rows = walk.query.size
        local, cand_rows, counts, fallback = _positive_candidates(
            greedy[start : start + rows * walk.n].reshape(rows, walk.n),
            walk.max_rows[:, 0],
            fallback_top1,
        )
        query_parts.append(walk.query[local])
        row_parts.append(cand_rows)
        num_candidates[walk.query] = counts
        iterations[walk.query] = walk.iterations
        used_fallback[walk.query] = fallback
    for s, pre in enumerate(pres):
        lo, hi = bounds[s], bounds[s + 1]
        if ms[s] < 1 and hi > lo:
            query_parts.append(np.repeat(np.arange(lo, hi), pre.n))
            row_parts.append(np.tile(np.arange(pre.n), hi - lo))
            num_candidates[lo:hi] = pre.n
    flat_query = _cat(query_parts)
    flat_rows = _cat(row_parts)
    if len(query_parts) > 1:
        # Each part is sorted by (query, row) and owns whole queries, so
        # a stable sort on the query merges them into the global order.
        order = np.argsort(flat_query, kind="stable")
        flat_query = flat_query[order]
        flat_rows = flat_rows[order]
    offsets = np.concatenate(([0], np.cumsum(num_candidates)))
    if clock is not None:
        clock.lap("search.finalize")
    return _Candidates(
        flat_query=flat_query,
        flat_rows=flat_rows,
        num_candidates=num_candidates,
        offsets=offsets,
        iterations=iterations,
        used_fallback=used_fallback,
        greedy=greedy,
        walks=walks,
    )


def batched_candidate_search(
    key: np.ndarray | PreprocessedKey,
    queries: np.ndarray,
    m: int,
    *,
    min_skip_heuristic: bool = True,
    fallback_top1: bool = True,
) -> BatchedCandidateResult:
    """Greedy candidate selection for every query of a batch at once.

    Semantically this is ``greedy_candidate_search(key, queries[i], m)``
    for each ``i``, but the walk advances all queries together through
    batched array operations instead of ``q`` Python-level stream pops.

    Parameters
    ----------
    key:
        ``(n, d)`` key matrix, or an already-built
        :class:`~repro.core.efficient_search.PreprocessedKey` (the
        amortized usage: preprocess once, search many batches).
    queries:
        ``(q, d)`` query batch.
    m:
        The user-configurable iteration count ``M`` (shared by all
        queries, as in the BERT amortization case where every query sees
        the same ``n``).
    min_skip_heuristic / fallback_top1:
        As in :func:`repro.core.candidate_search.greedy_candidate_search`.
    """
    pre = key if isinstance(key, PreprocessedKey) else PreprocessedKey.build(key)
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != pre.d:
        raise ShapeError(
            f"queries must be 2-D (q, d={pre.d}), got {queries.shape}"
        )
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    n, d = pre.n, pre.d
    q = queries.shape[0]
    if n == 0 or d == 0:
        raise ShapeError(f"key must be non-empty, got {(n, d)}")
    if q == 0:
        empty = np.empty(0, dtype=np.int64)
        return BatchedCandidateResult(
            flat_query=empty,
            flat_rows=empty.copy(),
            num_candidates=empty.copy(),
            greedy_scores=np.empty((0, n), dtype=np.float64),
            iterations=empty.copy(),
            max_pops=empty.copy(),
            min_pops=empty.copy(),
            skipped_min=empty.copy(),
            used_fallback=np.empty(0, dtype=bool),
        )

    prof = profiling.HOOK
    found = _candidate_search(
        [pre],
        queries,
        [0, q],
        [int(m)],
        min_skip_heuristic=min_skip_heuristic,
        fallback_top1=fallback_top1,
        clock=_StageClock(prof) if prof is not None else None,
    )
    (walk,) = found.walks
    return BatchedCandidateResult(
        flat_query=found.flat_query,
        flat_rows=found.flat_rows,
        num_candidates=found.num_candidates,
        greedy_scores=found.greedy.reshape(q, n),
        iterations=found.iterations,
        max_pops=np.full(q, walk.m_eff, dtype=np.int64),
        min_pops=walk.min_pos,
        skipped_min=walk.skipped,
        used_fallback=found.used_fallback,
    )


@dataclass
class RaggedAttendResult:
    """Outcome of one fused multi-key :func:`attend_many_ragged` call.

    Queries are numbered globally across the slab (query ``i`` of
    segment ``s`` has global index ``seg_offsets[s] + i``); candidate
    rows are *local* to their owning segment's key matrix.  The flat
    per-candidate arrays follow the same ragged layout as
    :class:`BatchedCandidateResult`: global query ``g`` owns
    ``flat_rows[offsets[g]:offsets[g + 1]]``.

    Attributes
    ----------
    outputs:
        Per-segment attended outputs, ``outputs[s]`` of shape
        ``(q_s, d_v_s)`` (value widths may differ between segments).
    seg_offsets:
        ``(S + 1,)`` query-slab boundaries, echoed from the call.
    flat_query / flat_rows:
        Parallel 1-D int64 arrays: (global query, local candidate row)
        pairs sorted by query then row.
    num_candidates / offsets:
        ``(Q,)`` candidate count per global query and the ``(Q + 1,)``
        segment boundaries into the flat arrays.
    keep / weights:
        Flat per-candidate post-scoring survival mask and softmax
        weights (0 where dropped).
    kept_counts:
        ``(Q,)`` surviving-row count per global query.
    iterations:
        ``(Q,)`` greedy iteration count per query (0 where candidate
        selection was disabled for the segment).
    used_fallback:
        ``(Q,)`` boolean; ``True`` where the top-1 fallback fired.
    """

    outputs: list[np.ndarray]
    seg_offsets: np.ndarray
    flat_query: np.ndarray
    flat_rows: np.ndarray
    num_candidates: np.ndarray
    offsets: np.ndarray
    keep: np.ndarray
    weights: np.ndarray
    kept_counts: np.ndarray
    iterations: np.ndarray
    used_fallback: np.ndarray

    @property
    def num_segments(self) -> int:
        return len(self.outputs)


def attend_many_ragged(
    pres: list[PreprocessedKey],
    values: list[np.ndarray],
    queries: np.ndarray,
    seg_offsets: np.ndarray,
    ms: list[int],
    *,
    score_gap: float | None,
    min_skip_heuristic: bool = True,
    fallback_top1: bool = True,
) -> RaggedAttendResult:
    """Approximate attention for a query slab over one or more keys.

    The one vectorized pipeline: stage 1 (:func:`_candidate_search` —
    one search front per fuse group of equal-shape segments, then one
    ``bincount`` accumulation and finalize for the whole slab),
    per-segment score GEMMs gathered into one flat candidate layout,
    and fused ``reduceat`` post-scoring/softmax over the global ragged
    segments.  A single-key batch is the one-segment case
    (``seg_offsets = [0, q]``).

    Parameters
    ----------
    pres / values:
        ``S`` prepared keys and their ``(n_s, d_v_s)`` value matrices.
        All keys must share the query width ``d``; row counts and value
        widths may differ per segment.
    queries:
        ``(Q, d)`` query slab; segment ``s`` owns rows
        ``seg_offsets[s]:seg_offsets[s + 1]``.
    seg_offsets:
        ``(S + 1,)`` non-decreasing slab boundaries with
        ``seg_offsets[0] == 0`` and ``seg_offsets[-1] == Q``.
    ms:
        Per-segment greedy iteration counts ``M``; ``0`` disables
        candidate selection for that segment (every row is a
        candidate), matching ``ApproximationConfig.iterations``.
    score_gap:
        Post-scoring gap ``t`` in score units (``ln(100 / T)``), or
        ``None`` to keep every candidate.
    min_skip_heuristic / fallback_top1:
        As in :func:`batched_candidate_search`, shared by all segments
        (a fused dispatch is always a single-config dispatch).

    Every per-segment slice of the pipeline performs exactly the
    operations of a standalone single-key dispatch of that segment, in
    the same order (``bincount`` accumulates in input scan order;
    ``reduceat`` reduces each query's slice independently), so each
    segment's outputs are bit-identical to dispatching it alone.
    """
    queries = np.asarray(queries, dtype=np.float64)
    seg_offsets = np.asarray(seg_offsets, dtype=np.int64)
    num_segments = len(pres)
    if len(values) != num_segments or len(ms) != num_segments:
        raise ShapeError(
            f"got {num_segments} keys but {len(values)} values and "
            f"{len(ms)} iteration counts"
        )
    if queries.ndim != 2:
        raise ShapeError(f"queries must be 2-D (Q, d), got {queries.shape}")
    total_q = queries.shape[0]
    d = queries.shape[1]
    bounds = seg_offsets.tolist()
    if (
        seg_offsets.shape != (num_segments + 1,)
        or bounds[0] != 0
        or bounds[-1] != total_q
        or any(lo > hi for lo, hi in zip(bounds, bounds[1:]))
    ):
        raise ShapeError(
            f"seg_offsets must be ({num_segments + 1},) non-decreasing "
            f"from 0 to {total_q}, got {seg_offsets!r}"
        )
    values = [np.asarray(v, dtype=np.float64) for v in values]
    ms = [int(m) for m in ms]
    for s in range(num_segments):
        if pres[s].d != d:
            raise ShapeError(
                f"segment {s} key width d={pres[s].d} does not match "
                f"query width d={d}"
            )
        if values[s].ndim != 2 or values[s].shape[0] != pres[s].n:
            raise ShapeError(
                f"segment {s} value shape {values[s].shape} does not "
                f"match key rows n={pres[s].n}"
            )
        if ms[s] < 0:
            raise ValueError(f"segment {s} iteration count must be >= 0")
    if total_q == 0:
        empty = np.empty(0, dtype=np.int64)
        return RaggedAttendResult(
            outputs=[
                np.empty((0, v.shape[1]), dtype=np.float64) for v in values
            ],
            seg_offsets=seg_offsets,
            flat_query=empty,
            flat_rows=empty.copy(),
            num_candidates=empty.copy(),
            offsets=np.zeros(1, dtype=np.int64),
            keep=np.empty(0, dtype=bool),
            weights=np.empty(0, dtype=np.float64),
            kept_counts=empty.copy(),
            iterations=empty.copy(),
            used_fallback=np.empty(0, dtype=bool),
        )

    # Per-stage timing runs only when a profiling hook is installed
    # (repro.core.profiling); disabled cost is one None test per stage.
    prof = profiling.HOOK
    clock = _StageClock(prof) if prof is not None else None

    # Stage 1: greedy candidate selection over the whole slab.
    found = _candidate_search(
        pres,
        queries,
        bounds,
        ms,
        min_skip_heuristic=min_skip_heuristic,
        fallback_top1=fallback_top1,
        clock=clock,
    )
    if clock is not None:
        clock.span("attend.candidate_search")
    if not found.num_candidates.all():
        raise ValueError(
            "empty candidate set (no positive greedy score with "
            "fallback_top1 disabled); attention has no rows to attend to"
        )
    flat_query, flat_rows = found.flat_query, found.flat_rows
    offsets = found.offsets
    segment_starts = offsets[:-1]
    cand_bounds = offsets[bounds].tolist()

    # Stage 2: exact dot products — one GEMM per segment over its
    # contiguous slab view, gathered into the global flat layout.
    score_parts: list[np.ndarray] = []
    for s, pre in enumerate(pres):
        lo, hi = bounds[s], bounds[s + 1]
        if hi > lo:
            scores_full = queries[lo:hi] @ pre.key.T  # (q_s, n_s)
            sel = slice(cand_bounds[s], cand_bounds[s + 1])
            score_parts.append(
                scores_full[flat_query[sel] - lo, flat_rows[sel]]
            )
    scores = _cat(score_parts)
    if clock is not None:
        clock.lap("attend.score_gemm")

    # Stage 3: post-scoring over the global ragged segments.  reduceat
    # reduces each query's slice independently and sequentially, so the
    # fused reductions match the per-segment dispatches bit-for-bit.
    qi = flat_query
    max_score = np.maximum.reduceat(scores, segment_starts)
    if score_gap is not None:
        keep = (max_score[qi] - scores) <= score_gap
    else:
        keep = np.ones(scores.shape[0], dtype=bool)
    kept_counts = np.add.reduceat(keep.astype(np.int64), segment_starts)
    if clock is not None:
        clock.lap("attend.post_scoring")

    # Stage 4: grouped softmax over the survivors, then one weighted-sum
    # GEMM per segment against its own value matrix.  The kept set
    # always contains the per-query max score, so the stable-softmax
    # shift is max_score (matching softmax()).
    shifted = np.where(keep, scores - max_score[qi], 0.0)
    exps = np.where(keep, np.exp(shifted), 0.0)
    weights = exps / np.add.reduceat(exps, segment_starts)[qi]
    outputs: list[np.ndarray] = []
    for s, pre in enumerate(pres):
        lo, hi = bounds[s], bounds[s + 1]
        sel = slice(cand_bounds[s], cand_bounds[s + 1])
        dense = np.zeros((hi - lo, pre.n), dtype=np.float64)
        dense[flat_query[sel] - lo, flat_rows[sel]] = weights[sel]
        outputs.append(dense @ values[s])
    if clock is not None:
        clock.lap("attend.softmax_scatter")

    return RaggedAttendResult(
        outputs=outputs,
        seg_offsets=seg_offsets,
        flat_query=flat_query,
        flat_rows=flat_rows,
        num_candidates=found.num_candidates,
        offsets=offsets,
        keep=keep,
        weights=weights,
        kept_counts=kept_counts,
        iterations=found.iterations,
        used_fallback=found.used_fallback,
    )
