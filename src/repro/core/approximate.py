"""End-to-end approximate attention (Section IV, Figure 10 dataflow).

Combines the two approximation stages around the exact attention kernel:

1. greedy candidate selection picks ``C`` likely-relevant rows out of ``n``;
2. exact dot products are computed only for those ``C`` rows;
3. post-scoring selection keeps the ``K`` rows whose softmax weight would
   be non-negligible;
4. softmax and the weighted sum run over the ``K`` survivors.

Three interchangeable candidate-search engines implement stage 1:

``"reference"``
    The Figure 6 formulation — one partial sort per query followed by a
    Python-level walk over the two product streams.  The ground truth
    the others are validated against; fastest for one-off single queries.
``"efficient"``
    The Figure 7 heap-and-pointer formulation that mirrors the hardware:
    ``O(M log d)`` per query after the one-time column sort.  Slowest in
    NumPy (per-pop ``heapq`` overhead) but structurally closest to the
    accelerator, so it is what the hardware model cross-checks against.
``"vectorized"``
    The batched engine of :mod:`repro.core.batched_search`: one set of
    array operations advances every query of a batch together.  Fastest
    whenever many queries share one key matrix (``attend_many`` with
    batch sizes of roughly 8 and up — the BERT self-attention pattern of
    Section IV-C).  Its ``attend_many`` is the one-segment case of the
    fused multi-key :func:`attend_many_ragged` path of the cross-session
    batcher, so a single-key batch and a many-tenant batch run the same
    pipeline; it is also the only engine supporting that path.

All three produce identical candidate sets on tie-free inputs; the
selection decisions of the vectorized engine are bit-identical to the
reference engine (outputs agree to floating-point roundoff, as the
batched softmax reduces in a different summation order).

The :class:`AttentionTrace` returned alongside each output records the
per-stage selection sizes; the hardware performance model consumes these
traces to derive cycle counts (``M + C + K + K + alpha``, Section V-C).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import batched_search
from repro.core.attention import softmax
from repro.core.batched_search import batched_candidate_search
from repro.core.candidate_search import greedy_candidate_search
from repro.core.config import ApproximationConfig
from repro.core.efficient_search import PreprocessedKey, efficient_candidate_search
from repro.core.post_scoring import post_scoring_select
from repro.errors import ShapeError

__all__ = [
    "ENGINES",
    "AttentionTrace",
    "ApproximateAttention",
    "attend_many_ragged",
    "segment_traces",
]

ENGINES = ("reference", "efficient", "vectorized")


@dataclass
class AttentionTrace:
    """Selection statistics for one approximate attention query.

    Attributes
    ----------
    n:
        Number of rows in the key matrix.
    m:
        Greedy-search iteration count used for this query (0 when candidate
        selection is disabled).
    num_candidates:
        ``C`` — rows selected by the greedy search (== ``n`` when disabled).
    num_kept:
        ``K`` — rows surviving post-scoring selection (== ``C`` when
        disabled).
    candidates:
        Row indices passed to the dot-product stage.
    kept_rows:
        Row indices included in the final softmax / weighted sum.
    weights:
        Softmax weights over ``kept_rows`` (sums to 1).
    used_fallback:
        Candidate selection found no positive greedy score and fell back to
        the single best row.
    """

    n: int
    m: int
    num_candidates: int
    num_kept: int
    candidates: np.ndarray
    kept_rows: np.ndarray
    weights: np.ndarray
    used_fallback: bool

    @property
    def candidate_fraction(self) -> float:
        """``C / n`` — the normalized candidate count of Figure 11b."""
        return self.num_candidates / self.n if self.n else 0.0

    @property
    def kept_fraction(self) -> float:
        """``K / n`` — the normalized selected-entry count of Figure 12b."""
        return self.num_kept / self.n if self.n else 0.0


class ApproximateAttention:
    """Approximate attention with a reusable preprocessed key.

    Parameters
    ----------
    config:
        The approximation operating point (``M`` and ``T``).
    engine:
        One of :data:`ENGINES` — see the module docstring for when each
        is fastest.  All engines produce identical candidate sets on
        tie-free inputs.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.config import conservative
    >>> rng = np.random.default_rng(0)
    >>> key = rng.normal(size=(32, 8)); value = rng.normal(size=(32, 8))
    >>> approx = ApproximateAttention(conservative())
    >>> approx.preprocess(key)
    >>> out, trace = approx.attend(value, rng.normal(size=8))
    >>> out.shape, trace.num_candidates <= 32
    ((8,), True)
    """

    def __init__(self, config: ApproximationConfig, engine: str = "reference"):
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        self.config = config
        self.engine = engine
        self._pre: PreprocessedKey | None = None
        # The grow-only storage behind ``_pre``'s planes, when an append
        # laid them out (see repro.core.incremental.splice_append_grow).
        self._planes = None

    # ------------------------------------------------------------------
    # key management
    # ------------------------------------------------------------------
    def preprocess(self, key: np.ndarray) -> PreprocessedKey:
        """Sort the key matrix columns off the critical path (Fig. 7 L1-5)."""
        self._pre = PreprocessedKey.build(key)
        self._planes = None
        return self._pre

    @property
    def preprocessed(self) -> PreprocessedKey:
        if self._pre is None:
            raise RuntimeError("call preprocess(key) before attending")
        return self._pre

    @property
    def preprocessed_or_none(self) -> PreprocessedKey | None:
        """The prepared key, or ``None`` before the first preprocess."""
        return self._pre

    def adopt(self, pre: PreprocessedKey) -> PreprocessedKey:
        """Install an externally built prepared key (e.g. zero-copy views
        over an :class:`repro.core.artifacts.ArtifactBuffer`).

        Equivalent to :meth:`preprocess` of the same key without the
        ``O(n d log n)`` column sort.  Adopted planes may be read-only;
        they are never written: the first append re-lays them into
        private storage, and delete and replace build fresh arrays.
        """
        self._pre = pre
        self._planes = None
        return self._pre

    # ------------------------------------------------------------------
    # incremental key mutation (streaming sessions)
    # ------------------------------------------------------------------
    def append_rows(
        self, rows: np.ndarray, *, key: np.ndarray | None = None
    ) -> PreprocessedKey:
        """Splice ``k`` new key rows into the prepared structures.

        Bit-identical to ``preprocess(concatenate([key, rows]))`` — see
        :mod:`repro.core.incremental` — without a re-sort: a one-row
        append shifts this instance's own planes in place, others
        re-lay them into storage with spare rows.  ``key``, when given,
        is the caller's grown key and becomes the prepared key.
        """
        from repro.core.incremental import splice_append_grow

        self._pre, self._planes = splice_append_grow(
            self.preprocessed, rows, self._planes, key=key
        )
        return self._pre

    def delete_rows(
        self, rows, *, key: np.ndarray | None = None
    ) -> PreprocessedKey:
        """Remove key rows from the prepared structures (rows renumber
        densely, exactly as a fresh preprocess of the shrunken key)."""
        from repro.core.incremental import splice_delete

        self._pre = splice_delete(self.preprocessed, rows, key=key)
        self._planes = None
        return self._pre

    def replace_key(
        self, row: int, new_row: np.ndarray, *, key: np.ndarray | None = None
    ) -> PreprocessedKey:
        """Replace one key row inside the prepared structures."""
        from repro.core.incremental import splice_replace

        self._pre = splice_replace(self.preprocessed, row, new_row, key=key)
        self._planes = None
        return self._pre

    # ------------------------------------------------------------------
    # query-time path
    # ------------------------------------------------------------------
    def select_candidates(
        self, query: np.ndarray, config: ApproximationConfig | None = None
    ):
        """Run only the candidate-selection stage for ``query``.

        ``config`` overrides the instance's operating point for this one
        call (the prepared key is config-independent, so any ``(M, T)``
        point can attend over it).
        """
        cfg = self.config if config is None else config
        pre = self.preprocessed
        m = cfg.iterations(pre.n)
        kwargs = dict(
            min_skip_heuristic=cfg.min_skip_heuristic,
            fallback_top1=cfg.fallback_top1,
        )
        if self.engine == "efficient":
            return efficient_candidate_search(pre, query, m, **kwargs)
        if self.engine == "vectorized":
            query = np.asarray(query, dtype=np.float64)
            batched = batched_candidate_search(
                pre, query[np.newaxis, :], m, **kwargs
            )
            return batched.result(0)
        return greedy_candidate_search(pre.key, query, m, **kwargs)

    def attend(
        self,
        value: np.ndarray,
        query: np.ndarray,
        config: ApproximationConfig | None = None,
    ) -> tuple[np.ndarray, AttentionTrace]:
        """Approximate attention for one query against the preprocessed key.

        A thin wrapper over the canonical :meth:`attend_many`: the query
        is dispatched as a batch of one and the single output row and
        trace are returned.  ``config`` overrides ``self.config`` for
        this one call (see :meth:`attend_many`).
        """
        query = np.asarray(query, dtype=np.float64)
        pre = self.preprocessed
        if query.shape != (pre.d,):
            raise ShapeError(f"query shape {query.shape} does not match d={pre.d}")
        outputs, traces = self.attend_many(
            value, query[np.newaxis, :], config=config
        )
        return outputs[0], traces[0]

    def _attend_single(
        self,
        value: np.ndarray,
        query: np.ndarray,
        config: ApproximationConfig | None = None,
    ) -> tuple[np.ndarray, AttentionTrace]:
        """The reference single-query pipeline (stages 1-4, one query).

        The per-query ground truth the batched pipeline is validated
        against; :meth:`attend_many` loops over it for the
        ``"reference"`` and ``"efficient"`` engines.  The one-time key
        preprocessing (the Figure 7 column sort) does not depend on the
        operating point, so ``config`` may override ``self.config`` per
        call — the serving layer's quality tiers attend at any
        ``(M, T)`` point over one shared prepared key.  The result is
        bit-identical to an instance constructed with that config
        outright.
        """
        cfg = self.config if config is None else config
        pre = self.preprocessed
        value = np.asarray(value, dtype=np.float64)
        query = np.asarray(query, dtype=np.float64)
        if value.ndim != 2 or value.shape[0] != pre.n:
            raise ShapeError(
                f"value shape {value.shape} does not match key rows n={pre.n}"
            )
        if query.shape != (pre.d,):
            raise ShapeError(f"query shape {query.shape} does not match d={pre.d}")

        # Stage 1: candidate selection.
        used_fallback = False
        if cfg.candidate_selection:
            result = self.select_candidates(query, config=cfg)
            candidates = result.candidates
            m = result.iterations
            used_fallback = result.used_fallback
        else:
            candidates = np.arange(pre.n, dtype=np.int64)
            m = 0

        # Stage 2: exact dot products for the candidates only.
        scores = pre.key[candidates] @ query

        # Stage 3: post-scoring selection.
        if cfg.t_percent is not None and scores.shape[0] > 0:
            post = post_scoring_select(scores, cfg.t_percent)
            kept_rows = candidates[post.kept]
            kept_scores = scores[post.kept]
        else:
            kept_rows = candidates
            kept_scores = scores

        # Stage 4: softmax + weighted sum over the survivors.
        weights = softmax(kept_scores)
        output = weights @ value[kept_rows]

        trace = AttentionTrace(
            n=pre.n,
            m=m,
            num_candidates=int(candidates.shape[0]),
            num_kept=int(kept_rows.shape[0]),
            candidates=candidates,
            kept_rows=kept_rows,
            weights=weights,
            used_fallback=used_fallback,
        )
        return output, trace

    def attend_many(
        self,
        value: np.ndarray,
        queries: np.ndarray,
        config: ApproximationConfig | None = None,
    ) -> tuple[np.ndarray, list[AttentionTrace]]:
        """Approximate self-attention: many queries over one preprocessed key.

        The canonical attend entry point (single-query :meth:`attend` is
        a batch-of-one wrapper over it).  The preprocessing cost is paid
        once and amortized over all queries, which is the BERT usage
        pattern the paper highlights (Section IV-C).  With
        ``engine="vectorized"`` the whole batch is a one-segment
        :func:`attend_many_ragged` dispatch — one set of array
        operations for the batch; the other engines fall back to a
        per-query loop over the reference pipeline.  ``config``
        overrides the operating point for this one batch; a batch is
        always a single-config dispatch.
        """
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2:
            raise ShapeError(f"queries must be 2-D (q, d), got {queries.shape}")
        if self.engine == "vectorized":
            pre = self.preprocessed
            result = attend_many_ragged(
                [pre],
                [value],
                queries,
                [0, queries.shape[0]],
                self.config if config is None else config,
            )
            return result.outputs[0], segment_traces(result, 0, pre.n)
        outputs = np.empty((queries.shape[0], value.shape[1]), dtype=np.float64)
        traces: list[AttentionTrace] = []
        for i, query in enumerate(queries):
            outputs[i], trace = self._attend_single(value, query, config=config)
            traces.append(trace)
        return outputs, traces


def attend_many_ragged(
    pres: list[PreprocessedKey],
    values: list[np.ndarray],
    queries: np.ndarray,
    seg_offsets: np.ndarray,
    config: ApproximationConfig,
) -> batched_search.RaggedAttendResult:
    """Fused attend over several prepared keys at one operating point.

    The multi-key counterpart of :meth:`ApproximateAttention.attend_many`
    for a mixed many-tenant batch: segment ``s`` of the ``(Q, d)`` query
    slab (rows ``seg_offsets[s]:seg_offsets[s + 1]``) attends over
    ``pres[s]`` / ``values[s]``, and the whole slab runs through
    :func:`repro.core.batched_search.attend_many_ragged` in one pass.
    A fused dispatch is always a single-config dispatch; per-segment
    iteration counts are resolved from ``config`` against each key's row
    count.  Every segment's outputs and selections are bit-identical to
    dispatching that segment alone through ``attend_many``.

    Returns the kernel's
    :class:`~repro.core.batched_search.RaggedAttendResult`: per-segment
    outputs and per-query arrays (``num_candidates``, ``kept_counts``,
    ...) that counters read directly; :func:`segment_traces` builds one
    segment's :class:`AttentionTrace` list from it.
    """
    return batched_search.attend_many_ragged(
        pres,
        values,
        queries,
        seg_offsets,
        [config.iterations(pre.n) for pre in pres],
        score_gap=config.score_gap(),
        min_skip_heuristic=config.min_skip_heuristic,
        fallback_top1=config.fallback_top1,
    )


def segment_traces(
    result: batched_search.RaggedAttendResult, s: int, n: int
) -> list[AttentionTrace]:
    """The :class:`AttentionTrace` list of segment ``s`` (over a key of
    ``n`` rows) of one ragged result.

    The segment's kept rows and weights are extracted in one pass and
    handed out as zero-copy views; the scalar fields come from
    ``.tolist()`` conversions made once per call.
    """
    lo, hi = result.seg_offsets[s : s + 2].tolist()
    cand_offsets = result.offsets[lo : hi + 1].tolist()
    span = slice(cand_offsets[0], cand_offsets[-1])
    kept_rows_all = result.flat_rows[span][result.keep[span]]
    kept_weights_all = result.weights[span][result.keep[span]]
    kept_offsets = [0, *np.cumsum(result.kept_counts[lo:hi]).tolist()]
    kept_list = result.kept_counts[lo:hi].tolist()
    count_list = result.num_candidates[lo:hi].tolist()
    iter_list = result.iterations[lo:hi].tolist()
    fallback_list = result.used_fallback[lo:hi].tolist()
    return [
        AttentionTrace(
            n=n,
            m=iter_list[g],
            num_candidates=count_list[g],
            num_kept=kept_list[g],
            candidates=result.flat_rows[cand_offsets[g] : cand_offsets[g + 1]],
            kept_rows=kept_rows_all[kept_offsets[g] : kept_offsets[g + 1]],
            weights=kept_weights_all[kept_offsets[g] : kept_offsets[g + 1]],
            used_fallback=fallback_list[g],
        )
        for g in range(hi - lo)
    ]
