"""Pluggable attention backends.

The paper evaluates accuracy by swapping the attention computation inside
existing model implementations (Section VI-B: "we implement a software
model for approximation and integrate this model with our target
workload's official implementations").  This module provides that
integration point: every model in :mod:`repro.nn` routes its inference-time
attention through an :class:`AttentionBackend`, so exact, approximate, and
quantized attention are interchangeable without touching model code.

The canonical query path is ``attend_many`` — a batch of queries sharing
one key matrix, the BERT self-attention pattern whose preprocessing cost
A3 amortizes (Section IV-C); ``attend`` is its batch-of-one wrapper.
``ApproximateBackend(engine="vectorized")`` services the batched path
with the whole-batch NumPy pipeline of :mod:`repro.core.batched_search`
and additionally supports the module-level :func:`attend_many_ragged`,
which fuses segments belonging to *different* prepared keys into one
mixed dispatch (the serving layer's cross-session batching path).
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Protocol

import numpy as np

from repro.core import approximate as approximate_mod
from repro.core import profiling
from repro.core.approximate import ApproximateAttention, AttentionTrace
from repro.core.attention import attention as exact_attention
from repro.core.attention import self_attention
from repro.core.config import ApproximationConfig
from repro.errors import ShapeError
from repro.fixedpoint.fixed_attention import QuantizedAttention

__all__ = [
    "AttentionBackend",
    "BackendStats",
    "KeyFingerprint",
    "ExactBackend",
    "ApproximateBackend",
    "QuantizedBackend",
    "SerialBackend",
    "attend_many_ragged",
]


@dataclass
class BackendStats:
    """Aggregate selection statistics across every attention call.

    These feed the "normalized number of selected candidates / entries"
    panels of Figures 11b, 12b, and the hardware performance model (which
    needs per-query ``(n, M, C, K)`` traces).

    :meth:`count` is the one way queries enter the counters, straight
    from the kernel's per-query arrays; :meth:`record` counts a trace
    through it.  Each count holds the record's lock, so backends on
    several threads may share one record (a served session's).

    Attributes
    ----------
    keep_traces:
        Whether per-query :class:`AttentionTrace` objects are retained.
    max_traces:
        Upper bound on retained traces; once reached, further traces are
        counted in ``dropped_traces`` instead of stored, so a long
        evaluation run cannot grow memory without limit.  ``None``
        removes the bound.  Figure code should check ``dropped_traces``
        to detect truncation before treating ``traces`` as complete.
    dropped_traces:
        Number of traces discarded because of the ``max_traces`` cap.
    """

    calls: int = 0
    total_rows: int = 0
    total_candidates: int = 0
    total_kept: int = 0
    topk_included: int = 0
    topk_total: int = 0
    traces: list[AttentionTrace] = field(default_factory=list, repr=False)
    keep_traces: bool = True
    max_traces: int | None = 100_000
    dropped_traces: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def count(self, n: int, candidates, kept) -> None:
        """Count queries over a key of ``n`` rows: ``candidates`` and
        ``kept`` are each query's ``C`` and ``K``, as arrays (one entry
        per query) or as ints (one query)."""
        if isinstance(candidates, np.ndarray):
            queries = candidates.size
            candidates, kept = candidates.sum(), kept.sum()
        else:
            queries = 1
        with self._lock:
            self.calls += queries
            self.total_rows += n * queries
            self.total_candidates += int(candidates)
            self.total_kept += int(kept)

    def record(self, trace: AttentionTrace) -> None:
        self.count(trace.n, trace.num_candidates, trace.num_kept)
        if self.keep_traces:
            if self.max_traces is None or len(self.traces) < self.max_traces:
                self.traces.append(trace)
            else:
                if self.dropped_traces == 0:
                    warnings.warn(
                        f"BackendStats reached max_traces={self.max_traces}; "
                        "further traces are dropped and `traces` is now "
                        "incomplete (check `dropped_traces` before treating "
                        "it as the full run)",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                self.dropped_traces += 1

    def record_topk(self, included: int, total: int) -> None:
        self.topk_included += included
        self.topk_total += total

    @property
    def topk_retention(self) -> float:
        """Portion of the true top-k rows that survived selection
        (Figure 13b's metric)."""
        return self.topk_included / self.topk_total if self.topk_total else 1.0

    @property
    def candidate_fraction(self) -> float:
        """Mean ``C/n`` across calls (Figure 11b)."""
        return self.total_candidates / self.total_rows if self.total_rows else 0.0

    @property
    def kept_fraction(self) -> float:
        """Mean ``K/n`` across calls (Figure 12b)."""
        return self.total_kept / self.total_rows if self.total_rows else 0.0

    def reset(self) -> None:
        self.calls = self.total_rows = 0
        self.total_candidates = self.total_kept = 0
        self.topk_included = self.topk_total = 0
        self.dropped_traces = 0
        self.traces.clear()

    def merge(self, other: "BackendStats") -> None:
        """Fold ``other``'s counters (and traces, when kept) into this one.

        ``BackendStats(keep_traces=False).merge(live)`` is a detached
        copy of ``live``'s counters, read in one piece under its lock
        (how the serving layer reads a session's record).

        Trace handling mirrors :meth:`record`: a ``keep_traces=False``
        target folds counters only, and its ``dropped_traces`` stays
        purely a cap-truncation signal (disabled retention is not
        truncation); a trace-keeping target absorbs ``other``'s traces
        up to its own ``max_traces`` and counts the overflow.
        """
        with other._lock:
            self.calls += other.calls
            self.total_rows += other.total_rows
            self.total_candidates += other.total_candidates
            self.total_kept += other.total_kept
            self.topk_included += other.topk_included
            self.topk_total += other.topk_total
            self.dropped_traces += other.dropped_traces
        if self.keep_traces and other.traces:
            if self.max_traces is None:
                room = len(other.traces)
            else:
                room = max(0, self.max_traces - len(self.traces))
            self.traces.extend(other.traces[:room])
            self.dropped_traces += max(0, len(other.traces) - room)


_FINGERPRINT_RAMP = np.empty(0)


def _fingerprint_ramp(size: int) -> np.ndarray:
    """The first ``size`` weights of one fixed pseudo-random ramp.

    Seeded standard-normal draws are prefix-stable, so a single
    grow-only ramp (doubled whenever a larger key arrives) gives every
    size exactly the weights of its own ``normal(size=size)`` draw,
    while memory stays bounded by twice the largest key fingerprinted
    — a streamed session growing one row at a time no longer leaves a
    ramp behind per size.  The global is read once per call, so a
    concurrent regrowth can only replace it with an equal-prefix ramp.
    """
    global _FINGERPRINT_RAMP
    ramp = _FINGERPRINT_RAMP
    if ramp.size < size:
        ramp = np.random.default_rng(0x5EED).normal(
            size=max(size, 2 * ramp.size)
        )
        _FINGERPRINT_RAMP = ramp
    return ramp[:size]


@dataclass(frozen=True)
class KeyFingerprint:
    """Cheap content fingerprint of a key matrix.

    ``ApproximateBackend`` keys its cached preprocessing on this rather
    than ``id(key)``: a freed array's id can be recycled by an unrelated
    allocation, silently reusing a stale column sort.  The fingerprint
    combines the shape, the element sum, and a position-weighted sum
    against a fixed pseudo-random ramp — one pass over the key (a few
    microseconds at n=320, d=64, negligible next to an attend), and
    sensitive to partial in-place edits and row/column permutations,
    which a plain sum or strided sample would miss.
    """

    shape: tuple[int, ...]
    total: float
    weighted: float

    @classmethod
    def of(cls, key: np.ndarray) -> "KeyFingerprint":
        key = np.asarray(key, dtype=np.float64)
        if key.size == 0:
            return cls(shape=key.shape, total=0.0, weighted=0.0)
        flat = key.ravel()
        return cls(
            shape=key.shape,
            total=float(flat.sum()),
            weighted=float(flat @ _fingerprint_ramp(flat.size)),
        )

    def matches(self, key: np.ndarray) -> bool:
        """Whether ``key`` has the same shape and contents (to the
        fingerprint's resolution)."""
        key = np.asarray(key, dtype=np.float64)
        if key.shape != self.shape:
            return False
        return KeyFingerprint.of(key) == self


class AttentionBackend(Protocol):
    """The interface every attention implementation exposes to the models."""

    name: str

    def prepare(self, key: np.ndarray) -> None:
        """Accept a new key matrix (comprehension-time preprocessing)."""

    def attend(
        self, key: np.ndarray, value: np.ndarray, query: np.ndarray
    ) -> np.ndarray:
        """Compute the attended output for one query."""

    def attend_many(
        self, key: np.ndarray, value: np.ndarray, queries: np.ndarray
    ) -> np.ndarray:
        """Compute attended outputs for a ``(q, d)`` batch of queries."""


class ExactBackend:
    """Float64 exact attention; the accuracy baseline of every figure."""

    name = "exact"

    def __init__(self) -> None:
        self.stats = BackendStats(keep_traces=False)

    def prepare(self, key: np.ndarray) -> None:  # no preprocessing needed
        return None

    def attend(
        self, key: np.ndarray, value: np.ndarray, query: np.ndarray
    ) -> np.ndarray:
        n = key.shape[0]
        self.stats.count(n, n, n)
        return exact_attention(key, value, query)

    def attend_many(
        self, key: np.ndarray, value: np.ndarray, queries: np.ndarray
    ) -> np.ndarray:
        """Batched exact attention: one GEMM over all queries."""
        queries = np.asarray(queries, dtype=np.float64)
        every_row = np.full(queries.shape[0], key.shape[0])
        self.stats.count(key.shape[0], every_row, every_row)
        return self_attention(key, value, queries)


class ApproximateBackend:
    """Candidate selection + post-scoring approximation (Section IV).

    The preprocessing contract: callers *should* invoke :meth:`prepare`
    whenever they switch to a new key matrix (the comprehension step,
    off the critical path); ``attend``/``attend_many`` then reuse the
    column sort, which models the BERT amortization case.

    **The key guard.**  Every attend checks that its key is the one
    prepared, and transparently re-prepares when it is not.  The check
    is ``O(1)`` when the caller passes the very array the prepared
    state holds and that array is read-only — the serving layer hands
    every dispatch its session's read-only key view, and the session
    only ever writes past the end of a published view.  Any other key,
    a writable one included, gets a :class:`KeyFingerprint` content
    check, so a caller that edits its key in place between attends
    (the same object id over new contents) still gets a fresh sort.  A
    writable prepared key is fingerprinted when it is installed (its
    owner may edit it later); a read-only one only if a content check
    ever asks.  A read-only key that passes the content check becomes
    the prepared key, so later attends pass by identity.

    Parameters
    ----------
    engine:
        One of ``repro.core.approximate.ENGINES`` — ``"reference"``
        (default), ``"efficient"`` (hardware-shaped), or
        ``"vectorized"`` (fastest for batched ``attend_many``).
    track_topk:
        When set, every call also computes the exact scores and records
        how many of the true top-k rows survived the selection stages —
        the metric of Figure 13b.  (This is measurement instrumentation;
        the approximate output itself never uses the exact scores.)

    Mutation hooks (``append_rows`` / ``delete_rows`` /
    ``replace_key``) splice the prepared structures incrementally (see
    :mod:`repro.core.incremental`); each ends bit-identical to a fresh
    ``prepare`` of the mutated key.

    Both attend paths accept a keyword-only ``config`` override: the
    prepared column sort is independent of the operating point, so one
    prepared key serves any ``(M, T)`` point — the serving layer's
    quality tiers share a single prepared artifact this way.  Overridden
    calls are bit-identical to a backend constructed with that config.
    """

    name = "approximate"

    def __init__(
        self,
        config: ApproximationConfig,
        engine: str = "reference",
        track_topk: int | None = None,
    ):
        self.config = config
        self.engine = engine
        self.track_topk = track_topk
        self._attention = ApproximateAttention(config, engine=engine)
        self._fingerprint: KeyFingerprint | None = None
        self.stats = BackendStats()

    def prepare(self, key: np.ndarray) -> None:
        self._guard(self._attention.preprocess(key))

    def _guard(self, pre, fingerprint: KeyFingerprint | None = None) -> None:
        """Set the content guard for a newly installed prepared key:
        ``fingerprint`` when the caller vouches for one, else one taken
        now for a writable key, else none until a content check asks."""
        if fingerprint is None and pre.key.flags.writeable:
            fingerprint = KeyFingerprint.of(pre.key)
        self._fingerprint = fingerprint

    # ------------------------------------------------------------------
    # artifact export / adoption (zero-copy prepared state)
    # ------------------------------------------------------------------
    def export_artifact(
        self,
        value: np.ndarray | None = None,
        *,
        storage: str = "heap",
        name: str | None = None,
        path: str | None = None,
    ):
        """Serialize the prepared state into one contiguous
        :class:`repro.core.artifacts.ArtifactBuffer`.

        ``value`` optionally packs the session's value matrix alongside
        the key planes (the cluster ships both in one segment).  The
        caller owns the returned buffer; this backend keeps its private
        prepared arrays and is unaffected by the buffer's lifecycle.
        """
        from repro.core.artifacts import ArtifactBuffer

        pre = self._attention.preprocessed_or_none
        if pre is None:
            raise RuntimeError("nothing prepared: call prepare(key) first")
        return ArtifactBuffer.pack(
            pre, value, storage=storage, name=name, path=path
        )

    def adopt_artifact(
        self,
        artifact,
        fingerprint: KeyFingerprint | None = None,
        *,
        verify: bool = True,
    ) -> None:
        """Install a packed artifact as this backend's prepared state —
        the zero-copy replacement for :meth:`prepare`.

        The adopted planes are read-only views over the buffer, never
        written: the first append re-lays them into private storage, so
        every mutation is copy-on-write.  ``fingerprint``, when given,
        is checked against the packed key (``verify=False`` skips the
        O(n d) content recompute and trusts the pairing — appropriate
        when this process wrote the artifact itself) and kept as the
        key guard.
        """
        pre = artifact.view()
        if (
            fingerprint is not None
            and verify
            and not fingerprint.matches(pre.key)
        ):
            raise ValueError(
                "artifact content does not match the expected key "
                "fingerprint"
            )
        self._guard(self._attention.adopt(pre), fingerprint)

    # ------------------------------------------------------------------
    # incremental key mutation (streaming sessions)
    # ------------------------------------------------------------------
    # Each hook is a no-op before the first ``prepare`` (the next attend
    # builds the final key fresh), and validates before it writes, so a
    # refused mutation leaves the prepared state untouched.  ``key``,
    # when given, is the caller's copy of the mutated key: the prepared
    # state keeps that very array instead of building its own (the
    # serving layer's one key array per session).

    def append_rows(
        self, rows: np.ndarray, *, key: np.ndarray | None = None
    ) -> None:
        """Splice new key rows into the prepared state."""
        self._mutate(self._attention.append_rows, rows, key=key)

    def delete_rows(self, rows, *, key: np.ndarray | None = None) -> None:
        """Remove key rows from the prepared state (dense renumbering)."""
        self._mutate(self._attention.delete_rows, rows, key=key)

    def replace_key(
        self, row: int, new_row: np.ndarray, *, key: np.ndarray | None = None
    ) -> None:
        """Replace one key row inside the prepared state."""
        self._mutate(self._attention.replace_key, row, new_row, key=key)

    def _mutate(self, splice, *args, key: np.ndarray | None) -> None:
        if self._attention.preprocessed_or_none is None:
            return  # nothing prepared yet; the next attend starts fresh
        prof = profiling.HOOK
        t0 = perf_counter() if prof is not None else 0.0
        pre = splice(*args, key=key)
        if prof is not None:
            prof.record("mutate.splice", perf_counter() - t0)
        self._guard(pre)

    def prepared_nbytes(self, key: np.ndarray) -> int:
        """Bytes retained per prepared key — what the serving layer's
        key cache accounts capacity in: the ``(n, d)`` float64 sorted
        values, the int64 row ids, and the float64 key.  Spare rows of
        grow-only storage are untouched address space until an append
        lands in them, so they are not counted."""
        key = np.asarray(key)
        return 3 * key.size * 8

    def _ensure_prepared(self, key: np.ndarray) -> None:
        """The key guard (see the class docstring)."""
        pre = self._attention.preprocessed_or_none
        if pre is not None and key is pre.key and not key.flags.writeable:
            return
        if pre is not None:
            if self._fingerprint is None:
                self._fingerprint = KeyFingerprint.of(pre.key)
            if self._fingerprint.matches(key):
                if (
                    isinstance(key, np.ndarray)
                    and key.dtype == np.float64
                    and not key.flags.writeable
                ):
                    self._attention.adopt(replace(pre, key=key))
                return
        self.prepare(key)

    def attend(
        self,
        key: np.ndarray,
        value: np.ndarray,
        query: np.ndarray,
        *,
        config: ApproximationConfig | None = None,
    ) -> np.ndarray:
        """Single-query attend: a batch-of-one :meth:`attend_many`."""
        query = np.asarray(query, dtype=np.float64)
        return self.attend_many(
            key, value, query[np.newaxis, :], config=config
        )[0]

    def attend_many(
        self,
        key: np.ndarray,
        value: np.ndarray,
        queries: np.ndarray,
        *,
        config: ApproximationConfig | None = None,
    ) -> np.ndarray:
        """Batched approximate attention over one preprocessed key.

        The canonical attend entry point.  With ``engine="vectorized"``
        the whole batch runs through one set of array operations; other
        engines fall back to the per-query loop inside
        ``ApproximateAttention.attend_many``.
        """
        self._ensure_prepared(key)
        outputs, traces = self._attention.attend_many(
            value, queries, config=config
        )
        self._record_attended(key, queries, traces)
        return outputs

    def _record_attended(
        self,
        key: np.ndarray,
        queries: np.ndarray,
        traces: list,
    ) -> None:
        """Record selection traces and (optionally) top-k recall for one
        dispatched query batch."""
        for trace in traces:
            self.stats.record(trace)
        if self.track_topk and traces:
            k = min(self.track_topk, key.shape[0])
            exact_scores = np.asarray(key) @ np.asarray(queries).T  # (n, q)
            top_rows = np.argpartition(exact_scores, -k, axis=0)[-k:]
            for i, trace in enumerate(traces):
                included = int(np.isin(top_rows[:, i], trace.kept_rows).sum())
                self.stats.record_topk(included, k)


def attend_many_ragged(
    backends: list[ApproximateBackend],
    keys: list[np.ndarray],
    values: list[np.ndarray],
    queries: np.ndarray,
    seg_offsets: np.ndarray,
    *,
    config: ApproximationConfig | None = None,
) -> list[np.ndarray]:
    """Fused multi-key attend across several prepared backends.

    Segment ``s`` of the ``(Q, d)`` query slab (rows
    ``seg_offsets[s]:seg_offsets[s + 1]``) attends over
    ``keys[s]`` / ``values[s]`` through ``backends[s]``, and the whole
    mixed batch is one call of the vectorized kernel
    (:func:`repro.core.approximate.attend_many_ragged`) over each
    backend's prepared key — the serving layer's cross-session dispatch
    path.  A fused dispatch is always a single-config dispatch, with
    ``config`` overriding the first backend's operating point for every
    segment exactly as the per-call override of
    :meth:`ApproximateBackend.attend_many` would.  Each segment's
    per-query candidate and kept counts go into its backend's stats
    straight from the kernel's arrays; its traces are built only when
    those stats keep traces or the backend tracks top-k.

    Returns the per-segment output arrays (``outputs[s]`` of shape
    ``(q_s, d_v_s)``), bit-identical per segment to dispatching that
    segment alone through a vectorized backend's ``attend_many``.
    """
    if not backends:
        return []
    if not (len(backends) == len(keys) == len(values)):
        raise ShapeError(
            f"got {len(backends)} backends but {len(keys)} keys and "
            f"{len(values)} values"
        )
    cfg = backends[0].config if config is None else config
    for backend, key in zip(backends, keys):
        backend._ensure_prepared(key)
    pres = [backend._attention.preprocessed for backend in backends]
    result = approximate_mod.attend_many_ragged(
        pres, values, queries, seg_offsets, cfg
    )
    queries = np.asarray(queries)
    bounds = result.seg_offsets.tolist()
    for s, (backend, pre) in enumerate(zip(backends, pres)):
        lo, hi = bounds[s], bounds[s + 1]
        if backend.stats.keep_traces or backend.track_topk:
            backend._record_attended(
                keys[s],
                queries[lo:hi],
                approximate_mod.segment_traces(result, s, pre.n),
            )
        else:
            backend.stats.count(
                pre.n, result.num_candidates[lo:hi], result.kept_counts[lo:hi]
            )
    return result.outputs


class SerialBackend:
    """Adapter forcing one ``attend`` call per query of a batch.

    Models and workloads batch their attention through ``attend_many``;
    this wrapper restores the query-at-a-time execution the accelerator
    services (one candidate search per arriving query), which is what
    the Figure 3 profiling study measures.  Stats remain those of the
    wrapped backend.
    """

    def __init__(self, inner: AttentionBackend):
        self.inner = inner

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def stats(self) -> BackendStats | None:
        return getattr(self.inner, "stats", None)

    def prepare(self, key: np.ndarray) -> None:
        self.inner.prepare(key)

    def append_rows(self, rows: np.ndarray) -> None:
        hook = getattr(self.inner, "append_rows", None)
        if hook is not None:
            hook(rows)

    def delete_rows(self, rows) -> None:
        hook = getattr(self.inner, "delete_rows", None)
        if hook is not None:
            hook(rows)

    def replace_key(self, row: int, new_row: np.ndarray) -> None:
        hook = getattr(self.inner, "replace_key", None)
        if hook is not None:
            hook(row, new_row)

    def attend(
        self, key: np.ndarray, value: np.ndarray, query: np.ndarray
    ) -> np.ndarray:
        return self.inner.attend(key, value, query)

    def attend_many(
        self, key: np.ndarray, value: np.ndarray, queries: np.ndarray
    ) -> np.ndarray:
        queries = np.asarray(queries, dtype=np.float64)
        outputs = np.empty(
            (queries.shape[0], value.shape[1]), dtype=np.float64
        )
        for i, query in enumerate(queries):
            outputs[i] = self.inner.attend(key, value, query)
        return outputs


class QuantizedBackend:
    """Fixed-point base-A3 attention (Section III-B, used for the
    quantization study of Section VI-B)."""

    name = "quantized"

    def __init__(self, i: int = 4, f: int = 4, max_n: int = 512, d: int = 64):
        self.i = i
        self.f = f
        self.max_n = max_n
        self.d = d
        self._pipelines: dict[int, QuantizedAttention] = {}
        self.stats = BackendStats(keep_traces=False)

    def prepare(self, key: np.ndarray) -> None:
        return None

    def _pipeline_for(self, d: int) -> QuantizedAttention:
        if d not in self._pipelines:
            self._pipelines[d] = QuantizedAttention(
                i=self.i, f=self.f, n=self.max_n, d=d
            )
        return self._pipelines[d]

    def attend(
        self, key: np.ndarray, value: np.ndarray, query: np.ndarray
    ) -> np.ndarray:
        n, d = key.shape
        result = self._pipeline_for(d).attend(key, value, query)
        self.stats.count(n, n, n)
        return result.output

    def attend_many(
        self, key: np.ndarray, value: np.ndarray, queries: np.ndarray
    ) -> np.ndarray:
        """The fixed-point pipeline models one query at a time."""
        queries = np.asarray(queries, dtype=np.float64)
        outputs = np.empty(
            (queries.shape[0], value.shape[1]), dtype=np.float64
        )
        for i, query in enumerate(queries):
            outputs[i] = self.attend(key, value, query)
        return outputs
