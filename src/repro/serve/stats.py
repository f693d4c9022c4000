"""Serving-layer telemetry: latencies, batch shapes, queue depth, cache.

:class:`ServerStats` is the single surface the server, benchmarks, and
demo read.  It complements (and aggregates) the per-backend
:class:`~repro.core.backends.BackendStats` that the figure scripts
consume: ``KeyCacheManager.merged_backend_stats()`` sums every
session's selection record into one figure-compatible object via
``BackendStats.merge``, while the
serving-specific signals — end-to-end latency percentiles, queue-wait
vs. service split, the batch-size histogram, admission counters, and
the prepared-key cache hit rate — live here.

:meth:`ServerStats.merge` pools two sets of books the same way
``BackendStats.merge`` does, which is how a server takes a detached
copy of its own stats and how a sharded cluster adds its shards' up:
the cluster aggregate is rendered by the same :meth:`ServerStats.snapshot`
as every server (see :class:`~repro.serve.service.TelemetryResult`).
"""

from __future__ import annotations

import threading
from collections import Counter, deque

import numpy as np

from repro.core.backends import BackendStats
from repro.core.config import tier_rank

__all__ = ["ServerStats", "latency_summary"]


def latency_summary(samples) -> dict[str, float]:
    """The standard p50/p95/p99/mean/max summary of latency samples.

    Shared by :meth:`ServerStats.latency_percentiles` (which a
    cluster's merged books also render, over the pooled samples:
    percentiles can't be averaged across shards) and the per-tier
    snapshot rows — one definition, so the views can never drift.
    """
    if len(samples) == 0:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    arr = np.asarray(samples)
    p50, p95, p99 = np.percentile(arr, (50, 95, 99))
    return {
        "p50": float(p50),
        "p95": float(p95),
        "p99": float(p99),
        "mean": float(arr.mean()),
        "max": float(arr.max()),
    }


class ServerStats:
    """Thread-safe counters and reservoirs for one server instance.

    Parameters
    ----------
    max_samples:
        Bound on retained per-request latency samples (and per-batch
        service times).  Retention is a **uniform reservoir** (Algorithm R):
        once full, each new sample replaces a random slot with
        probability ``max_samples / samples_seen``, so the retained set
        stays a uniform sample of *every* request served and the
        percentiles track the whole run — a long-running server neither
        grows memory nor freezes its percentiles on the first
        ``max_samples`` requests (the old truncation behavior).
        ``dropped_samples`` counts the samples seen beyond the
        reservoir's capacity.
    """

    #: Bound on the controller's recent-latency window (samples recorded
    #: since the last ``take_recent_latencies`` drain); oldest samples
    #: fall out first, which is exactly what a windowed p95 wants.
    RECENT_WINDOW = 8192

    #: The books :meth:`state` and :meth:`merge` carry, by attribute:
    #: integer counters (added), count maps (added key by key) and
    #: float reservoirs (concatenated).  The peak queue depth takes the
    #: max and the per-tier reservoirs concatenate tier by tier; the
    #: controller's recent-latency window is a drain queue, not books,
    #: and stays behind.
    _COUNTERS = (
        "submitted", "rejected", "completed", "failed", "batches",
        "dropped_samples", "downgraded_requests", "tier_downgrades",
        "tier_upgrades", "_samples_seen", "_service_seen",
        "_queue_depth_sum",
    )
    _COUNTS = (
        "batch_size_counts", "fused_segment_counts", "tier_submitted",
        "tier_completed", "tier_failed", "_tier_seen",
    )
    _RESERVOIRS = ("_latencies", "_queue_waits", "_service_times")

    def __init__(self, max_samples: int = 100_000):
        self.max_samples = max_samples
        self._lock = threading.Lock()
        self._rng = np.random.default_rng(0x5EED)
        self.submitted = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        self.batches = 0
        self.dropped_samples = 0
        self.batch_size_counts: Counter[int] = Counter()
        #: Distinct-session segments per dispatched batch → batch count.
        #: ``{1: n}`` means no cross-session fusion happened; keys > 1
        #: count ragged multi-key dispatches and how wide they fused.
        self.fused_segment_counts: Counter[int] = Counter()
        self._latencies: list[float] = []
        self._queue_waits: list[float] = []
        self._samples_seen = 0
        self._service_times: list[float] = []
        self._service_seen = 0
        self._queue_depth_sum = 0
        self._queue_depth_peak = 0
        # Quality tiers: per-tier admission/outcome counters and latency
        # reservoirs, plus the degradation telemetry the SLO controller
        # and the submit path feed.
        self.tier_submitted: Counter[str] = Counter()
        self.tier_completed: Counter[str] = Counter()
        self.tier_failed: Counter[str] = Counter()
        self._tier_latencies: dict[str, list[float]] = {}
        self._tier_seen: Counter[str] = Counter()
        self.downgraded_requests = 0
        self.tier_downgrades = 0
        self.tier_upgrades = 0
        self._recent_latencies: deque[float] = deque(maxlen=self.RECENT_WINDOW)

    def _reserve(self, latencies: list[float], queue_waits: list[float]) -> None:
        """Fold one batch's per-request samples into the reservoir.

        Latency and queue-wait samples of one request share a slot, so
        the two reservoirs describe the same uniform subset of requests.
        Callers hold ``self._lock``.
        """
        size = len(latencies)
        start = min(self.max_samples - len(self._latencies), size)
        if start > 0:
            self._latencies.extend(latencies[:start])
            self._queue_waits.extend(queue_waits[:start])
            self._samples_seen += start
        rest = size - start
        if rest <= 0:
            return
        # Algorithm R, batched: sample t (0-based) replaces a uniform
        # slot of [0, t] when that slot lands inside the reservoir.
        arrivals = np.arange(
            self._samples_seen, self._samples_seen + rest, dtype=np.int64
        )
        slots = self._rng.integers(0, arrivals + 1)
        self._samples_seen += rest
        self.dropped_samples += rest
        for offset, slot in enumerate(slots):
            if slot < self.max_samples:
                self._latencies[slot] = latencies[start + offset]
                self._queue_waits[slot] = queue_waits[start + offset]

    def _tier_reserve(self, tier: str, latencies: list[float]) -> None:
        """Per-tier Algorithm-R latency reservoir (callers hold the lock)."""
        bucket = self._tier_latencies.setdefault(tier, [])
        seen = self._tier_seen[tier]
        for latency in latencies:
            if len(bucket) < self.max_samples:
                bucket.append(latency)
            else:
                slot = int(self._rng.integers(0, seen + 1))
                if slot < self.max_samples:
                    bucket[slot] = latency
            seen += 1
        self._tier_seen[tier] = seen

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_submitted(
        self, tier: str | None = None, downgraded: bool = False
    ) -> None:
        """Count one admitted request; ``downgraded`` marks best-effort
        traffic that resolved below the configured default tier."""
        with self._lock:
            self.submitted += 1
            if tier is not None:
                self.tier_submitted[tier] += 1
            if downgraded:
                self.downgraded_requests += 1

    def record_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def record_tier_change(self, old_tier: str, new_tier: str) -> None:
        """Count one default-tier move (the SLO controller's lever)."""
        old_rank, new_rank = tier_rank(old_tier), tier_rank(new_tier)
        with self._lock:
            if new_rank > old_rank:
                self.tier_downgrades += 1
            elif new_rank < old_rank:
                self.tier_upgrades += 1

    def record_batch(
        self,
        queue_waits: list[float],
        latencies: list[float],
        service_seconds: float,
        queue_depth: int,
        failed: int = 0,
        tier: str | None = None,
        segments: int = 1,
    ) -> None:
        """Record one dispatched batch and its per-request timings.

        ``queue_waits`` / ``latencies`` hold one sample per request the
        batch completed; ``failed`` counts the requests it failed, whose
        (service-free) timings would deflate the success percentiles
        and are therefore not taken.  ``segments`` is the number of
        distinct sessions the batch carried — fusion changes how many
        sessions share a dispatch, not how many dispatches happened, so
        the batch counts once either way.  ``queue_depth`` is the
        number of requests pending when the batch was claimed, its own
        included.
        """
        completed = len(latencies)
        with self._lock:
            self.batches += 1
            self.batch_size_counts[completed + failed] += 1
            self.fused_segment_counts[segments] += 1
            self.failed += failed
            if tier is not None and failed:
                self.tier_failed[tier] += failed
            if completed:
                self.completed += completed
                self._reserve(list(latencies), list(queue_waits))
                self._recent_latencies.extend(latencies)
                if tier is not None:
                    self.tier_completed[tier] += completed
                    self._tier_reserve(tier, list(latencies))
                if len(self._service_times) < self.max_samples:
                    self._service_times.append(service_seconds)
                else:
                    slot = int(self._rng.integers(0, self._service_seen + 1))
                    if slot < self.max_samples:
                        self._service_times[slot] = service_seconds
                self._service_seen += 1
            self._queue_depth_sum += queue_depth
            self._queue_depth_peak = max(self._queue_depth_peak, queue_depth)

    # ------------------------------------------------------------------
    # pooling
    # ------------------------------------------------------------------
    def state(self) -> dict:
        """The books as plain data, copied under the lock.

        Keys are the attribute names without their leading underscore:
        integer counters, count maps as sorted ``[key, count]`` pairs,
        float reservoirs as lists, ``queue_depth_peak`` and
        ``tier_latencies`` (tier → reservoir).  :meth:`from_state`
        inverts it; the wire codec ships it with every reservoir in a
        raw float plane.
        """
        with self._lock:
            return {
                **{
                    name.lstrip("_"): getattr(self, name)
                    for name in self._COUNTERS
                },
                "queue_depth_peak": self._queue_depth_peak,
                **{
                    name.lstrip("_"): sorted(getattr(self, name).items())
                    for name in self._COUNTS
                },
                **{
                    name.lstrip("_"): list(getattr(self, name))
                    for name in self._RESERVOIRS
                },
                "tier_latencies": {
                    tier: list(samples)
                    for tier, samples in self._tier_latencies.items()
                },
            }

    @classmethod
    def from_state(cls, state: dict) -> "ServerStats":
        """Books rebuilt from :meth:`state` data."""
        stats = cls()
        stats._add(state)
        return stats

    def merge(self, other: "ServerStats") -> None:
        """Pool ``other``'s books into these — the
        :meth:`BackendStats.merge` idiom.

        Counters and count maps add, the peak queue depth takes the
        max, and the reservoirs concatenate *uncapped*: a cluster
        recomputes its percentiles over every shard's retained samples
        (percentiles don't average), so pooled books are rendered,
        never recorded into.  ``ServerStats().merge(live)`` is a
        detached copy of ``live``.
        """
        self._add(other.state())

    def _add(self, state: dict) -> None:
        with self._lock:
            for name in self._COUNTERS:
                key = name.lstrip("_")
                setattr(self, name, getattr(self, name) + state[key])
            self._queue_depth_peak = max(
                self._queue_depth_peak, state["queue_depth_peak"]
            )
            for name in self._COUNTS:
                counts = getattr(self, name)
                for key, count in state[name.lstrip("_")]:
                    counts[key] += count
            for name in self._RESERVOIRS:
                getattr(self, name).extend(state[name.lstrip("_")])
            for tier, samples in state["tier_latencies"].items():
                self._tier_latencies.setdefault(tier, []).extend(samples)

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def latency_percentile(self, p: float) -> float:
        """The ``p``-th percentile of end-to-end request latency (seconds)."""
        with self._lock:
            if not self._latencies:
                return 0.0
            return float(np.percentile(np.asarray(self._latencies), p))

    def latency_percentiles(self) -> dict[str, float]:
        """The standard p50/p95/p99 trio plus mean and max (seconds)."""
        with self._lock:
            return latency_summary(self._latencies)

    def take_recent_latencies(self) -> list[float]:
        """Drain and return the latencies recorded since the last drain.

        The feedback window of the
        :class:`~repro.serve.controller.AdaptiveQualityController`:
        each controller tick consumes exactly the requests completed
        during its interval, so the windowed p95 it compares against
        the SLO reflects *current* load rather than the whole run's
        history (which the lifetime reservoir would smear in).  Bounded
        by :data:`RECENT_WINDOW`; overflow drops the oldest samples.
        """
        with self._lock:
            recent = list(self._recent_latencies)
            self._recent_latencies.clear()
        return recent

    def tier_snapshot(self) -> dict[str, dict]:
        """Per-tier counters and latency summaries, keyed by tier name."""
        with self._lock:
            tiers = (
                set(self.tier_submitted)
                | set(self.tier_completed)
                | set(self.tier_failed)
            )
            return {
                tier: {
                    "submitted": self.tier_submitted[tier],
                    "completed": self.tier_completed[tier],
                    "failed": self.tier_failed[tier],
                    "latency_seconds": latency_summary(
                        self._tier_latencies.get(tier, [])
                    ),
                }
                for tier in sorted(tiers)
            }

    def latency_samples(self) -> list[float]:
        """A copy of the retained end-to-end latency samples (seconds),
        bounded by ``max_samples`` like every reservoir here."""
        with self._lock:
            return list(self._latencies)

    @property
    def mean_queue_wait(self) -> float:
        with self._lock:
            if not self._queue_waits:
                return 0.0
            return float(np.mean(self._queue_waits))

    @property
    def mean_service_seconds(self) -> float:
        """Mean backend time per dispatched batch (the latency left after
        subtracting queue wait — the queue-wait vs. service split)."""
        with self._lock:
            if not self._service_times:
                return 0.0
            return float(np.mean(self._service_times))

    @property
    def mean_batch_size(self) -> float:
        with self._lock:
            total = sum(s * c for s, c in self.batch_size_counts.items())
            return total / self.batches if self.batches else 0.0

    @property
    def mean_queue_depth(self) -> float:
        with self._lock:
            return self._queue_depth_sum / self.batches if self.batches else 0.0

    @property
    def peak_queue_depth(self) -> int:
        with self._lock:
            return self._queue_depth_peak

    def batch_size_histogram(self) -> dict[int, int]:
        """Batch size → number of dispatched batches, ascending by size."""
        with self._lock:
            return dict(sorted(self.batch_size_counts.items()))

    def fused_segment_histogram(self) -> dict[int, int]:
        """Segments per batch → number of dispatched batches, ascending."""
        with self._lock:
            return dict(sorted(self.fused_segment_counts.items()))

    def snapshot(self, cache_stats=None, backend: BackendStats | None = None) -> dict:
        """One JSON-serializable dict of every headline signal."""
        out = {
            "submitted": self.submitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "failed": self.failed,
            "batches": self.batches,
            "mean_batch_size": self.mean_batch_size,
            "batch_size_histogram": {
                str(k): v for k, v in self.batch_size_histogram().items()
            },
            "mean_queue_depth": self.mean_queue_depth,
            "peak_queue_depth": self.peak_queue_depth,
            "mean_queue_wait_seconds": self.mean_queue_wait,
            "mean_service_seconds": self.mean_service_seconds,
            "latency_seconds": self.latency_percentiles(),
            "dropped_samples": self.dropped_samples,
            "fused": {
                "fused_batches": sum(
                    count
                    for segments, count in self.fused_segment_counts.items()
                    if segments > 1
                ),
                "max_segments": max(self.fused_segment_counts, default=0),
                "segment_histogram": {
                    str(k): v
                    for k, v in self.fused_segment_histogram().items()
                },
            },
            "tiers": self.tier_snapshot(),
            "quality": {
                "downgraded_requests": self.downgraded_requests,
                "tier_downgrades": self.tier_downgrades,
                "tier_upgrades": self.tier_upgrades,
            },
        }
        if cache_stats is not None:
            out["cache"] = {
                "hits": cache_stats.hits,
                "misses": cache_stats.misses,
                "evictions": cache_stats.evictions,
                "hit_rate": cache_stats.hit_rate,
                "prepare_seconds": cache_stats.prepare_seconds,
                "spills": cache_stats.spills,
                "promotes": cache_stats.promotes,
                "spill_reaps": cache_stats.spill_reaps,
            }
        if backend is not None:
            out["selection"] = {
                "calls": backend.calls,
                "candidate_fraction": backend.candidate_fraction,
                "kept_fraction": backend.kept_fraction,
            }
        return out

    def publish_metrics(self, registry, labels=None) -> None:
        """Publish this server's counters into a
        :class:`~repro.serve.observability.MetricsRegistry`.

        Pull-style: called at scrape time, so the request path records
        nothing extra.  ``labels`` (e.g. ``{"shard": "shard-0"}``) is
        applied to every sample.  Counters are emitted as cumulative
        totals (the registry is fresh per scrape); the latency and
        queue-wait histograms are rebuilt from the uniform reservoirs,
        so their bucket counts describe the same sample population as
        the percentile snapshot.
        """
        extra = dict(labels or {})
        names = tuple(extra)

        def counter(name, help):
            return registry.counter(name, help, labelnames=names)

        def gauge(name, help):
            return registry.gauge(name, help, labelnames=names)

        with self._lock:
            requests = registry.counter(
                "repro_serve_requests_total",
                "Requests by outcome (submitted/rejected/completed/failed).",
                labelnames=("outcome", *names),
            )
            for outcome, value in (
                ("submitted", self.submitted),
                ("rejected", self.rejected),
                ("completed", self.completed),
                ("failed", self.failed),
            ):
                requests.labels(outcome=outcome, **extra).inc(value)
            counter(
                "repro_serve_batches_total", "Dispatched batches."
            ).labels(**extra).inc(self.batches)
            gauge(
                "repro_serve_mean_batch_size",
                "Mean dispatched batch size.",
            ).labels(**extra).set(
                sum(s * c for s, c in self.batch_size_counts.items())
                / self.batches
                if self.batches
                else 0.0
            )
            gauge(
                "repro_serve_peak_queue_depth",
                "Peak requests pending when a worker claimed a batch, the "
                "batch's own included.",
            ).labels(**extra).set(self._queue_depth_peak)
            tier_requests = registry.counter(
                "repro_serve_tier_requests_total",
                "Per-tier requests by outcome.",
                labelnames=("tier", "outcome", *names),
            )
            tiers = (
                set(self.tier_submitted)
                | set(self.tier_completed)
                | set(self.tier_failed)
            )
            for tier in sorted(tiers):
                for outcome, source in (
                    ("submitted", self.tier_submitted),
                    ("completed", self.tier_completed),
                    ("failed", self.tier_failed),
                ):
                    tier_requests.labels(
                        tier=tier, outcome=outcome, **extra
                    ).inc(source[tier])
            quality = registry.counter(
                "repro_serve_quality_events_total",
                "SLO-degradation telemetry (downgraded requests and "
                "default-tier moves).",
                labelnames=("event", *names),
            )
            for event, value in (
                ("downgraded_requests", self.downgraded_requests),
                ("tier_downgrades", self.tier_downgrades),
                ("tier_upgrades", self.tier_upgrades),
            ):
                quality.labels(event=event, **extra).inc(value)
            registry.histogram(
                "repro_serve_fused_segments",
                "Distinct-session segments per dispatched batch "
                "(1 = unfused; counts, not seconds).",
                labelnames=names,
                buckets=(1, 2, 4, 8, 16, 32, 64),
            ).labels(**extra).observe_each(
                [
                    segs
                    for segs, count in sorted(
                        self.fused_segment_counts.items()
                    )
                    for _ in range(count)
                ]
            )
            registry.histogram(
                "repro_serve_request_latency_seconds",
                "End-to-end request latency (reservoir-sampled).",
                labelnames=names,
            ).labels(**extra).observe_each(self._latencies)
            registry.histogram(
                "repro_serve_queue_wait_seconds",
                "Submit-to-dispatch queue wait (reservoir-sampled).",
                labelnames=names,
            ).labels(**extra).observe_each(self._queue_waits)
            registry.histogram(
                "repro_serve_batch_service_seconds",
                "Backend service time per dispatched batch "
                "(reservoir-sampled).",
                labelnames=names,
            ).labels(**extra).observe_each(self._service_times)

    def reset(self) -> None:
        with self._lock:
            self.submitted = self.rejected = 0
            self.completed = self.failed = self.batches = 0
            self.dropped_samples = 0
            self.batch_size_counts.clear()
            self.fused_segment_counts.clear()
            self._latencies.clear()
            self._queue_waits.clear()
            self._service_times.clear()
            self._samples_seen = 0
            self._service_seen = 0
            self._queue_depth_sum = 0
            self._queue_depth_peak = 0
            self.tier_submitted.clear()
            self.tier_completed.clear()
            self.tier_failed.clear()
            self._tier_latencies.clear()
            self._tier_seen.clear()
            self.downgraded_requests = 0
            self.tier_downgrades = 0
            self.tier_upgrades = 0
            self._recent_latencies.clear()
