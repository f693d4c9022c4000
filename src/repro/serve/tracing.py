"""Per-request trace spans for the serving stack.

A sampled request produces a small span tree covering every stage of
its life::

    request                      (root; server.submit -> future resolved)
    ├── submit                   (validation, tier resolution, admission)
    ├── queue                    (admitted, waiting for a worker claim)
    ├── batch_formation          (claimed, the fill-up sweep window;
    │                             ``fill_exit`` says why it ended)
    ├── dispatch                 (cache checkout + query stacking)
    ├── kernel                   (the batch's one attend_many_ragged call)
    └── resolve                  (stats recording + future delivery)

All timestamps come from :func:`repro.serve.observability.now`, so the
stage spans are contiguous and their durations telescope exactly to
the root span's duration (the span-sum invariant pinned by the tests).
On a cluster, ``ShardedAttentionServer.attend_many`` adds a
``cluster_request -> rpc`` prefix above the shard's ``request`` span
and propagates a :class:`TraceContext` in the attend frame sent to a
spawn shard, so the shard-side spans parent under the cluster's ``rpc``
span by id.  Span ids are unique per process (pid + counter); span
*timestamps* are process-local and only durations are comparable
across the RPC boundary.

The :class:`Tracer` is cheap when disabled (``sample_rate=0``): the
request path performs one ``enabled`` check per submit.  Finished
spans land in a bounded in-memory buffer (drainable, exportable as
JSONL) and completed root spans additionally compete for a small
slowest-requests exemplar ring, so a long run always retains its worst
offenders even after the buffer wraps.
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
import random
import threading
from collections import deque
from dataclasses import dataclass, field

from repro.serve.observability import now

__all__ = [
    "Span",
    "TraceContext",
    "Tracer",
    "span_index",
    "span_roots",
    "stage_summary",
]

_counter = itertools.count(1)


def _new_id() -> str:
    """Span/trace ids unique across the processes of one serving run."""
    return f"{os.getpid():x}-{next(_counter):x}"


@dataclass(frozen=True)
class TraceContext:
    """The picklable trace coordinates shipped across the RPC boundary."""

    trace_id: str
    span_id: str


@dataclass
class Span:
    """One timed operation.  ``parent_id`` links the tree."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None = None
    started_at: float = field(default_factory=now)
    ended_at: float | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration_seconds(self) -> float:
        if self.ended_at is None:
            return 0.0
        return self.ended_at - self.started_at

    def context(self) -> TraceContext:
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "started_at": self.started_at,
            "ended_at": self.ended_at,
            "duration_seconds": self.duration_seconds,
            "pid": os.getpid(),
            "attrs": dict(self.attrs),
        }


class Tracer:
    """Sampled span recording with a bounded buffer and exemplar ring.

    Parameters
    ----------
    sample_rate:
        Fraction of root requests to trace, in ``[0, 1]``.  ``0``
        (default) disables tracing entirely.
    max_spans:
        Bound on the finished-span buffer; the oldest spans fall off
        (counted in ``dropped``) once it wraps.
    exemplar_capacity:
        Size of the slow-request exemplar ring: completed root spans
        compete by duration, so the slowest requests survive buffer
        wrap-around.
    seed:
        Seed of the sampling RNG (deterministic runs by default).
    """

    def __init__(
        self,
        sample_rate: float = 0.0,
        max_spans: int = 16384,
        exemplar_capacity: int = 16,
        seed: int = 0x5EED,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must lie in [0, 1], got {sample_rate}"
            )
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.sample_rate = float(sample_rate)
        self.exemplar_capacity = int(exemplar_capacity)
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._finished: deque[dict] = deque(maxlen=int(max_spans))
        self._exemplars: list[tuple[float, int, dict]] = []  # min-heap
        self._seq = 0
        self.dropped = 0

    @property
    def enabled(self) -> bool:
        return self.sample_rate > 0.0

    def sample(self) -> bool:
        """One sampling decision (used per root request)."""
        if self.sample_rate <= 0.0:
            return False
        if self.sample_rate >= 1.0:
            return True
        with self._lock:
            return self._rng.random() < self.sample_rate

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------
    def start_span(
        self,
        name: str,
        *,
        trace_id: str | None = None,
        parent_id: str | None = None,
        attrs: dict | None = None,
    ) -> Span:
        return Span(
            name=name,
            trace_id=trace_id if trace_id is not None else _new_id(),
            span_id=_new_id(),
            parent_id=parent_id,
            attrs=dict(attrs or {}),
        )

    def record(self, span: Span, ended_at: float | None = None) -> None:
        """Finish ``span`` and store it in the buffer (and, for root
        spans, the slow-request exemplar ring)."""
        span.ended_at = now() if ended_at is None else ended_at
        entry = span.to_dict()
        with self._lock:
            if len(self._finished) == self._finished.maxlen:
                self.dropped += 1
            self._finished.append(entry)
            if span.parent_id is None:
                self._seq += 1
                item = (entry["duration_seconds"], self._seq, entry)
                if len(self._exemplars) < self.exemplar_capacity:
                    heapq.heappush(self._exemplars, item)
                elif self._exemplars and item[0] > self._exemplars[0][0]:
                    heapq.heapreplace(self._exemplars, item)

    def absorb(self, spans) -> None:
        """Buffer span dicts finished elsewhere — a shard's drained
        spans — under this tracer's bound, so one :meth:`drain` returns
        them with the local ones."""
        spans = list(spans)
        with self._lock:
            self.dropped += max(
                0, len(self._finished) + len(spans) - self._finished.maxlen
            )
            self._finished.extend(spans)

    def record_stage(
        self,
        name: str,
        *,
        trace_id: str,
        parent_id: str,
        started_at: float,
        ended_at: float,
        attrs: dict | None = None,
    ) -> None:
        """Record an already-timed child span in one call (the scheduler
        emits the per-stage spans post hoc from request stamps)."""
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=_new_id(),
            parent_id=parent_id,
            started_at=started_at,
            attrs=dict(attrs or {}),
        )
        self.record(span, ended_at=ended_at)

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------
    def spans(self) -> list[dict]:
        with self._lock:
            return list(self._finished)

    def drain(self) -> list[dict]:
        """Return and clear the finished-span buffer (exemplars stay)."""
        with self._lock:
            out = list(self._finished)
            self._finished.clear()
            return out

    def exemplars(self) -> list[dict]:
        """The slowest completed root spans, slowest first."""
        with self._lock:
            ranked = sorted(self._exemplars, reverse=True)
        return [entry for _, _, entry in ranked]

    def export_jsonl(self, path, *, clear: bool = False) -> int:
        """Append every buffered span to ``path`` as JSON lines;
        returns the number written."""
        spans = self.drain() if clear else self.spans()
        with open(path, "a", encoding="utf-8") as fh:
            for entry in spans:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
        return len(spans)


# ----------------------------------------------------------------------
# offline helpers over exported span dicts
# ----------------------------------------------------------------------
def span_index(spans) -> dict[str, dict]:
    """``{span_id: span_dict}`` over an iterable of span dicts."""
    return {span["span_id"]: span for span in spans}


def span_roots(spans) -> list[dict]:
    """Spans whose parent is absent from the collection (tree roots),
    each annotated with a recursively attached ``children`` list."""
    spans = [dict(span) for span in spans]
    by_id = {span["span_id"]: span for span in spans}
    roots = []
    for span in spans:
        span.setdefault("children", [])
    for span in spans:
        parent = by_id.get(span["parent_id"]) if span["parent_id"] else None
        if parent is None:
            roots.append(span)
        else:
            parent["children"].append(span)
    for span in spans:
        span["children"].sort(key=lambda s: s["started_at"])
    return roots


def stage_summary(spans) -> dict[str, dict[str, float]]:
    """Per-stage latency aggregate over span dicts: ``{name: {count,
    total_seconds, mean_seconds, p95_seconds, max_seconds}}``."""
    grouped: dict[str, list[float]] = {}
    for span in spans:
        grouped.setdefault(span["name"], []).append(span["duration_seconds"])
    out = {}
    for name, durations in sorted(grouped.items()):
        durations.sort()
        count = len(durations)
        p95 = durations[min(count - 1, int(0.95 * count))]
        out[name] = {
            "count": count,
            "total_seconds": sum(durations),
            "mean_seconds": sum(durations) / count,
            "p95_seconds": p95,
            "max_seconds": durations[-1],
        }
    return out
