"""Worker pool that drains the batcher into backend dispatches.

Each worker loops: claim the next same-:class:`~repro.serve.request.BatchKey`
group from the :class:`~repro.serve.batcher.DynamicBatcher`, check out
the prepared backend of every session in the group from the
:class:`~repro.serve.sessions.KeyCacheManager`, run the whole group
under the entries' dispatch locks as **one kernel call** — one
:func:`~repro.core.backends.attend_many_ragged` over the per-session
segments, whether the group holds one session or several — and resolve
every request's future with its output row.  The scheduler holds the
server's tier → config map and passes the batch's config per call, so
one prepared artifact per session serves every tier, the exact tier
included.

Failures stay as narrow as they can be: a segment whose session is gone
or whose key width no longer matches its queries fails alone, and a
kernel failure resolves the batch's futures with the exception instead
of killing the worker, so one poisoned batch cannot take the server
down.
"""

from __future__ import annotations

import threading
from contextlib import ExitStack

import numpy as np

from repro.core.backends import attend_many_ragged
from repro.core.config import ApproximationConfig
from repro.errors import ShapeError
from repro.serve.batcher import DynamicBatcher
from repro.serve.observability import now
from repro.serve.request import AttentionRequest, resolve_request as _resolve
from repro.serve.sessions import KeyCacheManager, PreparedSession
from repro.serve.stats import ServerStats
from repro.serve.tracing import Tracer

__all__ = ["Scheduler"]


class Scheduler:
    """Threaded dispatch loop between the batcher and the backends.

    ``tier_configs`` maps each quality tier to the
    :class:`~repro.core.config.ApproximationConfig` its batches run at
    (``ServerConfig.tier_configs()``); a tier it does not name runs at
    the operating point the server's backends were built with.
    """

    def __init__(
        self,
        batcher: DynamicBatcher,
        cache: KeyCacheManager,
        stats: ServerStats,
        num_workers: int = 2,
        tracer: Tracer | None = None,
        tier_configs: dict[str, ApproximationConfig] | None = None,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.batcher = batcher
        self.cache = cache
        self.stats = stats
        self.num_workers = num_workers
        self.tracer = tracer if tracer is not None else Tracer()
        self.tier_configs = dict(tier_configs or {})
        self._threads: list[threading.Thread] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._threads:
            raise RuntimeError("scheduler already started")
        for i in range(self.num_workers):
            thread = threading.Thread(
                target=self._run, name=f"repro-serve-worker-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def join(self, timeout: float | None = None) -> None:
        """Wait for the workers to exit (call after closing the batcher).

        ``timeout`` bounds the whole join, not each thread."""
        deadline = None if timeout is None else now() + timeout
        for thread in self._threads:
            remaining = (
                None if deadline is None
                else max(0.0, deadline - now())
            )
            thread.join(remaining)
        self._threads = [t for t in self._threads if t.is_alive()]

    @property
    def running(self) -> bool:
        return any(t.is_alive() for t in self._threads)

    # ------------------------------------------------------------------
    # worker loop
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            batch = self.batcher.next_batch()
            if batch is None:
                return
            if batch:
                self.dispatch(batch)

    def dispatch(self, batch: list[AttentionRequest]) -> None:
        """Run one same-``BatchKey`` group as one
        :func:`~repro.core.backends.attend_many_ragged` call at the
        tier's config, synchronously.

        The batcher guarantees the group is single-tier.  Its requests
        split into per-session segments (sessions in first-appearance
        order, each segment's requests in arrival order, so the slab
        layout is deterministic).  Each segment is checked out on its
        own: a segment whose session is gone, or whose key width no
        longer matches its queries, fails alone with that error while
        the rest dispatch.  The live entries' locks are taken in
        sorted-session-id order (one global order, so concurrent
        multi-entry dispatches cannot deadlock against each other or
        against single-entry mutations).  Every segment's outputs are
        bit-identical to direct evaluation at its tier, whatever other
        sessions shared the batch."""
        dispatched_at = now()
        for request in batch:
            request.dispatched_at = dispatched_at
        tier = batch[0].tier
        d = batch[0].query.shape[0]
        segments: dict[str, list[AttentionRequest]] = {}
        for request in batch:
            segments.setdefault(request.session_id, []).append(request)
        kernel_started = kernel_ended = dispatched_at
        entries: dict[str, PreparedSession] = {}
        errors: dict[str, BaseException] = {}
        outputs: dict[str, np.ndarray] = {}
        try:
            for sid in segments:
                try:
                    entries[sid] = self.cache.checkout(sid)
                except Exception as exc:  # noqa: BLE001 — fails its segment
                    errors[sid] = exc
            with ExitStack() as stack:
                for sid in sorted(entries):
                    stack.enter_context(entries[sid].lock)
                live, keys, values = [], [], []
                for sid, entry in entries.items():
                    # One atomic (key, value) snapshot per session: a
                    # concurrent mutation swaps both together, so a pair
                    # can never be torn even when an entry is
                    # cold-prepared while a mutation lands.
                    key, value = entry.session.memory
                    if key.shape[1] != d:  # re-registered at a new width
                        errors[sid] = ShapeError(
                            f"session {sid!r} key width d={key.shape[1]} "
                            f"does not match query width d={d}"
                        )
                        continue
                    live.append(sid)
                    keys.append(key)
                    values.append(value)
                if live:
                    queries = np.stack(
                        [r.query for sid in live for r in segments[sid]]
                    )
                    offsets = [0]
                    for sid in live:
                        offsets.append(offsets[-1] + len(segments[sid]))
                    backends = [entries[sid].backend for sid in live]
                    kernel_started = now()
                    seg_outputs = attend_many_ragged(
                        backends, keys, values, queries, offsets,
                        config=self.tier_configs.get(tier),
                    )
                    kernel_ended = now()
                    outputs = dict(zip(live, seg_outputs))
        except BaseException as exc:  # noqa: BLE001 — forwarded to callers
            for sid in segments:
                errors.setdefault(sid, exc)
        finally:
            for entry in entries.values():
                self.cache.release(entry)
        done = now()
        completed = [r for sid in outputs for r in segments[sid]]
        # Record before resolving: a caller woken by its future must not
        # be able to read stats that don't include its own batch yet.
        self.stats.record_batch(
            queue_waits=[dispatched_at - r.enqueued_at for r in completed],
            latencies=[done - r.enqueued_at for r in completed],
            service_seconds=done - dispatched_at,
            queue_depth=batch[0].queue_depth,
            failed=len(batch) - len(completed),
            tier=tier,
            segments=len(segments),
        )
        for sid, requests in segments.items():
            if sid in outputs:
                for request, row in zip(requests, outputs[sid]):
                    _resolve(request, result=row)
            else:
                for request in requests:
                    _resolve(request, error=errors[sid])
        self._emit_spans(batch, kernel_started, kernel_ended,
                         len(segments), errors)

    def _emit_spans(
        self,
        batch: list[AttentionRequest],
        kernel_started: float,
        kernel_ended: float,
        fused_segments: int,
        errors: dict[str, BaseException],
    ) -> None:
        """Emit the per-stage child spans and finish the root span of
        every traced request in the batch.

        The stage boundaries are the request's own stamps (all taken
        from ``observability.now``), so the children are contiguous:
        their durations telescope exactly to the root span's duration.
        A request whose segment failed (``errors``, keyed by session id)
        gets only its root span, marked with the error type.  Runs
        after the futures resolve — span readout is telemetry, not part
        of the request's critical path.
        """
        tracer = self.tracer
        ended = now()
        batch_size = len(batch)
        for request in batch:
            span = request.span
            if span is None:
                continue
            error = errors.get(request.session_id)
            if error is not None:
                span.attrs["error"] = type(error).__name__
                tracer.record(span, ended_at=ended)
                continue
            tid, pid = span.trace_id, span.span_id
            admitted = request.admitted_at
            claimed = request.claimed_at
            dispatched = request.dispatched_at
            tracer.record_stage(
                "submit", trace_id=tid, parent_id=pid,
                started_at=span.started_at, ended_at=admitted,
            )
            tracer.record_stage(
                "queue", trace_id=tid, parent_id=pid,
                started_at=admitted, ended_at=claimed,
            )
            tracer.record_stage(
                "batch_formation", trace_id=tid, parent_id=pid,
                started_at=claimed, ended_at=dispatched,
                attrs={"fill_exit": request.fill_exit},
            )
            tracer.record_stage(
                "dispatch", trace_id=tid, parent_id=pid,
                started_at=dispatched, ended_at=kernel_started,
            )
            tracer.record_stage(
                "kernel", trace_id=tid, parent_id=pid,
                started_at=kernel_started, ended_at=kernel_ended,
                attrs={"batch_size": batch_size,
                       "segments": fused_segments},
            )
            tracer.record_stage(
                "resolve", trace_id=tid, parent_id=pid,
                started_at=kernel_ended, ended_at=ended,
            )
            span.attrs["batch_size"] = batch_size
            span.attrs["segments"] = fused_segments
            tracer.record(span, ended_at=ended)
