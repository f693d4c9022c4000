"""Worker pool that drains the batcher into backend dispatches.

Each worker loops: claim the next same-:class:`~repro.serve.request.BatchKey`
group from the :class:`~repro.serve.batcher.DynamicBatcher`, check out
the prepared backend of every session in the group from the
:class:`~repro.serve.sessions.KeyCacheManager`, run the whole group
under the entries' dispatch locks — one ``attend_many`` for a
single-session group, one fused ``attend_many_ragged`` for a
cross-session group — and resolve every request's future with its
output row.  A dispatch failure resolves the whole group's futures with
the exception instead of killing the worker, so one poisoned batch
cannot take the server down.
"""

from __future__ import annotations

import threading
from contextlib import ExitStack

import numpy as np

from repro.core.backends import attend_many_ragged
from repro.serve.batcher import DynamicBatcher
from repro.serve.observability import now
from repro.serve.request import AttentionRequest, resolve_request as _resolve
from repro.serve.sessions import KeyCacheManager
from repro.serve.stats import ServerStats
from repro.serve.tracing import Tracer

__all__ = ["Scheduler"]


class Scheduler:
    """Threaded dispatch loop between the batcher and the backends."""

    def __init__(
        self,
        batcher: DynamicBatcher,
        cache: KeyCacheManager,
        stats: ServerStats,
        num_workers: int = 2,
        tracer: Tracer | None = None,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.batcher = batcher
        self.cache = cache
        self.stats = stats
        self.num_workers = num_workers
        self.tracer = tracer if tracer is not None else Tracer()
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
        """Run one same-``BatchKey`` group through the backend(s),
        synchronously.  The batcher guarantees the group is single-tier
        and single-config.  Every session entry of the group is checked
        out and its lock acquired in sorted-session-id order (one global
        order, so concurrent multi-entry dispatches cannot deadlock
        against each other or against single-entry mutations).  A group
        spanning several sessions whose backends resolve to a ragged
        plan runs one fused ``attend_many_ragged`` over the whole slab;
        otherwise — a single session, or segments that cannot fuse —
        each session's segment runs one ``attend_many`` through its
        tier's backend view.  Either way every segment's outputs are
        bit-identical to direct evaluation at its tier."""
        dispatched_at = now()
        for request in batch:
            request.dispatched_at = dispatched_at
        tier = batch[0].tier
        # Per-session segments.  Dict insertion order preserves the
        # first-appearance order of sessions, and each segment keeps its
        # requests in arrival order, so the slab layout is deterministic.
        segments: dict[str, list[AttentionRequest]] = {}
        for request in batch:
            segments.setdefault(request.session_id, []).append(request)
        session_ids = list(segments)
        ordered = [r for sid in session_ids for r in segments[sid]]
        queue_depth = self.batcher.depth
        kernel_started = dispatched_at
        kernel_ended = dispatched_at
        fused_segments = len(session_ids)
        entries: dict[str, object] = {}
        try:
            for sid in session_ids:
                entries[sid] = self.cache.checkout(sid)
            with ExitStack() as stack:
                for sid in sorted(session_ids):
                    stack.enter_context(entries[sid].lock)
                # One atomic (key, value) snapshot per session: a
                # concurrent mutation swaps both together, so a pair can
                # never be torn even when an entry is cold-prepared
                # while a mutation lands.
                memories = {
                    sid: entries[sid].session.memory for sid in session_ids
                }
                queries = np.stack([r.query for r in ordered])
                seg_offsets = np.cumsum(
                    [0] + [len(segments[sid]) for sid in session_ids]
                )
                keys = [memories[sid][0] for sid in session_ids]
                vals = [memories[sid][1] for sid in session_ids]
                plan = None
                if len(session_ids) > 1:
                    plan = self.cache.ragged_plan(
                        [entries[sid] for sid in session_ids], tier
                    )
                if plan is not None:
                    backends, cfg = plan
                    kernel_started = now()
                    seg_outputs = attend_many_ragged(
                        backends, keys, vals, queries, seg_offsets,
                        config=cfg,
                    )
                else:
                    # One session, or segments that cannot fuse
                    # (config-incompatible backends): per-session
                    # dispatches through each tier view under the same
                    # claim and locks.
                    views = [
                        self.cache.tier_backend(entries[sid], tier)
                        for sid in session_ids
                    ]
                    kernel_started = now()
                    seg_outputs = [
                        view.attend_many(
                            keys[s], vals[s],
                            queries[seg_offsets[s] : seg_offsets[s + 1]],
                        )
                        for s, view in enumerate(views)
                    ]
                kernel_ended = now()
                flat_outputs = [row for out in seg_outputs for row in out]
        except BaseException as exc:  # noqa: BLE001 — forwarded to callers
            service = now() - dispatched_at
            self._record(ordered, segments, dispatched_at, service,
                         queue_depth, failed=True, tier=tier)
            for request in batch:
                _resolve(request, error=exc)
            self._emit_spans(batch, kernel_started, kernel_ended,
                             fused_segments, error=exc)
            return
        finally:
            for entry in entries.values():
                self.cache.release(entry)
        done = now()
        service = done - dispatched_at
        # Record before resolving: a caller woken by its future must not
        # be able to read stats that don't include its own batch yet.
        self._record(ordered, segments, dispatched_at, service, queue_depth,
                     failed=False, done=done, tier=tier)
        for i, request in enumerate(ordered):
            _resolve(request, result=flat_outputs[i])
        self._emit_spans(batch, kernel_started, kernel_ended, fused_segments)

    def _record(
        self,
        ordered: list[AttentionRequest],
        segments: dict[str, list[AttentionRequest]],
        dispatched_at: float,
        service: float,
        queue_depth: int,
        failed: bool,
        done: float | None = None,
        tier: str | None = None,
    ) -> None:
        if done is None:
            done = now()
        session_ids = list(segments)
        self.stats.record_batch(
            session_id=session_ids[0],
            request_ids=[request.request_id for request in ordered],
            queue_waits=[
                dispatched_at - request.enqueued_at for request in ordered
            ],
            latencies=[done - request.enqueued_at for request in ordered],
            service_seconds=service,
            queue_depth=queue_depth,
            failed=failed,
            tier=tier,
            segments=[
                (sid, [r.request_id for r in segments[sid]])
                for sid in session_ids
            ],
        )

    def _emit_spans(
        self,
        batch: list[AttentionRequest],
        kernel_started: float,
        kernel_ended: float,
        fused_segments: int = 1,
        error: BaseException | None = None,
    ) -> None:
        """Emit the per-stage child spans and finish the root span of
        every traced request in the batch.

        The stage boundaries are the request's own stamps (all taken
        from ``observability.now``), so the children are contiguous:
        their durations telescope exactly to the root span's duration.
        Runs after the futures resolve — span readout is telemetry, not
        part of the request's critical path.
        """
        tracer = self.tracer
        ended = now()
        batch_size = len(batch)
        for request in batch:
            span = request.span
            if span is None:
                continue
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
