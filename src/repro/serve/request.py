"""Request objects and error types of the serving layer.

A request is one query against one registered session.  Its lifecycle:
``AttentionServer.submit`` stamps it with an id, an enqueue time, and a
:class:`BatchKey` and hands it to the
:class:`~repro.serve.batcher.DynamicBatcher`; a scheduler worker later
dispatches a whole fusion-compatible group — one session, or several
sessions fused under one cross-session key — as one kernel call and
resolves every request's future with its output row.  Timestamps are
kept at each hop so :class:`~repro.serve.stats.ServerStats` can split
latency into queue wait and service time.
"""

from __future__ import annotations

from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ReproError
from repro.serve.observability import now

if TYPE_CHECKING:
    from repro.serve.tracing import Span

__all__ = [
    "AttentionRequest",
    "BatchKey",
    "ServeError",
    "ServerClosedError",
    "ServerOverloadedError",
    "ShardError",
    "ShardUnavailableError",
    "UnknownSessionError",
    "resolve_request",
]


class ServeError(ReproError):
    """Base class for serving-layer failures."""


class ServerClosedError(ServeError):
    """The server is stopped (or stopping) and accepts no new requests."""


class ServerOverloadedError(ServeError):
    """Admission control rejected a request (queue full / wait timed out)."""


class UnknownSessionError(ServeError):
    """A request referenced a session id that was never registered."""


class ShardError(ServeError):
    """A shard replica failed a request for a *shard-level* reason.

    The base class is **fatal** from the retry path's point of view:
    an error the shard's own backend raised while actually processing
    the request (a poisoned batch, a protocol violation) would fail
    identically on any replica, so retrying it elsewhere just burns a
    healthy shard's time — the failover retry loop only ever retries
    :class:`ShardUnavailableError`.
    """


class ShardUnavailableError(ShardError):
    """The shard died or became unreachable before answering — retryable.

    Raised when the child process is gone, its connection broke, or a
    fault injector simulates either.  The request itself was never
    refused on its merits, so the cluster's request path may safely
    re-dispatch it to a surviving replica (the backends are
    deterministic: a retried read returns the bit-identical row).
    """


@dataclass(frozen=True)
class BatchKey:
    """Fusion-compatibility key under which the batcher groups requests.

    Two requests may share one dispatched batch exactly when their keys
    compare equal.  ``AttentionServer.submit`` stamps the
    *cross-session* key of tier and query width (``session_id``
    ``None``): any mix of sessions whose requests agree on both fuses
    into one ragged multi-key dispatch.  Nothing else needs comparing:
    within one server the tier fixes the approximation config, and
    every session's memory is float64
    (:func:`~repro.serve.sessions.validate_memory`).  A key naming one
    session is the batcher's default for a request built without a key
    (:attr:`AttentionRequest.group_key`).

    Attributes
    ----------
    tier:
        Quality tier of the dispatch — one of
        :data:`repro.core.config.TIERS`.  A batch is always a
        single-tier dispatch.
    session_id:
        The one session this key admits, or ``None`` for a
        cross-session fusable group.
    d:
        Query width of the requests this key admits — segments of one
        ragged dispatch share the query slab.  ``None`` only on the
        default per-session key of a request built without one.
    """

    tier: str
    session_id: str | None = None
    d: int | None = None

    @property
    def fused(self) -> bool:
        """Whether this key admits requests from multiple sessions."""
        return self.session_id is None


@dataclass(eq=False)  # identity semantics; ndarray fields break __eq__
class AttentionRequest:
    """One single-query attention request bound to a session.

    Attributes
    ----------
    session_id:
        The registered session whose key/value memory the query attends
        over; together with ``tier`` it forms the batcher's grouping key.
    query:
        ``(d,)`` float64 query vector.
    tier:
        Quality tier this request is dispatched at — one of
        :data:`repro.core.config.TIERS`.  Resolved at submission time:
        callers either pin a tier explicitly (``pinned=True``) or leave
        it to the server's current default, which an
        :class:`~repro.serve.controller.AdaptiveQualityController` may
        have degraded under load.  The resolved tier never changes once
        the request is admitted — a queued request is dispatched at the
        quality it was promised.
    pinned:
        Whether the caller named the tier explicitly.  Pinned requests
        are exempt from SLO-driven degradation by construction (the
        controller only moves the *default* used for unpinned traffic).
    request_id:
        Server-assigned monotonically increasing id (submission order).
    future:
        Resolves to the ``(d_v,)`` attended output row, or to the
        exception the dispatch raised.
    enqueued_at / admitted_at / claimed_at / dispatched_at:
        :func:`repro.serve.observability.now` stamps taken at
        submission, at admission into the batcher's queue (later than
        submission when the backpressure policy blocked), when a worker
        first takes the request into a forming batch, and at the moment
        the worker starts dispatching the batch that contains this
        request.  All four (and the scheduler's service timing) read the
        same clock, so queue-wait + service arithmetic and the trace
        span stages are consistent.  Latency telemetry is measured from
        ``enqueued_at`` so admission blocking shows up in the
        percentiles; the batcher's max-wait deadline runs from
        ``admitted_at``.
    fill_exit:
        Why the batch carrying this request left the batcher's fill
        loop — one of :data:`repro.serve.batcher.FILL_EXITS` — set when
        the batch is returned; the scheduler stamps it on the
        ``batch_formation`` trace span.
    queue_depth:
        Requests pending in the batcher (every group, this batch's own
        first members included) when a worker claimed the batch
        carrying this request; set with ``fill_exit``.  The scheduler
        records it as the batch's queue depth.
    span:
        The sampled root trace span covering this request, or ``None``
        when the request is untraced (the default).  Set by
        ``AttentionServer.submit``; the scheduler emits the per-stage
        child spans and finishes the root at resolve time.
    """

    session_id: str
    query: np.ndarray
    tier: str = "conservative"
    pinned: bool = False
    request_id: int = -1
    future: Future = field(default_factory=Future, repr=False)
    enqueued_at: float = field(default_factory=now)
    admitted_at: float | None = None
    claimed_at: float | None = None
    dispatched_at: float | None = None
    fill_exit: str | None = None
    queue_depth: int = 0
    span: "Span | None" = field(default=None, repr=False)
    batch_key: "BatchKey | None" = None

    @property
    def group_key(self) -> BatchKey:
        """The batcher's grouping key (a :class:`BatchKey`).

        ``AttentionServer.submit`` assigns ``batch_key`` at admission:
        the cross-session key of the request's tier and query width.
        The batcher itself is a generic grouping queue; a request
        constructed without a key (direct batcher use) defaults lazily
        to the per-session grouping.
        """
        key = self.batch_key
        if key is None:
            key = BatchKey(tier=self.tier, session_id=self.session_id)
            self.batch_key = key
        return key

    def result(self, timeout: float | None = None) -> np.ndarray:
        """Block until the attended output is available."""
        return self.future.result(timeout)


def resolve_request(
    request: AttentionRequest, result=None, error=None
) -> None:
    """Resolve a request's future **at most once**, tolerating races.

    Two resolvers can race on one future: a dispatching worker failing
    a poisoned batch while ``close(drain=True)``/``stop`` converts the
    remaining queue to rejects, or a caller cancelling after a result
    timeout.  Whichever side loses the ``done()`` check race hits
    ``InvalidStateError`` — swallowed here, so the first resolution
    stands and neither a worker thread nor ``stop()`` blows up.  Every
    path that resolves a request's future must go through this helper.
    """
    try:
        if not request.future.done():
            if error is not None:
                request.future.set_exception(error)
            else:
                request.future.set_result(result)
    except InvalidStateError:  # resolved/cancelled between check and set
        pass
