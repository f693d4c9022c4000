"""Dynamic request batching with admission control and backpressure.

Single-query requests arrive one at a time; the vectorized engine wants
them in batches sharing one key matrix *and* one approximation config.
:class:`DynamicBatcher` bridges the two with the classic max-batch-size
/ max-wait-time policy of batched inference servers: a worker claiming
work takes every queued request of the oldest request's
:class:`~repro.serve.request.BatchKey` group (up to ``max_batch_size``)
and, while the group is undersized and the oldest member is younger
than ``max_wait_seconds``, keeps sweeping newly arriving same-group
requests into it.  The wait is a ceiling, not a promise: the batcher
keeps each group's last few inter-arrival gaps, and an undersized group
whose median recent gap exceeds the time left dispatches at once —
holding a lone request for a batch that cannot form in time only adds
latency.  A group with no history yet holds as before (both pinned,
without sleeps, by the fake-clock tests in
``tests/serve/test_batcher.py``).  Each batch
records why its fill loop ended (:data:`FILL_EXITS`) on its requests'
``fill_exit`` and in :meth:`DynamicBatcher.fill_exits`.

Requests of *other* groups stay queued and are claimable by other
workers concurrently.  The batcher groups by whatever key a request
carries; a server stamps the cross-session key of tier and query width,
so equal-tier, equal-width traffic from many sessions fuses.  A group
is single-tier — within one server the tier fixes the approximation
config — and the scheduler runs it as one ragged kernel call, so
per-tier outputs stay bit-identical to direct evaluation at that
tier.

Admission is bounded: once ``max_queue_depth`` requests are pending, a
submit either raises :class:`~repro.serve.request.ServerOverloadedError`
immediately (``overload="reject"``) or blocks until the queue drains or
``submit_timeout_seconds`` expires (``overload="block"``) — the two
standard backpressure semantics, surfaced as an explicit policy knob.

**Wakeup invariant** (audited; pinned by the many-blocked-submitters
race test in ``tests/serve/test_batcher.py``): every event that can
unblock a waiting submitter — capacity released by a claim or a fill-up
sweep, and ``close()`` in either mode — broadcasts with
``notify_all``.  A single ``notify`` would wake exactly one of N
blocked submitters; the other N-1 would sleep through a close (until
their timeout) or miss a multi-slot release, so no wait in this file
may ever downgrade to ``notify``.
"""

from __future__ import annotations

import statistics
import threading
from collections import Counter, OrderedDict, deque
from dataclasses import dataclass
from itertools import pairwise

from repro.errors import ConfigError
from repro.serve.observability import now
from repro.serve.request import (
    AttentionRequest,
    BatchKey,
    ServerClosedError,
    ServerOverloadedError,
)

__all__ = ["FILL_EXITS", "BatchPolicy", "DynamicBatcher"]

_OVERLOAD_POLICIES = ("reject", "block")

#: Why a batch left the fill loop: it reached ``max_batch_size``; its
#: ``max_wait_seconds`` ran out; its group's median recent arrival gap
#: exceeded the time left; or the batcher closed.
FILL_EXITS = ("full", "deadline", "idle", "closed")

#: Inter-arrival gaps remembered per group.
_GAP_HISTORY = 8
#: Groups with an arrival history; the least recently arrived group is
#: forgotten first, so keys that stop arriving cannot pile up.
_HISTORY_GROUPS = 4096


@dataclass(frozen=True)
class BatchPolicy:
    """The batching and backpressure knobs of the serving layer.

    Attributes
    ----------
    max_batch_size:
        Hard cap on the number of requests dispatched in one kernel
        call (the total over its segments when sessions fuse).
    max_wait_seconds:
        The longest a claimed, undersized group may wait for more
        same-group arrivals, measured from the oldest member's
        admission.  A ceiling: the group stops waiting as soon as its
        median recent inter-arrival gap exceeds the time left, so
        sparse traffic dispatches at once; a group with no arrival
        history waits the full time.  ``0`` dispatches whatever is
        immediately available (pure opportunistic batching).
    max_queue_depth:
        Bound on pending (admitted, not yet dispatched) requests.
    overload:
        ``"reject"`` — a submit against a full queue raises
        :class:`ServerOverloadedError` at once; ``"block"`` — it waits
        for room, raising only after ``submit_timeout_seconds``.
    submit_timeout_seconds:
        Patience of a blocking submit; ``None`` waits forever.
    """

    max_batch_size: int = 64
    max_wait_seconds: float = 0.005
    max_queue_depth: int = 1024
    overload: str = "block"
    submit_timeout_seconds: float | None = 10.0

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ConfigError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_wait_seconds < 0:
            raise ConfigError(
                f"max_wait_seconds must be >= 0, got {self.max_wait_seconds}"
            )
        if self.max_queue_depth < 1:
            raise ConfigError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.overload not in _OVERLOAD_POLICIES:
            raise ConfigError(
                f"overload must be one of {_OVERLOAD_POLICIES}, "
                f"got {self.overload!r}"
            )


class DynamicBatcher:
    """Bounded request queue with same-:class:`BatchKey` group claiming.

    Requests are held in per-group FIFO deques; a worker claims the
    group whose oldest pending request is oldest overall, so dispatch
    order between groups is the global arrival order while claiming and
    fill-up sweeps stay O(batch) instead of rescanning the whole queue.
    Admission also records the group's inter-arrival gap (the last
    ``_GAP_HISTORY`` per group, for at most ``_HISTORY_GROUPS`` groups),
    which lets the fill loop see that no arrival can come in time.
    """

    def __init__(self, policy: BatchPolicy | None = None):
        self.policy = policy or BatchPolicy()
        self._by_group: dict[BatchKey, deque[AttentionRequest]] = {}
        self._claimed: set[BatchKey] = set()
        # Each group's last _GAP_HISTORY + 1 admission times, least
        # recently arrived group first.
        self._arrivals: OrderedDict[BatchKey, deque[float]] = OrderedDict()
        self._fill_exits: Counter[str] = Counter()
        self._depth = 0
        self._lock = threading.Lock()
        self._arrival = threading.Condition(self._lock)
        self._room = threading.Condition(self._lock)
        self._closed = False

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def submit(self, request: AttentionRequest) -> None:
        """Admit a request, applying the configured backpressure policy."""
        policy = self.policy
        deadline = (
            None
            if policy.submit_timeout_seconds is None
            else now() + policy.submit_timeout_seconds
        )
        with self._lock:
            while True:
                if self._closed:
                    raise ServerClosedError("server is not running")
                if self._depth < policy.max_queue_depth:
                    break
                if policy.overload == "reject":
                    raise ServerOverloadedError(
                        f"queue full ({policy.max_queue_depth} pending)"
                    )
                remaining = (
                    None if deadline is None else deadline - now()
                )
                if remaining is not None and remaining <= 0:
                    raise ServerOverloadedError(
                        "queue stayed full for "
                        f"{policy.submit_timeout_seconds:.3f}s"
                    )
                self._room.wait(remaining)
            admitted = request.admitted_at = now()
            group = request.group_key
            self._record_arrival(group, admitted)
            pending = self._by_group.get(group)
            if pending is None:
                pending = deque()
                self._by_group[group] = pending
            pending.append(request)
            self._depth += 1
            self._arrival.notify_all()

    def _record_arrival(self, group: BatchKey, at: float) -> None:
        """Add an admission to the group's arrival history (lock held)."""
        times = self._arrivals.get(group)
        if times is None:
            times = self._arrivals[group] = deque(maxlen=_GAP_HISTORY + 1)
            if len(self._arrivals) > _HISTORY_GROUPS:
                self._arrivals.popitem(last=False)
        else:
            self._arrivals.move_to_end(group)
        times.append(at)

    def _median_gap(self, group: BatchKey) -> float | None:
        """The group's median recent arrival gap, ``None`` without one."""
        times = self._arrivals.get(group, ())
        if len(times) < 2:
            return None
        return statistics.median(b - a for a, b in pairwise(times))

    @property
    def depth(self) -> int:
        with self._lock:
            return self._depth

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    def next_batch(self) -> list[AttentionRequest] | None:
        """Claim the next same-group batch, or ``None`` once closed.

        Blocks while no unclaimed group has work.  A group being filled
        by one worker is *claimed*: other workers leave its new
        arrivals to the filling worker (otherwise a second idle worker
        would steal them mid-wait and the max-wait policy could never
        form a full batch) and pick a different group or wait.  The
        fill loop ends when the batch is full, the group's max wait runs
        out, the group's median recent arrival gap exceeds the time
        left (``idle``), or the batcher closes; every returned request's
        ``fill_exit`` names which, and its ``queue_depth`` is the number
        of requests pending at the claim, the batch's own included.
        """
        policy = self.policy
        with self._lock:
            while True:
                if self._closed and self._depth == 0:
                    return None
                group = self._pick_group()
                if group is not None:
                    break
                if self._closed:
                    return None
                self._arrival.wait()
            self._claimed.add(group)
            oldest = self._by_group[group][0].admitted_at
            deadline = oldest + policy.max_wait_seconds
            depth = self._depth
            batch = self._take(group, policy.max_batch_size)
            # Capacity released: broadcast — any number of submitters
            # may be blocked and the batch may have freed many slots.
            self._room.notify_all()
            exit_reason = "full"
            try:
                while len(batch) < policy.max_batch_size:
                    if self._closed:
                        exit_reason = "closed"
                        break
                    remaining = deadline - now()
                    if remaining <= 0:
                        exit_reason = "deadline"
                        break
                    gap = self._median_gap(group)
                    if gap is not None and gap > remaining:
                        exit_reason = "idle"
                        break
                    self._arrival.wait(remaining)
                    more = self._take(
                        group, policy.max_batch_size - len(batch)
                    )
                    if more:
                        batch.extend(more)
                        self._room.notify_all()
            finally:
                self._claimed.discard(group)
                if self._by_group.get(group):
                    # Arrivals beyond this batch's cap are up for grabs.
                    self._arrival.notify_all()
            self._fill_exits[exit_reason] += 1
            for request in batch:
                request.fill_exit = exit_reason
                request.queue_depth = depth
            return batch

    def _pick_group(self) -> BatchKey | None:
        """The unclaimed group whose oldest pending request is oldest."""
        best = None
        best_age = None
        for group, pending in self._by_group.items():
            if group in self._claimed:
                continue
            age = pending[0].admitted_at
            if best_age is None or age < best_age:
                best, best_age = group, age
        return best

    def _take(
        self, group: BatchKey, limit: int
    ) -> list[AttentionRequest]:
        """Remove up to ``limit`` pending requests of one group (FIFO)."""
        taken: list[AttentionRequest] = []
        pending = self._by_group.get(group)
        if pending is None or limit <= 0:
            return taken
        claimed_at = now()
        while pending and len(taken) < limit:
            request = pending.popleft()
            request.claimed_at = claimed_at
            taken.append(request)
        if not pending:
            del self._by_group[group]
        self._depth -= len(taken)
        return taken

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def fill_exits(self) -> dict[str, int]:
        """Batches per fill-loop exit reason, every reason (zeros too)."""
        with self._lock:
            return {
                reason: self._fill_exits.get(reason, 0)
                for reason in FILL_EXITS
            }

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def close(self, drain: bool = False) -> list[AttentionRequest]:
        """Refuse new work; queued requests are rejected or left to drain.

        The two shutdown semantics, chosen explicitly instead of falling
        out of thread-join timing:

        * ``drain=False`` (reject) — queued requests are removed and
          returned (oldest first) for the caller to fail; workers see an
          empty closed queue and exit.
        * ``drain=True`` — queued requests stay; workers keep claiming
          batches until the queue is empty, then exit.  Returns ``[]``.
          Fill-up sweeps stop waiting once closed, so draining takes at
          most the backlog's dispatch time, never a max-wait stall.

        Either way, a ``submit`` racing with ``close`` is atomic with
        respect to it: the request is admitted just before the close
        (and thus drained or rejected like the rest of the queue) or it
        raises :class:`~repro.serve.request.ServerClosedError`.  Calling
        ``close`` again is allowed — a drain that must be cut short
        (worker died, stop budget exceeded) can be converted into a
        reject by a second ``close(drain=False)``.
        """
        with self._lock:
            self._closed = True
            if drain:
                drained = []
            else:
                drained = sorted(
                    (
                        r
                        for pending in self._by_group.values()
                        for r in pending
                    ),
                    key=lambda r: r.admitted_at,
                )
                self._by_group.clear()
                self._depth = 0
            # Broadcast on both conditions: every blocked consumer must
            # observe the close, and every blocked submitter must wake
            # to raise ServerClosedError instead of sleeping out its
            # timeout (notify would strand all but one of them).
            self._arrival.notify_all()
            self._room.notify_all()
        return drained
