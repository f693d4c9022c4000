"""Unit tests for the dynamic batcher: grouping, waiting, backpressure."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.serve import (
    AttentionRequest,
    BatchPolicy,
    DynamicBatcher,
    ServerClosedError,
    ServerOverloadedError,
)
from repro.serve import batcher as batcher_module


def _request(session_id="s", d=4, tier="conservative"):
    return AttentionRequest(session_id=session_id, query=np.zeros(d), tier=tier)


class TestPolicyValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            BatchPolicy(max_batch_size=0)
        with pytest.raises(ConfigError):
            BatchPolicy(max_wait_seconds=-1.0)
        with pytest.raises(ConfigError):
            BatchPolicy(max_queue_depth=0)
        with pytest.raises(ConfigError):
            BatchPolicy(overload="panic")


class TestGrouping:
    def test_same_session_requests_batch_together(self):
        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=8, max_wait_seconds=0.0)
        )
        requests = [_request() for _ in range(5)]
        for request in requests:
            batcher.submit(request)
        batch = batcher.next_batch()
        assert batch == requests
        assert batcher.depth == 0

    def test_batch_capped_at_max_batch_size(self):
        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=3, max_wait_seconds=0.0)
        )
        for _ in range(7):
            batcher.submit(_request())
        assert len(batcher.next_batch()) == 3
        assert len(batcher.next_batch()) == 3
        assert len(batcher.next_batch()) == 1

    def test_sessions_never_mix_and_fifo_between_groups(self):
        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=8, max_wait_seconds=0.0)
        )
        a1, b1, a2, b2 = (
            _request("a"), _request("b"), _request("a"), _request("b"),
        )
        for request in (a1, b1, a2, b2):
            batcher.submit(request)
        first = batcher.next_batch()
        second = batcher.next_batch()
        assert first == [a1, a2]  # head session, both its requests
        assert second == [b1, b2]

    def test_wait_sweeps_late_arrivals_of_head_session(self):
        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=4, max_wait_seconds=0.5)
        )
        early = _request("a")
        batcher.submit(early)
        late = _request("a")

        def submit_late():
            time.sleep(0.05)
            batcher.submit(late)

        thread = threading.Thread(target=submit_late)
        thread.start()
        batch = batcher.next_batch()
        thread.join()
        assert batch == [early, late]

    def test_full_batch_dispatches_before_deadline(self):
        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=2, max_wait_seconds=60.0)
        )
        batcher.submit(_request())
        batcher.submit(_request())
        started = time.monotonic()
        batch = batcher.next_batch()
        assert len(batch) == 2
        assert time.monotonic() - started < 1.0  # did not sit out the wait

    def test_second_worker_does_not_steal_claimed_session(self):
        """While one worker fills a claimed session's batch, an idle
        second worker must leave new same-session arrivals to it —
        otherwise the max-wait policy can never form full batches."""
        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=4, max_wait_seconds=2.0)
        )
        results = []

        def consume():
            results.append(batcher.next_batch())

        batcher.submit(_request())
        workers = [threading.Thread(target=consume) for _ in range(2)]
        for worker in workers:
            worker.start()
        time.sleep(0.05)  # one worker claims; the other must idle
        for _ in range(3):
            batcher.submit(_request())
            time.sleep(0.02)
        # The filling worker completes its batch of 4; the idle worker
        # only returns once the batcher closes.
        deadline = time.monotonic() + 5.0
        while len(results) < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        batcher.close()
        for worker in workers:
            worker.join(5.0)
        batches = [r for r in results if r is not None and r != []]
        assert len(batches) == 1
        assert len(batches[0]) == 4

    def test_zero_wait_dispatches_partial_batch(self):
        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=64, max_wait_seconds=0.0)
        )
        batcher.submit(_request())
        assert len(batcher.next_batch()) == 1


class TestTierGrouping:
    def test_tiers_never_mix_within_a_session(self):
        """One session at two tiers forms two groups: a dispatched
        batch must stay single-config so per-tier outputs remain
        bit-identical to direct evaluation at that tier."""
        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=8, max_wait_seconds=0.0)
        )
        e1, a1, e2, a2 = (
            _request(tier="exact"),
            _request(tier="aggressive"),
            _request(tier="exact"),
            _request(tier="aggressive"),
        )
        for request in (e1, a1, e2, a2):
            batcher.submit(request)
        first = batcher.next_batch()
        second = batcher.next_batch()
        assert first == [e1, e2]  # head group: both its requests, FIFO
        assert second == [a1, a2]
        assert {r.tier for r in first} == {"exact"}
        assert {r.tier for r in second} == {"aggressive"}

    def test_same_tier_across_sessions_never_mixes_either(self):
        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=8, max_wait_seconds=0.0)
        )
        a = _request("a", tier="exact")
        b = _request("b", tier="exact")
        batcher.submit(a)
        batcher.submit(b)
        assert batcher.next_batch() == [a]
        assert batcher.next_batch() == [b]


class _FakeClock:
    """Stands in for ``repro.serve.batcher.now``: it moves only when a
    test sets ``t``.  ``read_by_worker`` is set once any thread other
    than the test's reads it — inside ``next_batch`` that first read is
    the claim, made while the worker holds the batcher's lock."""

    def __init__(self):
        self.t = 0.0
        self.read_by_worker = threading.Event()

    def __call__(self):
        if threading.current_thread() is not threading.main_thread():
            self.read_by_worker.set()
        return self.t


class TestIdleDispatch:
    """The fill loop stops waiting once a group's median recent arrival
    gap exceeds the time left.  The batcher reads a fake clock that
    never moves on its own, so under a plain max-wait hold an undersized
    group would never reach its deadline: each test either returns at
    once or is ended by the test itself."""

    @pytest.fixture
    def clock(self, monkeypatch):
        clock = _FakeClock()
        monkeypatch.setattr(batcher_module, "now", clock)
        return clock

    @staticmethod
    def _claim_in_thread(batcher):
        box = []
        thread = threading.Thread(
            target=lambda: box.append(batcher.next_batch()), daemon=True
        )
        thread.start()
        return thread, box

    @pytest.mark.parametrize(
        "max_wait, waited",
        [(0.005, 0.0), (60.0, 59.97)],
        ids=["just-arrived", "nearly-expired"],
    )
    def test_group_with_sparse_history_dispatches_at_once(
        self, clock, max_wait, waited
    ):
        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=4, max_wait_seconds=max_wait)
        )
        full = []
        for k in range(4):  # four arrivals 40 ms apart: a full batch
            clock.t = 0.04 * k
            full.append(_request())
            batcher.submit(full[-1])
        assert batcher.next_batch() == full
        clock.t = 0.16  # one more after the same gap, then it waits
        lone = _request()
        batcher.submit(lone)
        clock.t += waited  # 5 ms resp. 30 ms left, a 40 ms median gap
        started = time.monotonic()
        thread, box = self._claim_in_thread(batcher)
        thread.join(1.0)
        try:
            assert not thread.is_alive(), "held a lone request"
            assert time.monotonic() - started < 1.0
        finally:
            batcher.close()
            thread.join(1.0)
        assert box == [[lone]]
        assert [r.fill_exit for r in full + [lone]] == ["full"] * 4 + ["idle"]
        assert batcher.fill_exits() == {
            "full": 1, "deadline": 0, "idle": 1, "closed": 0,
        }

    def test_group_without_history_holds(self, clock):
        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=8, max_wait_seconds=60.0)
        )
        first = _request()
        batcher.submit(first)
        thread, box = self._claim_in_thread(batcher)
        assert clock.read_by_worker.wait(5.0)  # the worker has claimed
        # The worker holds the lock from its claim until it waits (hold)
        # or returns (dispatch), so this submit lands after one of them.
        second = _request()
        batcher.submit(second)
        batcher.close(drain=True)  # end the hold; keeps what was swept
        thread.join(5.0)
        assert not thread.is_alive()
        assert box == [[first, second]]
        assert {r.fill_exit for r in box[0]} == {"closed"}
        assert batcher.fill_exits()["closed"] == 1

    def test_full_batch_and_deadline_are_reported(self, clock):
        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=2, max_wait_seconds=0.0)
        )
        for _ in range(3):
            batcher.submit(_request())
        assert {r.fill_exit for r in batcher.next_batch()} == {"full"}
        assert {r.fill_exit for r in batcher.next_batch()} == {"deadline"}
        assert batcher.fill_exits() == {
            "full": 1, "deadline": 1, "idle": 0, "closed": 0,
        }

    def test_arrival_history_stays_bounded(self, clock):
        cap = batcher_module._HISTORY_GROUPS
        batcher = DynamicBatcher(BatchPolicy(max_queue_depth=10_000))
        for i in range(10_000):
            clock.t = 0.001 * i
            batcher.submit(_request(f"session-{i}"))
        history = batcher._arrivals
        assert len(history) <= cap
        # The least recently arrived groups are the ones forgotten.
        assert [key.session_id for key in history][-1] == "session-9999"
        assert all(int(key.session_id.split("-")[1]) >= 10_000 - cap
                   for key in history)


class TestConcurrentBookkeeping:
    def test_every_request_and_batch_is_counted_once(self):
        """More submitters and workers than cores, switching threads
        every 10 us: each admitted request leaves in exactly one batch,
        and each batch is counted once, under the reason its requests
        carry."""
        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=4, max_wait_seconds=0.001)
        )
        batches = []
        lock = threading.Lock()

        def work():
            while (batch := batcher.next_batch()) is not None:
                with lock:
                    batches.append(batch)

        def submit(s):
            for _ in range(200):
                batcher.submit(_request(f"s{s % 3}"))

        workers = [threading.Thread(target=work) for _ in range(4)]
        submitters = [
            threading.Thread(target=submit, args=(s,)) for s in range(6)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in workers + submitters:
                thread.start()
            for thread in submitters:
                thread.join(30.0)
            batcher.close(drain=True)
            for thread in workers:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers + submitters)
        taken = [r for batch in batches for r in batch]
        assert len(taken) == len({id(r) for r in taken}) == 6 * 200
        reasons = [{r.fill_exit for r in batch} for batch in batches]
        assert all(len(reason) == 1 for reason in reasons)
        exits = batcher.fill_exits()
        for reason, count in exits.items():
            assert count == reasons.count({reason})
        assert sum(exits.values()) == len(batches)


class TestBlockedSubmitterWakeups:
    """The wakeup-broadcast invariant (see the module docstring of
    ``repro.serve.batcher``): close() and every capacity release must
    wake *all* blocked submitters.  Both tests hold many submitters
    blocked on a full queue and fail under a ``notify()`` (single
    wakeup) variant — the stranded submitters would sleep through the
    whole scenario until their 30 s timeout."""

    N_BLOCKED = 8

    def _blocked_submitters(self, batcher, outcomes):
        def blocked_submit(i):
            try:
                batcher.submit(_request())
                outcomes[i] = "admitted"
            except ServerClosedError:
                outcomes[i] = "closed"
            except ServerOverloadedError:
                outcomes[i] = "timeout"

        threads = [
            threading.Thread(target=blocked_submit, args=(i,))
            for i in range(self.N_BLOCKED)
        ]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 5.0
        while batcher.depth < batcher.policy.max_queue_depth and (
            time.monotonic() < deadline
        ):
            time.sleep(0.005)
        time.sleep(0.05)  # let every remaining submitter block on _room
        return threads

    def test_close_wakes_every_blocked_submitter(self):
        """All blocked submitters must observe close() promptly and
        raise ServerClosedError — none may sleep out its timeout."""
        batcher = DynamicBatcher(
            BatchPolicy(
                max_queue_depth=1,
                overload="block",
                submit_timeout_seconds=30.0,
            )
        )
        batcher.submit(_request())  # fill the queue
        outcomes = [None] * self.N_BLOCKED
        threads = self._blocked_submitters(batcher, outcomes)
        batcher.close()
        started = time.monotonic()
        for thread in threads:
            thread.join(2.0)
        assert time.monotonic() - started < 2.0 * self.N_BLOCKED
        assert not any(thread.is_alive() for thread in threads)
        assert outcomes == ["closed"] * self.N_BLOCKED

    def test_capacity_release_wakes_every_blocked_submitter(self):
        """A claim frees several slots at once: every blocked submitter
        must get a chance at the freed capacity, not just one."""
        depth = 4
        batcher = DynamicBatcher(
            BatchPolicy(
                max_batch_size=depth,
                max_wait_seconds=0.0,
                max_queue_depth=depth,
                overload="block",
                submit_timeout_seconds=30.0,
            )
        )
        for _ in range(depth):
            batcher.submit(_request())
        outcomes = [None] * self.N_BLOCKED
        threads = self._blocked_submitters(batcher, outcomes)
        # Exactly two claims, each releasing 4 slots.  Broadcast wakes
        # every blocked submitter per release, so the 8 drain in two
        # waves; a single-notify variant admits one submitter per claim
        # (an admitting submitter wakes nobody else) and strands six.
        assert len(batcher.next_batch()) == depth
        deadline = time.monotonic() + 2.0
        while batcher.depth < depth and time.monotonic() < deadline:
            time.sleep(0.005)  # first wave refills the queue
        assert len(batcher.next_batch()) == depth
        for thread in threads:
            thread.join(2.0)
        assert not any(thread.is_alive() for thread in threads)
        assert outcomes == ["admitted"] * self.N_BLOCKED
        assert batcher.depth == depth  # the second wave's requests


class TestBackpressure:
    def test_reject_policy_raises_when_full(self):
        batcher = DynamicBatcher(
            BatchPolicy(max_queue_depth=2, overload="reject")
        )
        batcher.submit(_request())
        batcher.submit(_request())
        with pytest.raises(ServerOverloadedError):
            batcher.submit(_request())
        assert batcher.depth == 2  # the rejected request was not admitted

    def test_block_policy_waits_for_room(self):
        batcher = DynamicBatcher(
            BatchPolicy(
                max_queue_depth=1,
                max_batch_size=1,
                max_wait_seconds=0.0,
                overload="block",
                submit_timeout_seconds=5.0,
            )
        )
        batcher.submit(_request())
        unblocked = threading.Event()

        def blocked_submit():
            batcher.submit(_request())
            unblocked.set()

        thread = threading.Thread(target=blocked_submit)
        thread.start()
        assert not unblocked.wait(0.1)  # still blocked: queue is full
        batcher.next_batch()  # drain one → room
        assert unblocked.wait(2.0)
        thread.join()

    def test_block_policy_times_out(self):
        batcher = DynamicBatcher(
            BatchPolicy(
                max_queue_depth=1,
                overload="block",
                submit_timeout_seconds=0.05,
            )
        )
        batcher.submit(_request())
        with pytest.raises(ServerOverloadedError):
            batcher.submit(_request())
        assert batcher.depth == 1


class TestShutdown:
    def test_close_unblocks_consumer_with_none(self):
        batcher = DynamicBatcher()
        result = []

        def consume():
            result.append(batcher.next_batch())

        thread = threading.Thread(target=consume)
        thread.start()
        time.sleep(0.05)
        batcher.close()
        thread.join(2.0)
        assert result == [None]

    def test_close_drains_pending_and_refuses_new(self):
        batcher = DynamicBatcher()
        pending = _request()
        batcher.submit(pending)
        drained = batcher.close()
        assert drained == [pending]
        with pytest.raises(ServerClosedError):
            batcher.submit(_request())
