"""Deterministic shutdown semantics of the batcher/scheduler stack.

The contract under test: after ``stop`` returns, **every request that
was ever admitted has a resolved future** — served in drain mode,
``ServerClosedError`` in reject mode — and a ``submit`` racing with the
close either lands before it (and is handled with the rest of the
queue) or raises.  No outcome may depend on thread-join timing.
"""

import itertools
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    AttentionRequest,
    AttentionServer,
    BatchPolicy,
    DynamicBatcher,
    ServerClosedError,
    ServerConfig,
)
from repro.serve import scheduler as scheduler_mod

D = 12


def _server(max_batch=4, wait=0.002, workers=2):
    return AttentionServer(
        ServerConfig(
            batch=BatchPolicy(max_batch_size=max_batch, max_wait_seconds=wait),
            num_workers=workers,
        )
    )


def _register(server, session_id="a", n=32, seed=0):
    rng = np.random.default_rng(seed)
    server.register_session(
        session_id, rng.normal(size=(n, D)), rng.normal(size=(n, D))
    )


class TestBatcherClose:
    def test_reject_close_returns_queue_oldest_first(self):
        batcher = DynamicBatcher(BatchPolicy(max_wait_seconds=0.0))
        requests = [
            AttentionRequest(session_id=f"s{i % 2}", query=np.zeros(D))
            for i in range(5)
        ]
        for request in requests:
            batcher.submit(request)
        drained = batcher.close()
        assert drained == requests
        assert batcher.depth == 0
        assert batcher.next_batch() is None

    def test_drain_close_leaves_queue_for_workers(self):
        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=2, max_wait_seconds=10.0)
        )
        requests = [
            AttentionRequest(session_id="s", query=np.zeros(D))
            for _ in range(5)
        ]
        for request in requests:
            batcher.submit(request)
        assert batcher.close(drain=True) == []
        assert batcher.depth == 5
        # Workers drain the backlog in order — and the fill-up sweep
        # must not wait out max_wait on a closed queue.
        claimed = []
        while (batch := batcher.next_batch()) is not None:
            claimed.extend(batch)
        assert claimed == requests

    def test_second_close_converts_drain_to_reject(self):
        batcher = DynamicBatcher(BatchPolicy(max_wait_seconds=0.0))
        request = AttentionRequest(session_id="s", query=np.zeros(D))
        batcher.submit(request)
        assert batcher.close(drain=True) == []
        assert batcher.close() == [request]
        assert batcher.depth == 0


class TestServerStop:
    def test_drain_stop_serves_the_whole_backlog(self):
        server = _server(workers=1)
        _register(server)
        requests = [server.submit("a", np.zeros(D)) for _ in range(10)]
        server.start()
        server.stop(drain=True)
        for request in requests:
            assert request.result(10.0).shape == (D,)

    def test_drain_stop_on_never_started_server_rejects_backlog(self):
        """With no workers to drain into, drain mode must degrade to
        reject — never leave admitted futures dangling."""
        server = _server(workers=1)
        _register(server)
        requests = [server.submit("a", np.zeros(D)) for _ in range(3)]
        server.stop(timeout=1.0, drain=True)
        for request in requests:
            assert request.future.done()
            with pytest.raises(ServerClosedError):
                request.result(1.0)

    def test_reject_stop_fails_the_backlog(self):
        server = _server(workers=1)
        _register(server)
        # Never started: nothing can have been claimed by a worker.
        requests = [server.submit("a", np.zeros(D)) for _ in range(4)]
        server.stop(timeout=1.0)
        for request in requests:
            with pytest.raises(ServerClosedError):
                request.result(1.0)

    @pytest.mark.parametrize("drain", [False, True])
    def test_enqueue_during_close_never_leaves_a_dangling_future(
        self, drain
    ):
        """Threads hammer ``submit`` while another thread stops the
        server: every submit must either raise ``ServerClosedError`` or
        produce a future that resolves (a result, or in reject mode
        possibly ``ServerClosedError``) — deterministically, regardless
        of which side wins each race."""
        server = _server(max_batch=4, wait=0.001, workers=2)
        _register(server)
        server.start()
        admitted = []
        lock = threading.Lock()
        start_submitting = threading.Event()
        stop_now = threading.Event()

        def submitter(seed):
            rng = np.random.default_rng(seed)
            start_submitting.wait()
            for i in range(50):
                if i == 25:
                    stop_now.set()
                try:
                    request = server.submit("a", rng.normal(size=D))
                except ServerClosedError:
                    return  # deterministic refusal after the close
                with lock:
                    admitted.append(request)

        threads = [
            threading.Thread(target=submitter, args=(s,)) for s in range(4)
        ]
        for thread in threads:
            thread.start()
        start_submitting.set()
        stop_now.wait()
        server.stop(timeout=10.0, drain=drain)
        for thread in threads:
            thread.join()
        assert admitted, "no request was admitted before the close"
        resolved = 0
        for request in admitted:
            try:
                out = request.result(10.0)
            except ServerClosedError:
                assert not drain, (
                    "drain mode must serve every admitted request"
                )
            else:
                assert out.shape == (D,)
                resolved += 1
        if drain:
            assert resolved == len(admitted)
        # And in either mode, nothing is left pending.
        assert all(r.future.done() for r in admitted)

    def test_stop_returns_after_the_claimed_batch_resolves(
        self, monkeypatch
    ):
        """A zero stop budget converts the backlog at once, yet ``stop``
        returns only after the batch a worker is dispatching resolved:
        the budget bounds the backlog, never a claimed batch."""
        kernel = scheduler_mod.attend_many_ragged
        entered = threading.Event()

        def slow_kernel(*args, **kwargs):
            entered.set()
            time.sleep(0.2)  # still dispatching when the budget ends
            return kernel(*args, **kwargs)

        monkeypatch.setattr(scheduler_mod, "attend_many_ragged", slow_kernel)
        server = _server(max_batch=1, wait=0.0, workers=1)
        _register(server)
        requests = [server.submit("a", np.zeros(D)) for _ in range(3)]
        server.start()
        assert entered.wait(10.0)
        server.stop(timeout=0.0, drain=True)
        assert requests[0].result(0).shape == (D,)
        for request in requests[1:]:
            with pytest.raises(ServerClosedError):
                request.result(0)

    def test_submit_after_stop_raises_in_both_modes(self):
        for drain in (False, True):
            server = _server()
            _register(server)
            server.start()
            server.stop(drain=drain)
            with pytest.raises(ServerClosedError):
                server.submit("a", np.zeros(D))


def _count_resolutions(requests):
    """Instrument each request's future to count resolution attempts
    that actually landed (set_result/set_exception that didn't raise)."""
    counts = {id(r): 0 for r in requests}
    for request in requests:
        future = request.future
        orig_result, orig_exc = future.set_result, future.set_exception

        def set_result(value, _orig=orig_result, _r=request):
            _orig(value)
            counts[id(_r)] += 1

        def set_exception(exc, _orig=orig_exc, _r=request):
            _orig(exc)
            counts[id(_r)] += 1

        future.set_result = set_result
        future.set_exception = set_exception
    return counts


class TestPoisonedBatchResolution:
    """The exactly-once contract when failures race the close.

    A poisoned batch (kernel raising mid-drain) resolves its futures
    with the exception from the worker side, while ``stop`` converts
    whatever nobody claimed into rejects — and no matter how the two
    interleave, every admitted future resolves exactly once and the
    loser of any race never leaks ``InvalidStateError`` out of
    ``stop()`` or kills a worker.
    """

    @staticmethod
    def _poison(monkeypatch, healthy=0):
        """Make the scheduler's kernel fail every dispatch after the
        first ``healthy`` batches."""
        kernel = scheduler_mod.attend_many_ragged
        dispatched = itertools.count(1)

        def poisoned(*args, **kwargs):
            if next(dispatched) > healthy:
                raise RuntimeError("injected backend failure")
            return kernel(*args, **kwargs)

        monkeypatch.setattr(scheduler_mod, "attend_many_ragged", poisoned)

    def test_failing_backend_mid_drain_resolves_every_future_once(
        self, monkeypatch
    ):
        self._poison(monkeypatch, healthy=1)
        server = _server(max_batch=2, wait=0.001, workers=2)
        _register(server)
        # Queue the backlog before the workers exist, so the drain is
        # what dispatches it — the first batch succeeds, the rest hit
        # the injected failure mid-drain.
        requests = [server.submit("a", np.zeros(D)) for _ in range(12)]
        counts = _count_resolutions(requests)
        server.start()
        server.stop(timeout=10.0, drain=True)  # must not raise
        outcomes = {"ok": 0, "failed": 0}
        for request in requests:
            assert request.future.done()
            exc = request.future.exception(0)
            if exc is None:
                outcomes["ok"] += 1
            else:
                assert isinstance(exc, RuntimeError)
                outcomes["failed"] += 1
        assert outcomes["failed"] > 0, "injected failure never fired"
        assert all(count == 1 for count in counts.values())

    def test_stop_tolerates_already_resolved_futures(self):
        """Simulates the race where a worker (or caller) resolved a
        queued future between stop's done() check and its set: stop
        must not raise and must leave the first resolution standing."""
        server = _server(workers=1)
        _register(server)
        requests = [server.submit("a", np.zeros(D)) for _ in range(3)]
        requests[0].future.set_result(np.zeros(D))  # the racing winner
        requests[1].future.cancel()  # caller gave up waiting
        server.stop(timeout=1.0)  # never started: queue becomes rejects
        np.testing.assert_array_equal(requests[0].result(0), np.zeros(D))
        assert requests[1].future.cancelled()
        with pytest.raises(ServerClosedError):
            requests[2].result(0)

    def test_drain_timeout_conversion_races_worker_failures(
        self, monkeypatch
    ):
        """Drain with a zero stop budget while a poisoned worker is
        dispatching: the queue conversion and the worker's exception
        path race request by request; everything still resolves."""
        self._poison(monkeypatch)
        server = _server(max_batch=1, wait=0.0, workers=1)
        _register(server)
        requests = [server.submit("a", np.zeros(D)) for _ in range(20)]
        server.start()
        server.stop(timeout=0.0, drain=True)
        for request in requests:
            assert request.future.done()
            exc = request.future.exception(10.0)
            assert isinstance(exc, (RuntimeError, ServerClosedError))
