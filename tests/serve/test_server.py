"""Integration tests for the attention server facade.

The load-bearing test is the bit-identity one: whatever groups the
dynamic batcher forms under concurrent load, replaying each recorded
group through a freshly prepared backend with ``attend_many`` must
reproduce every served response bit for bit — the serving layer may
reorder and regroup, but it must never change a result.
"""

import threading

import numpy as np
import pytest

from repro.core import approximate as approximate_mod
from repro.core import backends as backends_mod
from repro.core.backends import ApproximateBackend
from repro.core.config import TIERS, conservative
from repro.errors import ConfigError, ShapeError
from repro.serve import (
    AttentionServer,
    BatchPolicy,
    ServedBackend,
    ServerClosedError,
    ServerConfig,
    ServerOverloadedError,
    UnknownSessionError,
)
from repro.serve import scheduler as scheduler_mod


def _server(max_batch=8, wait=0.01, workers=2, **kw):
    return AttentionServer(
        ServerConfig(
            batch=BatchPolicy(max_batch_size=max_batch, max_wait_seconds=wait),
            num_workers=workers,
            **kw,
        )
    )


def _register(server, session_id, n=48, d=12, seed=0):
    rng = np.random.default_rng(seed)
    key = rng.normal(size=(n, d))
    value = rng.normal(size=(n, d))
    server.register_session(session_id, key, value)
    return key, value


class TestLifecycle:
    def test_context_manager_starts_and_stops(self):
        server = _server()
        _register(server, "a")
        with server as running:
            assert running.running
            out = running.attend("a", np.zeros(12))
            assert out.shape == (12,)
        assert not server.running

    def test_submit_after_stop_raises(self):
        server = _server()
        _register(server, "a")
        with server:
            pass
        with pytest.raises(ServerClosedError):
            server.submit("a", np.zeros(12))

    def test_stop_fails_queued_requests(self):
        server = _server()
        _register(server, "a")
        # Never started: the queued request cannot be dispatched.
        request = server.submit("a", np.zeros(12))
        server.stop(timeout=1.0)
        with pytest.raises(ServerClosedError):
            request.result(1.0)

    def test_unknown_session_rejected_at_submit(self):
        server = _server()
        with server:
            with pytest.raises(UnknownSessionError):
                server.submit("ghost", np.zeros(12))

    def test_bad_query_shape_rejected_at_submit(self):
        server = _server()
        _register(server, "a", d=12)
        with server:
            with pytest.raises(ShapeError):
                server.submit("a", np.zeros(5))


class TestBitIdentity:
    """Serve-path responses == direct ``attend_many`` on the same queries."""

    def _replay_and_compare(
        self, log, server, sessions, outputs, queries_by_id
    ):
        """Replay every logged batch directly and compare bitwise."""
        assert log, "no batches were dispatched"
        replayed = 0
        for session_id, request_ids, tier in log:
            key, value = sessions[session_id]
            direct_backend = ApproximateBackend(
                server.config.tier_configs()[tier], engine="vectorized"
            )
            direct_backend.prepare(key)
            batch_queries = np.stack(
                [queries_by_id[rid] for rid in request_ids]
            )
            direct = direct_backend.attend_many(key, value, batch_queries)
            for row, rid in enumerate(request_ids):
                np.testing.assert_array_equal(direct[row], outputs[rid])
                replayed += 1
        assert replayed == len(outputs)

    def test_single_full_batch_bit_identical(self, batch_log):
        """Deterministic grouping: queue 8 requests before starting a
        one-worker server → exactly one batch in submission order."""
        server = _server(max_batch=8, wait=0.0, workers=1)
        key, value = _register(server, "a")
        rng = np.random.default_rng(7)
        queries = rng.normal(size=(8, 12))
        requests = [server.submit("a", q) for q in queries]
        with server:
            outputs = {r.request_id: r.result(10.0) for r in requests}
        assert [len(ids) for _, ids, _ in batch_log(server)] == [8]
        self._replay_and_compare(
            batch_log(server),
            server,
            {"a": (key, value)},
            outputs,
            {r.request_id: q for r, q in zip(requests, queries)},
        )

    def test_concurrent_load_bit_identical(self, batch_log):
        """Nondeterministic grouping under threaded load across two
        sessions: every recorded batch replays bit-identically."""
        server = _server(max_batch=4, wait=0.005, workers=2)
        sessions = {
            "a": _register(server, "a", seed=1),
            "b": _register(server, "b", seed=2),
        }
        rng = np.random.default_rng(3)
        per_thread = 6
        queries_by_id = {}
        outputs = {}
        lock = threading.Lock()

        def fire(session_id, thread_queries):
            for query in thread_queries:
                request = server.submit(session_id, query)
                result = request.result(10.0)
                with lock:
                    queries_by_id[request.request_id] = query
                    outputs[request.request_id] = result

        with server:
            threads = [
                threading.Thread(
                    target=fire,
                    args=(sid, rng.normal(size=(per_thread, 12))),
                )
                for sid in ("a", "b", "a", "b")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert len(outputs) == 4 * per_thread
        self._replay_and_compare(
            batch_log(server), server, sessions, outputs, queries_by_id
        )

    def test_served_backend_matches_direct_backend(self, batch_log):
        """The protocol adapter returns the same rows a direct backend
        produces for the same queries (same engine, same key).  The
        caller batch fits one server batch, so the grouping — and
        therefore the output — is bit-identical; the lone ``attend``
        rides a batch of one, whose GEMM shape differs, so it is only
        roundoff-identical (see the batched-pipeline docstring)."""
        server = _server(max_batch=8, wait=0.1, workers=1)
        key, value = _register(server, "a")
        rng = np.random.default_rng(11)
        queries = rng.normal(size=(5, 12))
        direct = ApproximateBackend(conservative(), engine="vectorized")
        direct.prepare(key)
        with server:
            served = ServedBackend(server, "a")
            served.prepare(key)
            got = served.attend_many(key, value, queries)
            one = served.attend(key, value, queries[0])
        assert [len(ids) for _, ids, _ in batch_log(server)][0] == 5
        np.testing.assert_array_equal(
            got, direct.attend_many(key, value, queries)
        )
        np.testing.assert_allclose(one, got[0], atol=1e-12)


class TestBackpressureAndErrors:
    def test_reject_policy_surfaces_overload(self):
        server = AttentionServer(
            ServerConfig(
                batch=BatchPolicy(
                    max_batch_size=4,
                    max_queue_depth=2,
                    overload="reject",
                ),
                num_workers=1,
            )
        )
        _register(server, "a")
        # Not started: the queue can only fill.
        server.submit("a", np.zeros(12))
        server.submit("a", np.zeros(12))
        with pytest.raises(ServerOverloadedError):
            server.submit("a", np.zeros(12))
        assert server.stats.rejected == 1
        assert server.stats.submitted == 2
        server.stop(timeout=1.0)

    def test_dispatch_failure_resolves_futures_with_exception(
        self, monkeypatch
    ):
        def exploding_kernel(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(
            scheduler_mod, "attend_many_ragged", exploding_kernel
        )
        server = _server(max_batch=4, wait=0.0, workers=1)
        _register(server, "a")
        with server:
            request = server.submit("a", np.zeros(12))
            with pytest.raises(RuntimeError, match="boom"):
                request.result(5.0)
            # The worker must survive the poisoned batch and keep serving.
            assert server.scheduler.running
        assert server.stats.failed == 1

    def test_cancelled_future_does_not_kill_worker(self):
        """A caller cancelling its future must not crash the dispatch
        loop or starve the rest of the batch."""
        server = _server(max_batch=4, wait=0.05, workers=1)
        _register(server, "a")
        first = server.submit("a", np.zeros(12))
        second = server.submit("a", np.zeros(12))
        assert first.future.cancel()
        with server:
            out = second.result(10.0)  # same batch as the cancelled one
            assert out.shape == (12,)
            # The worker survived and keeps serving new requests.
            assert server.attend("a", np.ones(12)).shape == (12,)
            assert server.scheduler.running

    def test_served_backend_checks_key_and_value_shapes(self):
        server = _server()
        key, value = _register(server, "a")
        with server:
            backend = ServedBackend(server, "a")
            with pytest.raises(ConfigError):
                backend.attend(key[:10], value, np.zeros(12))
            with pytest.raises(ConfigError):
                backend.attend(key, value[:10], np.zeros(12))

    def test_served_backend_content_guard(self):
        server = _server()
        key, value = _register(server, "a")
        with server:
            backend = ServedBackend(server, "a", verify_content=True)
            backend.prepare(key)  # matching content passes
            with pytest.raises(ConfigError):
                backend.prepare(key + 1.0)


class TestTelemetryIntegration:
    def test_snapshot_reflects_served_traffic(self):
        server = _server(max_batch=4, wait=0.002)
        _register(server, "a", seed=1)
        _register(server, "b", seed=2)
        rng = np.random.default_rng(4)
        with server:
            for _ in range(6):
                server.attend("a", rng.normal(size=12))
                server.attend("b", rng.normal(size=12))
        snapshot = server.snapshot()
        assert snapshot["completed"] == 12
        assert snapshot["submitted"] == 12
        assert snapshot["batches"] >= 2
        assert snapshot["cache"]["misses"] == 2  # one prepare per session
        assert snapshot["cache"]["hits"] == snapshot["batches"] - 2
        assert snapshot["selection"]["calls"] == 12
        assert snapshot["latency_seconds"]["p99"] > 0.0

    def test_closed_loop_clients_batch_and_complete_per_tier(self):
        """16 closed-loop clients per tier, four requests each, against
        a batch cap of 16 and a wait long enough for every client of a
        tier to arrive: each round of a tier dispatches as one full
        batch, every request completes, none is rejected, and the
        per-tier books count each request once."""
        server = _server(max_batch=16, wait=5.0, workers=1)
        _register(server, "a", seed=1)
        clients, rounds = 16, 4
        start = threading.Barrier(clients * len(TIERS))
        errors = []

        def client(tier, seed):
            rng = np.random.default_rng(seed)
            start.wait()
            try:
                for _ in range(rounds):
                    server.attend("a", rng.normal(size=12), tier=tier)
            except Exception as exc:  # surfaced after the join
                errors.append(exc)

        with server:
            threads = [
                threading.Thread(target=client, args=(tier, 10 * c + t))
                for t, tier in enumerate(TIERS)
                for c in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
            assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        snapshot = server.snapshot()
        total = clients * rounds * len(TIERS)
        assert (snapshot["completed"], snapshot["rejected"]) == (total, 0)
        assert snapshot["batch_size_histogram"] == {"16": rounds * len(TIERS)}
        for tier in TIERS:
            assert snapshot["tiers"][tier]["completed"] == clients * rounds

    def test_default_backends_do_not_retain_traces(self):
        """A long-lived server only needs the scalar counters; per-query
        traces are never retained."""
        server = _server(max_batch=4, wait=0.0)
        _register(server, "a")
        with server:
            for _ in range(3):
                server.attend("a", np.zeros(12))
        entry = server.cache.checkout("a")
        server.cache.release(entry)
        assert entry.backend.stats.keep_traces is False
        assert entry.backend.stats.traces == []
        assert entry.backend.stats.calls == 3

    def test_served_dispatch_builds_no_traces(self, monkeypatch):
        """Served selection statistics are counters read straight from
        the kernel's per-query arrays: no dispatch constructs an
        ``AttentionTrace``, and neither do the exact and quantized
        backends, whose stats keep none."""
        made = []

        class CountedTrace(approximate_mod.AttentionTrace):
            def __init__(self, *args, **kwargs):
                made.append(1)
                super().__init__(*args, **kwargs)

        for module in (approximate_mod, backends_mod):
            monkeypatch.setattr(module, "AttentionTrace", CountedTrace)
        server = _server(max_batch=4, wait=0.0)
        for s in range(4):
            _register(server, f"s{s}", seed=s)
        rng = np.random.default_rng(5)
        queries = rng.normal(size=(50, 12))
        with server:
            for i, query in enumerate(queries):
                server.attend(f"s{i % 4}", query)
        selection = server.cache.merged_backend_stats()
        assert (selection.calls, selection.total_rows) == (50, 50 * 48)
        assert selection.total_candidates > 0
        key, value = rng.normal(size=(48, 12)), rng.normal(size=(48, 12))
        exact = backends_mod.ExactBackend()
        exact.attend_many(key, value, queries[:8])
        quantized = backends_mod.QuantizedBackend(max_n=48, d=12)
        quantized.attend(key, value, queries[0])
        assert (exact.stats.calls, quantized.stats.calls) == (8, 1)
        assert exact.stats.total_kept == 8 * 48
        assert len(made) == 0

    def test_exact_backend_server(self):
        """The exact tier is the exact-serving baseline: a server whose
        default tier is ``"exact"`` answers exact attention."""
        server = _server(max_batch=4, wait=0.0, workers=1, default_tier="exact")
        key, value = _register(server, "a")
        rng = np.random.default_rng(5)
        query = rng.normal(size=12)
        with server:
            out = server.attend("a", query)
        from repro.core.attention import attention

        np.testing.assert_allclose(out, attention(key, value, query))
