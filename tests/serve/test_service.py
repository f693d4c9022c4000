"""The transport-agnostic service core: one op vocabulary, one dispatch
surface, identical semantics over a single server and a sharded cluster.

The load-bearing claims: ``call`` dispatches every op to its typed
result; ``submit_attend`` feeds the batcher on a single server (never a
thread-per-request) and the blocking pool on a cluster; a partial
admission fails every already-queued sibling so no future is left
unobserved; and ``attend_many`` on the public surfaces *is* the service
path (local and remote callers share one gather implementation).
"""

import threading
from concurrent.futures import Future

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.serve import (
    AttendOp,
    AttendResult,
    AttentionRequest,
    AttentionServer,
    AttentionService,
    BatchPolicy,
    CloseSessionOp,
    ClusterConfig,
    MetricsOp,
    MetricsResult,
    MutateSessionOp,
    PingOp,
    Pong,
    RegisterSessionOp,
    ServerConfig,
    ServerOverloadedError,
    SessionInfo,
    SetTierOp,
    ShardedAttentionServer,
    SnapshotOp,
    SnapshotResult,
    TierResult,
    UnknownSessionError,
)
from repro.serve.mutator import AppendRowsMutation, DeleteRowsMutation
from repro.serve.service import _gather_rows

N, D = 40, 12


def _server(**kw):
    kw.setdefault("num_workers", 2)
    return AttentionServer(
        ServerConfig(
            batch=BatchPolicy(max_batch_size=4, max_wait_seconds=0.002),
            **kw,
        )
    )


def _cluster(shards=2):
    return ShardedAttentionServer(
        ClusterConfig(
            num_shards=shards,
            shard=ServerConfig(
                batch=BatchPolicy(max_batch_size=4, max_wait_seconds=0.002),
                num_workers=1,
            ),
        )
    )


def _memory(seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(N, D)), rng.normal(size=(N, D))


@pytest.fixture(params=["server", "cluster"])
def target(request):
    target = _server() if request.param == "server" else _cluster()
    with target:
        yield target


class TestCallDispatch:
    def test_full_session_lifecycle(self, target):
        service = AttentionService(target)
        key, value = _memory()
        info = service.call(
            RegisterSessionOp(session_id="s", key=key, value=value)
        )
        assert info == SessionInfo(session_id="s", n=N, d=D, d_v=D)

        queries = np.random.default_rng(1).normal(size=(3, D))
        result = service.call(AttendOp(session_id="s", queries=queries))
        assert isinstance(result, AttendResult)
        assert result.outputs.shape == (3, D)
        expected = target.attend_many("s", queries)
        np.testing.assert_array_equal(result.outputs, expected)

        grown = service.call(
            MutateSessionOp(
                session_id="s",
                mutation=AppendRowsMutation(
                    key_rows=key[:2], value_rows=value[:2]
                ),
            )
        )
        assert grown.n == N + 2

        shrunk = service.call(
            MutateSessionOp(
                session_id="s", mutation=DeleteRowsMutation(rows=(0, 1))
            )
        )
        assert shrunk.n == N

        assert service.call(CloseSessionOp(session_id="s")) == Pong()
        with pytest.raises(UnknownSessionError):
            service.call(AttendOp(session_id="s", queries=queries))

    def test_tier_snapshot_metrics_ping(self, target):
        service = AttentionService(target)
        previous = service.call(SetTierOp(tier="exact"))
        assert previous == TierResult(previous="conservative")
        restored = service.call(SetTierOp(tier="conservative"))
        assert restored == TierResult(previous="exact")

        snap = service.call(SnapshotOp())
        assert isinstance(snap, SnapshotResult)
        assert isinstance(snap.snapshot, dict)

        metrics = service.call(MetricsOp())
        assert isinstance(metrics, MetricsResult)
        assert "# TYPE" in metrics.text

        assert service.call(PingOp()) == Pong()

    def test_bad_tier_propagates(self, target):
        service = AttentionService(target)
        with pytest.raises(ConfigError):
            service.call(SetTierOp(tier="psychic"))

    def test_unknown_op_rejected(self, target):
        service = AttentionService(target)
        with pytest.raises(TypeError):
            service.call(object())

    def test_attend_1d_query_promoted_to_one_row(self, target):
        service = AttentionService(target)
        key, value = _memory()
        service.call(RegisterSessionOp(session_id="s", key=key, value=value))
        query = np.random.default_rng(2).normal(size=D)
        result = service.call(AttendOp(session_id="s", queries=query))
        assert result.outputs.shape == (1, D)
        np.testing.assert_array_equal(result.outputs[0], target.attend("s", query))


class TestEmptyAttend:
    """A zero-row attend resolves at once to ``(0, d_v)`` — it used to
    time out on a gather of nothing — and still looks the session up
    first, like a one-row attend."""

    def test_zero_rows_resolve_immediately(self, target):
        key, value = _memory()
        target.register_session("s", key, value[:, :5])
        out = target.attend_many("s", np.empty((0, D)), timeout=1.0)
        assert out.shape == (0, 5)

    def test_zero_rows_still_check_the_session(self, target):
        with pytest.raises(UnknownSessionError):
            target.attend_many("ghost", np.empty((0, D)), timeout=1.0)


class TestSubmitAttend:
    def test_resolves_to_attend_result(self, target):
        service = AttentionService(target)
        key, value = _memory()
        service.call(RegisterSessionOp(session_id="s", key=key, value=value))
        queries = np.random.default_rng(3).normal(size=(4, D))
        future = service.submit_attend(AttendOp(session_id="s", queries=queries))
        result = future.result(timeout=30)
        assert isinstance(result, AttendResult)
        np.testing.assert_array_equal(
            result.outputs, target.attend_many("s", queries)
        )
        service.close()

    def test_single_server_rides_the_batcher(self):
        """On a single server the async seam is per-query ``submit`` —
        no fallback thread pool is ever created."""
        with _server() as server:
            service = AttentionService(server)
            key, value = _memory()
            server.register_session("s", key, value)
            queries = np.random.default_rng(4).normal(size=(6, D))
            future = service.submit_attend(
                AttendOp(session_id="s", queries=queries)
            )
            future.result(timeout=30)
            assert service._pool is None

    def test_cluster_uses_blocking_pool(self):
        with _cluster() as cluster:
            service = AttentionService(cluster)
            key, value = _memory()
            cluster.register_session("s", key, value)
            future = service.submit_attend(
                AttendOp(session_id="s", queries=key[:2])
            )
            future.result(timeout=30)
            assert service._pool is not None
            service.close()
            assert service._pool is None

    def test_unknown_session_raises_synchronously_on_server(self):
        with _server() as server:
            service = AttentionService(server)
            with pytest.raises(UnknownSessionError):
                service.submit_attend(
                    AttendOp(session_id="ghost", queries=np.zeros((1, D)))
                )

    def test_partial_admission_fails_queued_siblings(self):
        """If query k is rejected, queries 0..k-1 (already admitted)
        must not be left with unobserved futures: they are failed
        immediately and the rejection propagates to the caller."""
        admitted = []

        class FlakyTarget:
            def submit(self, session_id, query, tier=None, trace_ctx=None):
                if len(admitted) == 2:
                    raise ServerOverloadedError("queue full")
                request = AttentionRequest(session_id=session_id, query=query)
                admitted.append(request)
                return request

        service = AttentionService(FlakyTarget())
        with pytest.raises(ServerOverloadedError):
            service.submit_attend(
                AttendOp(session_id="s", queries=np.zeros((3, D)))
            )
        assert len(admitted) == 2
        for request in admitted:
            assert request.future.done()
            with pytest.raises(RuntimeError, match="sibling"):
                request.future.result()


class TestGatherRows:
    def test_stacks_in_submission_order(self):
        futures = [Future() for _ in range(3)]
        gathered = _gather_rows(futures)
        # Resolve out of order; the gather preserves index order.
        futures[2].set_result(np.full(2, 2.0))
        futures[0].set_result(np.full(2, 0.0))
        assert not gathered.done()
        futures[1].set_result(np.full(2, 1.0))
        np.testing.assert_array_equal(
            gathered.result(timeout=5),
            np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]),
        )

    def test_first_error_wins(self):
        futures = [Future() for _ in range(3)]
        gathered = _gather_rows(futures)
        futures[0].set_result(np.zeros(2))
        futures[1].set_exception(UnknownSessionError("gone"))
        with pytest.raises(UnknownSessionError):
            gathered.result(timeout=5)
        # A late sibling result does not disturb the settled gather.
        futures[2].set_result(np.zeros(2))
        with pytest.raises(UnknownSessionError):
            gathered.result(timeout=5)

    def test_concurrent_resolution_is_safe(self):
        futures = [Future() for _ in range(32)]
        gathered = _gather_rows(futures)
        barrier = threading.Barrier(8)

        def resolve(chunk):
            barrier.wait()
            for index in chunk:
                futures[index].set_result(np.array([float(index)]))

        threads = [
            threading.Thread(target=resolve, args=(range(i, 32, 8),))
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        np.testing.assert_array_equal(
            gathered.result(timeout=5).ravel(),
            np.arange(32, dtype=float),
        )


class TestPublicSurfacesRouteThroughService:
    def test_server_attend_many_is_the_service_path(self):
        with _server() as server:
            key, value = _memory()
            server.register_session("s", key, value)
            assert server.service() is server.service()  # cached
            queries = np.random.default_rng(5).normal(size=(3, D))
            via_method = server.attend_many("s", queries)
            via_service = server.service().call(
                AttendOp(session_id="s", queries=queries)
            )
            np.testing.assert_array_equal(via_method, via_service.outputs)

    def test_cluster_attend_many_is_the_service_path(self):
        with _cluster() as cluster:
            key, value = _memory()
            cluster.register_session("s", key, value)
            assert cluster.service() is cluster.service()
            queries = np.random.default_rng(6).normal(size=(3, D))
            via_method = cluster.attend_many("s", queries)
            via_service = cluster.service().call(
                AttendOp(session_id="s", queries=queries)
            )
            np.testing.assert_array_equal(via_method, via_service.outputs)
