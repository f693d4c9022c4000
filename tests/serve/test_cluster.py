"""Integration tests for the sharded attention cluster.

The load-bearing claims: routing through shards never changes results
(bit-identity against a directly prepared backend), rebalancing moves
exactly the sessions consistent hashing says it should while the
cluster keeps serving them, the spawn mode speaks the same protocol
through real child processes, and the aggregated snapshot adds up.
"""

import threading

import numpy as np
import pytest

from repro.core.backends import ApproximateBackend, ExactBackend
from repro.core.config import conservative
from repro.errors import ConfigError, ShapeError
from repro.serve import (
    AttendOp,
    BatchPolicy,
    CloseSessionOp,
    ClusterConfig,
    ProcessShard,
    RegisterSessionOp,
    ServedBackend,
    ServerClosedError,
    ServerConfig,
    SessionStatsOp,
    ShardedAttentionServer,
    TelemetryOp,
    UnknownSessionError,
)
from repro.serve import scheduler as scheduler_mod

N, D = 48, 12


def _cluster(shards=3, spawn=False, max_batch=8, wait=0.002, **kw):
    return ShardedAttentionServer(
        ClusterConfig(
            num_shards=shards,
            spawn=spawn,
            shard=ServerConfig(
                batch=BatchPolicy(
                    max_batch_size=max_batch, max_wait_seconds=wait
                ),
                num_workers=1,
            ),
            **kw,
        )
    )


def _memory(seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(N, D)), rng.normal(size=(N, D))


def _register_many(cluster, count):
    memories = {}
    for i in range(count):
        sid = f"s{i}"
        key, value = _memory(i)
        memories[sid] = (key, value)
        cluster.register_session(sid, key, value)
    return memories


class TestRoutingThroughShards:
    def test_sessions_spread_and_route_stably(self):
        cluster = _cluster(shards=3)
        _register_many(cluster, 12)
        placement = {s: cluster.session_shard(s) for s in cluster.session_ids}
        # A fresh cluster with the same shard count places identically
        # (consistent hashing is a pure function of the shard ids).
        rebuilt = _cluster(shards=3)
        _register_many(rebuilt, 12)
        assert placement == {
            s: rebuilt.session_shard(s) for s in rebuilt.session_ids
        }
        assert len(set(placement.values())) > 1  # actually sharded

    def test_attend_many_bit_identical_to_direct_backend(self):
        cluster = _cluster(shards=3)
        memories = _register_many(cluster, 6)
        rng = np.random.default_rng(7)
        with cluster:
            for sid, (key, value) in memories.items():
                queries = rng.normal(size=(5, D))
                served = cluster.attend_many(sid, queries)
                direct = ApproximateBackend(
                    conservative(), engine="vectorized"
                )
                direct.prepare(key)
                np.testing.assert_array_equal(
                    served, direct.attend_many(key, value, queries)
                )

    def test_concurrent_multi_session_traffic(self):
        cluster = _cluster(shards=3)
        memories = _register_many(cluster, 6)
        errors = []

        def client(index, sid):
            try:
                client_rng = np.random.default_rng(100 + index)
                for _ in range(4):
                    out = cluster.attend(sid, client_rng.normal(size=D))
                    assert out.shape == (D,)
            except Exception as exc:  # surfaced after the join
                errors.append(exc)

        with cluster:
            threads = [
                threading.Thread(target=client, args=(i, sid))
                for i, sid in enumerate(memories)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert errors == []
        snap = cluster.snapshot()
        assert snap["cluster"]["completed"] == 6 * 4

    def test_served_backend_adapter_works_against_cluster(self):
        cluster = _cluster(shards=2)
        key, value = _memory(0)
        cluster.register_session("s0", key, value)
        rng = np.random.default_rng(11)
        queries = rng.normal(size=(4, D))
        with cluster:
            backend = ServedBackend(cluster, "s0")
            backend.prepare(key)
            got = backend.attend_many(key, value, queries)
        direct = ApproximateBackend(conservative(), engine="vectorized")
        direct.prepare(key)
        np.testing.assert_array_equal(
            got, direct.attend_many(key, value, queries)
        )

    def test_validation_and_unknown_sessions(self):
        cluster = _cluster(shards=2)
        with pytest.raises(ShapeError):
            cluster.register_session("bad", np.zeros((0, 4)), np.zeros((0, 4)))
        with pytest.raises(ShapeError):
            cluster.register_session(
                "bad", np.zeros((4, 4)), np.zeros((3, 4))
            )
        with pytest.raises(UnknownSessionError):
            cluster.attend("ghost", np.zeros(D))
        key, value = _memory(0)
        cluster.register_session("s0", key, value)
        with cluster:
            with pytest.raises(ShapeError):
                cluster.attend("s0", np.zeros(D + 1))
        with pytest.raises(ServerClosedError):
            cluster.register_session("late", key, value)


class TestRebalancing:
    def test_add_shard_moves_exactly_the_rerouted_sessions(self):
        cluster = _cluster(shards=2)
        _register_many(cluster, 16)
        before = {s: cluster.session_shard(s) for s in cluster.session_ids}
        new_shard, moved = cluster.add_shard()
        after = {s: cluster.session_shard(s) for s in cluster.session_ids}
        for sid in before:
            if sid in moved:
                assert after[sid] == new_shard
            else:
                assert after[sid] == before[sid]
        # The router's own view agrees with the bookkeeping.
        assert sorted(moved) == sorted(
            sid for sid in before if after[sid] != before[sid]
        )

    def test_remove_shard_moves_exactly_its_sessions(self):
        cluster = _cluster(shards=3)
        _register_many(cluster, 16)
        before = {s: cluster.session_shard(s) for s in cluster.session_ids}
        victim = next(iter(set(before.values())))
        moved = cluster.remove_shard(victim)
        after = {s: cluster.session_shard(s) for s in cluster.session_ids}
        assert sorted(moved) == sorted(
            sid for sid, shard in before.items() if shard == victim
        )
        for sid in before:
            if before[sid] == victim:
                assert after[sid] != victim
            else:
                assert after[sid] == before[sid]

    def test_serving_survives_join_and_leave(self):
        cluster = _cluster(shards=2)
        memories = _register_many(cluster, 8)
        rng = np.random.default_rng(5)
        queries = {sid: rng.normal(size=(3, D)) for sid in memories}
        with cluster:
            expected = {
                sid: cluster.attend_many(sid, queries[sid])
                for sid in memories
            }
            new_shard, _ = cluster.add_shard()
            for sid in memories:
                np.testing.assert_array_equal(
                    cluster.attend_many(sid, queries[sid]), expected[sid]
                )
            cluster.remove_shard(new_shard)
            for sid in memories:
                np.testing.assert_array_equal(
                    cluster.attend_many(sid, queries[sid]), expected[sid]
                )
        # Cluster totals must survive the removal: whatever the retired
        # replica served is preserved, not dropped with its handle.
        aggregate = cluster.snapshot()["cluster"]
        assert aggregate["completed"] == 3 * 8 * 3
        assert aggregate["retired_shards"] == 1
        assert aggregate["selection"]["calls"] == 3 * 8 * 3

    def test_cannot_remove_last_shard(self):
        cluster = _cluster(shards=1)
        with pytest.raises(ConfigError):
            cluster.remove_shard("shard-0")


class TestClusterTelemetry:
    def test_snapshot_aggregates_across_shards(self):
        cluster = _cluster(shards=3)
        memories = _register_many(cluster, 6)
        rng = np.random.default_rng(9)
        with cluster:
            for sid in memories:
                for _ in range(3):
                    cluster.attend(sid, rng.normal(size=D))
        snap = cluster.snapshot()
        cluster_side = snap["cluster"]
        assert cluster_side["completed"] == 18
        assert cluster_side["submitted"] == 18
        assert cluster_side["num_shards"] == 3
        assert cluster_side["sessions"] == 6
        assert sum(cluster_side["sessions_per_shard"].values()) == 6
        assert sum(cluster_side["completed_per_shard"].values()) == 18
        assert cluster_side["load_imbalance"] >= 1.0
        assert cluster_side["latency_seconds"]["p99"] > 0.0
        assert cluster_side["selection"]["calls"] == 18
        # Per-shard snapshots add up to the aggregate.
        assert sum(s["completed"] for s in snap["shards"].values()) == 18

    def test_session_stats_follow_the_session(self):
        cluster = _cluster(shards=2)
        key, value = _memory(0)
        cluster.register_session("s0", key, value)
        with cluster:
            cluster.attend("s0", np.zeros(D))
            assert cluster.session_stats("s0").calls == 1
            cluster.add_shard()
            cluster.attend("s0", np.zeros(D))
            # Counters survive a potential move: retired stats carry
            # over through re-registration only within one shard, so
            # at minimum the post-move call is counted.
            assert cluster.session_stats("s0").calls >= 1


    def test_one_shard_aggregate_renders_like_its_shard(self, monkeypatch):
        """The aggregate is rendered from the merged books by the
        server's own snapshot code, so a one-shard cluster's aggregate
        has every key of its shard's snapshot with the same value —
        ``mean_batch_size`` included, which counts failed requests."""
        kernel = scheduler_mod.attend_many_ragged

        def fails_on_negative_query(backends, keys, values, queries, *a, **kw):
            if queries[0, 0] < 0:
                raise RuntimeError("injected dispatch failure")
            return kernel(backends, keys, values, queries, *a, **kw)

        monkeypatch.setattr(
            scheduler_mod, "attend_many_ragged", fails_on_negative_query
        )
        cluster = ShardedAttentionServer(
            ClusterConfig(
                num_shards=1,
                shard=ServerConfig(
                    batch=BatchPolicy(max_batch_size=1, max_wait_seconds=0.0),
                    num_workers=1,
                ),
            ),
        )
        key, value = _memory(30)
        cluster.register_session("s", key, value)
        failed = 0
        with cluster:
            for query in np.random.default_rng(31).normal(size=(40, D)):
                try:
                    cluster.attend("s", query)
                except RuntimeError:
                    failed += 1
            snap = cluster.snapshot()
        assert 0 < failed < 40
        (shard,) = snap["shards"].values()
        aggregate = snap["cluster"]
        assert (aggregate["failed"], aggregate["batches"]) == (failed, 40)
        for name, value in shard.items():
            assert aggregate[name] == value, name

    def test_aggregate_keeps_retired_books_whole(self):
        """After a failover and a removal the aggregate still counts the
        retired shards' batches, and its histogram adds up to them."""
        cluster = _cluster(shards=3, replication=2)
        memories = _register_many(cluster, 6)
        rng = np.random.default_rng(32)

        def serve_round():
            for sid in memories:
                cluster.attend(sid, rng.normal(size=D))

        def check(snap, served):
            aggregate = snap["cluster"]
            assert sum(aggregate["batch_size_histogram"].values()) == (
                aggregate["batches"]
            )
            assert aggregate["completed"] == served
            assert aggregate["selection"]["calls"] == served

        with cluster:
            serve_round()
            victim = cluster.session_shard("s0")
            victim_books = cluster.snapshot()["shards"][victim]
            assert victim_books["batches"] > 0
            cluster.kill_shard(victim)
            cluster.report_shard_failure(victim)
            serve_round()
            snap = cluster.snapshot()
            check(snap, 12)
            live_batches = sum(
                shard["batches"] for shard in snap["shards"].values()
            )
            assert snap["cluster"]["batches"] == (
                live_batches + victim_books["batches"]
            )
            cluster.remove_shard(cluster.shard_ids[0])
            serve_round()
            snap = cluster.snapshot()
        check(snap, 18)
        assert snap["cluster"]["retired_shards"] == 2


class TestSpawnMode:
    """The process-backed shards speak the same protocol for real."""

    def test_spawned_cluster_serves_bit_identically(self):
        """The six rows of one ``attend_many`` form exactly one batch —
        a cap of six and a fill wait far longer than their arrival
        spread — so the child's answer is bit-identical to one direct
        six-row dispatch (a split batch changes the GEMM shapes and
        with them the roundoff)."""
        cluster = _cluster(shards=2, spawn=True, max_batch=6, wait=10.0)
        key, value = _memory(21)
        cluster.register_session("p0", key, value)
        cluster.register_session("p1", *_memory(22))
        rng = np.random.default_rng(13)
        queries = rng.normal(size=(6, D))
        try:
            with cluster:
                served = cluster.attend_many("p0", queries)
                direct = ApproximateBackend(
                    conservative(), engine="vectorized"
                )
                direct.prepare(key)
                np.testing.assert_array_equal(
                    served, direct.attend_many(key, value, queries)
                )
                assert cluster.session_stats("p0").calls == 6
                snap = cluster.snapshot()
                assert snap["cluster"]["completed"] == 6
                child = snap["shards"][cluster.session_shard("p0")]
                assert child["batch_size_histogram"] == {"6": 1}
        finally:
            cluster.stop(timeout=10.0)

    def test_spawned_cluster_empty_attend(self):
        cluster = _cluster(shards=2, spawn=True)
        key, value = _memory(25)
        cluster.register_session("p0", key, value[:, :5])
        try:
            with cluster:
                out = cluster.attend_many("p0", np.empty((0, D)), timeout=5.0)
                assert out.shape == (0, 5)
                with pytest.raises(UnknownSessionError):
                    cluster.attend_many("ghost", np.empty((0, D)))
        finally:
            cluster.stop(timeout=10.0)

    def test_drain_stop_answers_in_flight_and_counts_them(self):
        """The parent is the child's only client: a draining stop waits
        for the client's in-flight requests (the child still serves
        them), and the final telemetry, read after, counts them."""
        shard = ProcessShard(
            "drainer", ServerConfig(
                batch=BatchPolicy(max_batch_size=64, max_wait_seconds=0.2),
                num_workers=1,
            ),
        )
        key, value = _memory(26)
        try:
            shard.call(RegisterSessionOp("s", key, value))
            queries = np.random.default_rng(27).normal(size=(5, D))
            futures = [
                shard.submit_attend(AttendOp("s", q[np.newaxis]))
                for q in queries
            ]
        finally:
            shard.stop(timeout=10.0, drain=True)
        for future in futures:
            assert future.result(0).outputs.shape == (1, D)
        final = shard.call(TelemetryOp())
        assert final.snapshot()["completed"] == 5
        assert len(final.stats.latency_samples()) == 5
        with pytest.raises(ServerClosedError):
            shard.call(SessionStatsOp("s"))

    def test_spawned_shard_errors_propagate(self):
        cluster = _cluster(shards=1, spawn=True)
        key, value = _memory(23)
        cluster.register_session("p0", key, value)
        try:
            with cluster:
                with pytest.raises(ShapeError):
                    cluster.attend("p0", np.zeros(D + 3))
                # Shape errors are caught parent-side; unknown sessions
                # travel as typed error frames from the child.
                shard = cluster._shards["shard-0"]
                shard.call(CloseSessionOp("p0"))
                with pytest.raises(UnknownSessionError):
                    shard.submit_attend(
                        AttendOp("p0", np.zeros((1, D)))
                    ).result(10.0)
        finally:
            cluster.stop(timeout=10.0)

    def test_spawned_cluster_snapshot_readable_after_stop(self):
        """Thread shards answer telemetry after stop; process shards
        must too (the final state is cached before the child exits)."""
        cluster = _cluster(shards=2, spawn=True)
        key, value = _memory(24)
        cluster.register_session("p0", key, value)
        with cluster:
            for _ in range(3):
                cluster.attend("p0", np.zeros(D))
        snap = cluster.snapshot()
        assert snap["cluster"]["completed"] == 3
        assert snap["cluster"]["selection"]["calls"] == 3


class TestServedWorkloadThroughCluster:
    def test_kv_evaluation_matches_direct(self, tiny_kv):
        """`evaluate_served` routed through a sharded cluster reproduces
        the directly evaluated MAP — the serving layer (now with
        routing on top) regroups queries but never changes results."""
        cluster = ShardedAttentionServer(
            ClusterConfig(
                num_shards=2,
                shard=ServerConfig(
                    batch=BatchPolicy(
                        max_batch_size=16, max_wait_seconds=0.002
                    ),
                    num_workers=2,
                    cache_capacity_bytes=None,
                    default_tier="exact",
                ),
            ),
        )
        direct = tiny_kv.evaluate(ExactBackend(), limit=10)
        with cluster:
            served = tiny_kv.evaluate_served(cluster, limit=10, concurrency=4)
        assert served.metric == pytest.approx(direct.metric, abs=1e-12)
        assert served.num_examples == direct.num_examples
        # All sessions cleaned up afterwards, across every shard.
        assert cluster.session_ids == []
        assert served.stats.calls == 10 * tiny_kv.config.hops

    def test_kv_streaming_through_cluster_matches_direct(self, tiny_kv):
        """Sessions streamed into a sharded cluster row block by row
        block answer identically to direct evaluation — incremental
        prepare composes with routing."""
        cluster = ShardedAttentionServer(
            ClusterConfig(
                num_shards=2,
                shard=ServerConfig(
                    batch=BatchPolicy(
                        max_batch_size=16, max_wait_seconds=0.002
                    ),
                    num_workers=2,
                    cache_capacity_bytes=None,
                    default_tier="exact",
                ),
            ),
        )
        direct = tiny_kv.evaluate(ExactBackend(), limit=6)
        with cluster:
            streamed = tiny_kv.evaluate_streaming(
                cluster, limit=6, concurrency=2, append_rows=8
            )
        assert streamed.metric == pytest.approx(direct.metric, abs=1e-12)
        assert streamed.extra["appended_rows"] > 0
        assert cluster.session_ids == []
