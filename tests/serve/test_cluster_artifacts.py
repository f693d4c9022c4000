"""Zero-copy cluster seeding: shared-memory artifact segments adopted
by spawn shards, and the no-``/dev/shm``-residue lifecycle guarantee."""

import glob
import os

import numpy as np
import pytest

from repro.core.backends import ApproximateBackend
from repro.core.config import conservative
from repro.serve import (
    BatchPolicy,
    ClusterConfig,
    ServerConfig,
    ShardedAttentionServer,
)
from repro.serve.cluster import SegmentStore
from repro.serve.mutator import (
    AppendRowsMutation,
    DeleteRowsMutation,
    ReplaceKeyMutation,
)

N, D = 48, 12


def _segments():
    """Artifact segments created by *this* process (pid-scoped, so
    leftovers from other runs can't fail the assertion)."""
    return glob.glob(f"/dev/shm/repro-art-{os.getpid()}-*")


def _memory(seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(N, D)), rng.normal(size=(N, D))


def _spawn_cluster(shards=3, replication=1, **kw):
    return ShardedAttentionServer(
        ClusterConfig(
            num_shards=shards,
            replication=replication,
            spawn=True,
            shard=ServerConfig(
                batch=BatchPolicy(max_batch_size=8, max_wait_seconds=0.002),
                num_workers=1,
            ),
            **kw,
        )
    )


def _direct(key, value, queries):
    backend = ApproximateBackend(conservative(), engine="vectorized")
    backend.prepare(key)
    return backend.attend_many(key, value, queries)


class TestSegmentStore:
    def test_lease_reuses_segment_for_identical_arrays(self):
        store = SegmentStore()
        key, value = _memory(0)
        before = set(_segments())
        try:
            first = store.lease("s", key, value)
            assert set(_segments()) - before, "lease must create a segment"
            again = store.lease("s", key, value)
            assert again is first, "same arrays must reuse the segment"
            assert store.segment_names == [first.name]
        finally:
            store.close_all()

    def test_lease_repacks_when_memory_changes(self):
        store = SegmentStore()
        key, value = _memory(1)
        try:
            first = store.lease("s", key, value)
            first_name = first.name
            new_key, new_value = _memory(2)
            second = store.lease("s", new_key, new_value)
            assert second is not first
            assert second.name != first_name
            # The stale segment was dropped: only the new one remains.
            assert store.segment_names == [second.name]
            names = {os.path.basename(p) for p in _segments()}
            assert first_name not in names
        finally:
            store.close_all()

    def test_drop_and_close_all_unlink(self):
        store = SegmentStore()
        before = set(_segments())
        key, value = _memory(3)
        store.lease("a", key, value)
        store.lease("b", *_memory(4))
        store.drop("a")
        store.drop("a")  # idempotent
        store.close_all()
        assert set(_segments()) == before
        assert store.segment_names == []

    def test_leased_view_matches_fresh_build(self):
        from repro.core.efficient_search import PreprocessedKey

        store = SegmentStore()
        key, value = _memory(5)
        try:
            artifact = store.lease("s", key, value)
            pre = artifact.view()
            fresh = PreprocessedKey.build(key)
            for plane in ("sorted_values", "row_ids", "key"):
                np.testing.assert_array_equal(
                    getattr(pre, plane), getattr(fresh, plane)
                )
            np.testing.assert_array_equal(artifact.value_view(), value)
        finally:
            store.close_all()


class TestSpawnAdoption:
    def test_registration_ships_segments_and_results_are_bit_identical(
        self,
    ):
        cluster = _spawn_cluster(shards=2, replication=2)
        rng = np.random.default_rng(11)
        memories = {}
        try:
            for i in range(3):
                sid = f"s{i}"
                key, value = _memory(20 + i)
                memories[sid] = (key, value)
                cluster.register_session(sid, key, value)
            # The fan-out went through shared-memory segments, not
            # pickled arrays.
            assert len(cluster._segments.segment_names) == 3
            assert len(_segments()) >= 3
            for sid, (key, value) in memories.items():
                queries = rng.normal(size=(4, D))
                np.testing.assert_array_equal(
                    cluster.attend_many(sid, queries),
                    _direct(key, value, queries),
                )
        finally:
            cluster.stop(timeout=10.0)

    def test_mutation_after_adoption_is_bit_identical(self):
        cluster = _spawn_cluster(shards=2)
        rng = np.random.default_rng(12)
        key, value = _memory(30)
        try:
            cluster.register_session("s", key, value)
            mutations = [
                AppendRowsMutation(
                    rng.normal(size=(3, D)), rng.normal(size=(3, D))
                ),
                ReplaceKeyMutation(
                    1, rng.normal(size=D), rng.normal(size=D)
                ),
            ]
            for mutation in mutations:
                cluster.mutate_session("s", mutation)
                key, value = mutation.apply(key, value)
            queries = rng.normal(size=(5, D))
            np.testing.assert_array_equal(
                cluster.attend_many("s", queries),
                _direct(key, value, queries),
            )
        finally:
            cluster.stop(timeout=10.0)

    def test_close_session_drops_segment(self):
        cluster = _spawn_cluster(shards=2)
        try:
            key, value = _memory(31)
            cluster.register_session("s", key, value)
            assert len(cluster._segments.segment_names) == 1
            cluster.close_session("s")
            assert cluster._segments.segment_names == []
        finally:
            cluster.stop(timeout=10.0)

    def test_mutation_drops_segment(self):
        """A mutation leaves the registration-time segment stale: the
        parent unlinks it at once instead of keeping it until stop,
        and the replicas keep answering from their own planes."""
        cluster = _spawn_cluster(shards=2, replication=2)
        rng = np.random.default_rng(33)
        key, value = _memory(33)
        try:
            cluster.register_session("s", key, value)
            (name,) = cluster._segments.segment_names
            mutation = AppendRowsMutation(
                rng.normal(size=(1, D)), rng.normal(size=(1, D))
            )
            cluster.mutate_session("s", mutation)
            key, value = mutation.apply(key, value)
            assert cluster._segments.segment_names == []
            assert f"/dev/shm/{name}" not in _segments()
            queries = rng.normal(size=(4, D))
            np.testing.assert_array_equal(
                cluster.attend_many("s", queries),
                _direct(key, value, queries),
            )
        finally:
            cluster.stop(timeout=10.0)

    def test_thread_shards_do_not_use_segments(self):
        cluster = ShardedAttentionServer(
            ClusterConfig(
                num_shards=2,
                shard=ServerConfig(
                    batch=BatchPolicy(
                        max_batch_size=8, max_wait_seconds=0.002
                    ),
                    num_workers=1,
                ),
            )
        )
        key, value = _memory(32)
        cluster.register_session("s", key, value)
        assert cluster._segments.segment_names == []
        cluster.stop()


class TestFailoverAdoption:
    def test_failover_replay_adopts_and_stays_bit_identical(self):
        cluster = _spawn_cluster(shards=3, replication=2)
        rng = np.random.default_rng(13)
        key, value = _memory(40)
        try:
            cluster.register_session("s", key, value)
            mutation = AppendRowsMutation(
                rng.normal(size=(2, D)), rng.normal(size=(2, D))
            )
            cluster.mutate_session("s", mutation)
            key, value = mutation.apply(key, value)
            victim = cluster.session_shard("s")
            assert cluster.report_shard_failure(victim, "test kill")
            queries = rng.normal(size=(4, D))
            np.testing.assert_array_equal(
                cluster.attend_many("s", queries),
                _direct(key, value, queries),
            )
        finally:
            cluster.stop(timeout=10.0)

    def test_read_from_a_reseeded_child_is_bit_identical(self):
        """Two failovers after an append, a delete and a replace: the
        read lands on the child re-seeded from the parent's session
        record, which adopted one segment of the final memory."""
        before = set(_segments())
        cluster = _spawn_cluster(shards=3, replication=2)
        rng = np.random.default_rng(16)
        key, value = _memory(41)
        try:
            cluster.register_session("s", key, value)
            for mutation in (
                AppendRowsMutation(
                    rng.normal(size=(3, D)), rng.normal(size=(3, D))
                ),
                DeleteRowsMutation((0, 7)),
                ReplaceKeyMutation(2, rng.normal(size=D), rng.normal(size=D)),
            ):
                cluster.mutate_session("s", mutation)
                key, value = mutation.apply(key, value)
            original = cluster.session_replicas("s")
            for _ in range(2):
                victim = cluster.session_shard("s")
                assert cluster.report_shard_failure(victim, "test kill")
            assert cluster.session_shard("s") not in original
            queries = rng.normal(size=(4, D))
            np.testing.assert_array_equal(
                cluster.attend_many("s", queries),
                _direct(key, value, queries),
            )
            assert len(cluster._segments.segment_names) == 1
        finally:
            cluster.stop(timeout=10.0)
        assert set(_segments()) == before


class TestShmLifecycle:
    def test_stop_leaves_no_shm_residue(self):
        before = set(_segments())
        cluster = _spawn_cluster(shards=2, replication=2)
        try:
            for i in range(3):
                cluster.register_session(f"s{i}", *_memory(50 + i))
            rng = np.random.default_rng(14)
            cluster.attend_many("s0", rng.normal(size=(2, D)))
        finally:
            cluster.stop(timeout=10.0)
        assert set(_segments()) == before

    @pytest.mark.chaos
    def test_stop_after_sigkilled_shard_leaves_no_shm_residue(self):
        """A SIGKILL'd child never runs cleanup — the parent's sole
        ownership of segments must still leave ``/dev/shm`` clean."""
        before = set(_segments())
        cluster = _spawn_cluster(
            shards=3,
            replication=2,
            heartbeat_interval_seconds=0.1,
            heartbeat_misses=2,
        )
        try:
            for i in range(4):
                cluster.register_session(f"s{i}", *_memory(60 + i))
            victim = cluster.session_shard("s0")
            cluster.kill_shard(victim)
            cluster.report_shard_failure(victim, "chaos sigkill")
            rng = np.random.default_rng(15)
            out = cluster.attend_many("s0", rng.normal(size=(2, D)))
            assert out.shape == (2, D)
        finally:
            cluster.stop(timeout=10.0)
        assert set(_segments()) == before
