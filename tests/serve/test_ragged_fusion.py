"""Cross-session ragged fusion semantics across the serving stack.

The acceptance property of the fused path: traffic from *many* sessions
fused into one ragged multi-key dispatch is served **bit-identically**
to per-session dispatch — every segment of a fused batch, replayed
through a fresh backend at the batch's tier, reproduces the served rows
exactly — on a single server and on a 2-shard cluster in both thread
and spawn modes, at all three quality tiers, including score ties and
mixed segment sizes.  Plus the grouping rule: every server stamps
cross-session :class:`~repro.serve.request.BatchKey`\\ s of tier and
query width, so only sessions of equal width share a batch.
"""

import itertools
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backends import ApproximateBackend
from repro.core.config import TIERS, aggressive, conservative, exact
from repro.serve import (
    AttentionServer,
    BatchPolicy,
    ClusterConfig,
    ServerConfig,
    ShardedAttentionServer,
)

D = 8

TIER_CONFIGS = {
    "exact": exact(),
    "conservative": conservative(),
    "aggressive": aggressive(),
}


def _server_config(**kw):
    return ServerConfig(
        batch=BatchPolicy(max_batch_size=32, max_wait_seconds=0.05),
        num_workers=2,
        **kw,
    )


@pytest.fixture(scope="module")
def running_server(batch_log):
    server = AttentionServer(_server_config())
    with server:
        yield server


@pytest.fixture(scope="module")
def thread_cluster():
    cluster = ShardedAttentionServer(
        ClusterConfig(num_shards=2, shard=_server_config())
    )
    with cluster:
        yield cluster


@pytest.fixture(scope="module")
def spawn_cluster():
    cluster = ShardedAttentionServer(
        ClusterConfig(num_shards=2, spawn=True, shard=_server_config())
    )
    with cluster:
        yield cluster


def _direct(tier, key, value, queries):
    """Per-session direct evaluation: a fresh backend at the tier's config."""
    backend = ApproximateBackend(TIER_CONFIGS[tier], engine="vectorized")
    backend.prepare(key)
    return backend.attend_many(key, value, queries)


def _memories(rng, sizes):
    """One (key, value) memory per requested session size, mixed n."""
    return [
        (rng.normal(size=(n, D)), rng.normal(size=(n, D))) for n in sizes
    ]


# ----------------------------------------------------------------------
# deterministic fusion: queued many-session traffic forms fused batches
# ----------------------------------------------------------------------


class TestDeterministicFusedDispatch:
    @pytest.mark.parametrize("tier", TIERS)
    def test_queued_sessions_fuse_into_one_batch(self, tier, batch_log):
        """Same-tier requests of three sessions queued before a
        one-worker server starts must dispatch as ONE fused batch
        (three segments), and every segment's rows must equal direct
        per-session evaluation bit-for-bit."""
        server = AttentionServer(
            ServerConfig(
                batch=BatchPolicy(max_batch_size=32, max_wait_seconds=0.0),
                num_workers=1,
            )
        )
        rng = np.random.default_rng(7)
        memories = _memories(rng, [24, 9, 17])
        per_session = {}
        for s, (key, value) in enumerate(memories):
            sid = f"fuse-{s}"
            server.register_session(sid, key, value)
            per_session[sid] = (key, value, rng.normal(size=(s + 2, D)))
        requests = {}
        # Interleave sessions so fusion (not submission adjacency) is
        # what groups them.
        pending = {
            sid: list(queries) for sid, (_, _, queries) in per_session.items()
        }
        while any(pending.values()):
            for sid in list(pending):
                if pending[sid]:
                    req = server.submit(sid, pending[sid].pop(0), tier=tier)
                    assert req.batch_key.fused
                    requests.setdefault(sid, []).append(req)
        with server:
            outputs = {
                sid: np.stack([r.result(10.0) for r in reqs])
                for sid, reqs in requests.items()
            }
        # One dispatch, three segments: the fused histogram pins it.
        assert server.stats.fused_segment_counts == {3: 1}
        snap = server.snapshot()
        assert snap["fused"]["fused_batches"] == 1
        assert snap["fused"]["max_segments"] == 3
        assert snap["batches"] == 1
        # The batch log carries one single-session entry per segment.
        assert len(batch_log(server)) == 3
        for sid, ids, logged_tier in batch_log(server):
            assert logged_tier == tier
            assert ids == [r.request_id for r in requests[sid]]
        for sid, (key, value, queries) in per_session.items():
            np.testing.assert_array_equal(
                outputs[sid], _direct(tier, key, value, queries)
            )

    def test_score_ties_survive_fusion(self):
        """Duplicated key rows (exact score ties on every query) must
        resolve identically in the fused kernel and the per-session
        path — ties are where accumulation-order bugs would surface."""
        rng = np.random.default_rng(19)
        base = rng.normal(size=(6, D))
        key = np.concatenate([base, base, base[:3]])  # heavy duplication
        value = rng.normal(size=(len(key), D))
        server = AttentionServer(
            ServerConfig(
                batch=BatchPolicy(max_batch_size=32, max_wait_seconds=0.0),
                num_workers=1,
            )
        )
        per_session = {}
        for s in range(3):
            sid = f"ties-{s}"
            server.register_session(sid, key, value)
            per_session[sid] = rng.normal(size=(4, D))
        requests = {
            sid: [server.submit(sid, q, tier="aggressive") for q in queries]
            for sid, queries in per_session.items()
        }
        with server:
            outputs = {
                sid: np.stack([r.result(10.0) for r in reqs])
                for sid, reqs in requests.items()
            }
        assert server.snapshot()["fused"]["max_segments"] == 3
        for sid, queries in per_session.items():
            np.testing.assert_array_equal(
                outputs[sid], _direct("aggressive", key, value, queries)
            )


# ----------------------------------------------------------------------
# property: fused serving replays per-session at every tier
# ----------------------------------------------------------------------


class TestFusedStreamBitIdentity:
    _counter = itertools.count()

    @given(
        seed=st.integers(0, 2**16),
        sizes=st.lists(st.integers(1, 5), min_size=2, max_size=4),
        tier=st.sampled_from(TIERS),
    )
    @settings(max_examples=25, deadline=None)
    def test_concurrent_many_session_stream_replays_per_segment(
        self, running_server, batch_log, seed, sizes, tier
    ):
        """Concurrent same-tier traffic from several sessions (mixed
        segment sizes, mixed memory sizes): however the batcher fused
        it, replaying every logged segment through a fresh backend at
        the batch's tier must reproduce the served rows bit-for-bit."""
        server = running_server
        run = next(self._counter)
        rng = np.random.default_rng(seed)
        sessions = {}
        for s, (key, value) in enumerate(
            _memories(rng, rng.integers(8, 40, size=len(sizes)))
        ):
            sid = f"ragged-{run}-{s}"
            server.register_session(sid, key, value)
            sessions[sid] = (key, value, rng.normal(size=(sizes[s], D)))
        log_start = len(batch_log(server))

        by_id: dict[int, tuple[str, np.ndarray, np.ndarray]] = {}
        lock = threading.Lock()

        def fire(sid, queries):
            for query in queries:
                request = server.submit(sid, query, tier=tier)
                result = request.result(10.0)
                with lock:
                    by_id[request.request_id] = (sid, query, result)

        threads = [
            threading.Thread(target=fire, args=(sid, queries))
            for sid, (_, _, queries) in sessions.items()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(by_id) == sum(sizes)

        replayed = 0
        for session_id, ids, logged_tier in batch_log(server)[
            log_start:
        ]:
            if session_id not in sessions:
                continue
            assert logged_tier == tier
            # Each log entry is one single-session segment, whatever
            # batch it fused into.
            assert {by_id[rid][0] for rid in ids} == {session_id}
            key, value, _ = sessions[session_id]
            direct = _direct(
                tier, key, value, np.stack([by_id[rid][1] for rid in ids])
            )
            for row, rid in enumerate(ids):
                np.testing.assert_array_equal(direct[row], by_id[rid][2])
                replayed += 1
        assert replayed == sum(sizes)
        for sid in sessions:
            server.close_session(sid)


# ----------------------------------------------------------------------
# clusters: fusion inside each shard, bit-identity across the RPC
# ----------------------------------------------------------------------


class TestClusterFusedBitIdentity:
    @pytest.mark.parametrize(
        "cluster_fixture", ["thread_cluster", "spawn_cluster"]
    )
    def test_two_shard_cluster_matches_direct_per_session(
        self, cluster_fixture, request
    ):
        """Many-tenant traffic through a 2-shard cluster (thread and
        spawn) with fusion enabled reproduces per-session direct
        evaluation bit-for-bit at every tier."""
        cluster = request.getfixturevalue(cluster_fixture)
        rng = np.random.default_rng(23)
        sessions = {}
        for s, (key, value) in enumerate(_memories(rng, [16, 28, 11, 20])):
            sid = f"ragged-cluster-{cluster_fixture}-{s}"
            cluster.register_session(sid, key, value)
            sessions[sid] = (key, value, rng.normal(size=(3, D)))
        try:
            for tier in TIERS:
                for sid, (key, value, queries) in sessions.items():
                    got = cluster.attend_many(sid, queries, tier=tier)
                    np.testing.assert_array_equal(
                        got, _direct(tier, key, value, queries)
                    )
        finally:
            for sid in sessions:
                cluster.close_session(sid)


# ----------------------------------------------------------------------
# grouping rule: the BatchKey surface
# ----------------------------------------------------------------------


class TestFusionGrouping:
    def test_mismatched_width_never_fuses(self):
        """Sessions of different query width land under different
        cross-session keys — a ragged slab needs one width."""
        server = AttentionServer(_server_config())
        rng = np.random.default_rng(3)
        server.register_session(
            "narrow", rng.normal(size=(8, D)), rng.normal(size=(8, D))
        )
        server.register_session(
            "wide", rng.normal(size=(8, 2 * D)), rng.normal(size=(8, 2 * D))
        )
        a = server.submit("narrow", np.zeros(D))
        b = server.submit("wide", np.zeros(2 * D))
        assert a.batch_key.fused and b.batch_key.fused
        assert a.batch_key != b.batch_key
        server.stop()
