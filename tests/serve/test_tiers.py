"""Quality-tier semantics across the serving stack.

The acceptance property: a mixed-tier request stream is served
**bit-identically** to per-tier direct evaluation — every dispatched
batch is single-tier, and replaying it through a fresh backend at that
tier's config reproduces the served rows exactly — on a single server
and on a 2-shard cluster in both thread and spawn modes.  Plus the
degradation rules: controller (or manual) downgrades move only the
default used by unpinned traffic; a request pinned ``exact`` is never
served below exact.
"""

import itertools
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backends import ApproximateBackend
from repro.core.config import TIERS, aggressive, conservative, exact
from repro.errors import ConfigError
from repro.serve import (
    AdaptiveQualityController,
    AttentionServer,
    BatchPolicy,
    ClusterConfig,
    QualityPolicy,
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
        batch=BatchPolicy(max_batch_size=16, max_wait_seconds=0.05),
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
    """Per-tier direct evaluation: a fresh backend at the tier's config."""
    backend = ApproximateBackend(TIER_CONFIGS[tier], engine="vectorized")
    backend.prepare(key)
    return backend.attend_many(key, value, queries)


# ----------------------------------------------------------------------
# bit-identity: mixed-tier streams vs per-tier direct evaluation
# ----------------------------------------------------------------------


class TestMixedStreamBitIdentity:
    _counter = itertools.count()

    @given(
        seed=st.integers(0, 2**16),
        tiers=st.lists(st.sampled_from(TIERS), min_size=3, max_size=18),
    )
    @settings(max_examples=25, deadline=None)
    def test_concurrent_mixed_stream_replays_per_tier(
        self, running_server, batch_log, seed, tiers
    ):
        """Requests at random tiers, fired concurrently from one client
        thread per tier: every dispatched batch must be single-tier,
        and replaying it through a fresh backend at that tier's config
        must reproduce the served rows bit-for-bit."""
        server = running_server
        sid = f"tier-mix-{next(self._counter)}"
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 40))
        key = rng.normal(size=(n, D))
        value = rng.normal(size=(n, D))
        queries = rng.normal(size=(len(tiers), D))
        server.register_session(sid, key, value)
        log_start = len(batch_log(server))

        by_id: dict[int, tuple[str, np.ndarray, np.ndarray]] = {}
        lock = threading.Lock()

        def fire(tier, tier_queries):
            for query in tier_queries:
                request = server.submit(sid, query, tier=tier)
                assert request.tier == tier and request.pinned
                result = request.result(10.0)
                with lock:
                    by_id[request.request_id] = (tier, query, result)

        threads = [
            threading.Thread(
                target=fire,
                args=(tier, [q for q, t in zip(queries, tiers) if t == tier]),
            )
            for tier in set(tiers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(by_id) == len(tiers)

        replayed = 0
        for session_id, ids, tier in batch_log(server)[log_start:]:
            if session_id != sid:
                continue
            batch_tiers = {by_id[rid][0] for rid in ids}
            assert batch_tiers == {tier}, "a dispatched batch mixed tiers"
            direct = _direct(
                tier, key, value, np.stack([by_id[rid][1] for rid in ids])
            )
            for row, rid in enumerate(ids):
                np.testing.assert_array_equal(direct[row], by_id[rid][2])
                replayed += 1
        assert replayed == len(tiers)
        server.close_session(sid)

    def test_queued_mixed_stream_matches_direct_per_tier(self, batch_log):
        """Deterministic grouping: round-robin-interleaved tiers queued
        before a one-worker server starts form exactly one batch per
        tier in submission order — each tier's stacked outputs must
        equal direct evaluation at that tier, bit-for-bit."""
        server = AttentionServer(
            ServerConfig(
                batch=BatchPolicy(max_batch_size=16, max_wait_seconds=0.0),
                num_workers=1,
            )
        )
        rng = np.random.default_rng(3)
        key = rng.normal(size=(24, D))
        value = rng.normal(size=(24, D))
        per_tier = {tier: rng.normal(size=(10, D)) for tier in TIERS}
        server.register_session("s", key, value)
        requests = {tier: [] for tier in TIERS}
        for i in range(10):
            for tier in TIERS:  # interleave the three tiers
                requests[tier].append(
                    server.submit("s", per_tier[tier][i], tier=tier)
                )
        with server:
            outputs = {
                tier: np.stack([r.result(10.0) for r in requests[tier]])
                for tier in TIERS
            }
        assert sorted(tier for _, _, tier in batch_log(server)) == sorted(
            TIERS
        )
        for tier in TIERS:
            np.testing.assert_array_equal(
                outputs[tier], _direct(tier, key, value, per_tier[tier])
            )

    @pytest.mark.parametrize(
        "cluster_fixture", ["thread_cluster", "spawn_cluster"]
    )
    def test_two_shard_cluster_matches_direct_per_tier(
        self, cluster_fixture, request
    ):
        """The tier rides the cluster RPC unchanged: per-tier batches
        through a 2-shard cluster (thread and spawn) reproduce direct
        evaluation bit-for-bit."""
        cluster = request.getfixturevalue(cluster_fixture)
        rng = np.random.default_rng(11)
        key = rng.normal(size=(20, D))
        value = rng.normal(size=(20, D))
        queries = rng.normal(size=(10, D))
        for s in range(2):  # two sessions so both shards likely serve
            sid = f"tier-cluster-{cluster_fixture}-{s}"
            cluster.register_session(sid, key, value)
            for tier in TIERS:
                got = cluster.attend_many(sid, queries, tier=tier)
                np.testing.assert_array_equal(
                    got, _direct(tier, key, value, queries)
                )
            cluster.close_session(sid)


# ----------------------------------------------------------------------
# degradation never touches pinned requests
# ----------------------------------------------------------------------


def _overload_evidence(server, count=8):
    """Feed the stats a window of SLO-violating latencies."""
    server.stats.record_batch(
        queue_waits=[0.0] * count,
        latencies=[1.0] * count,
        service_seconds=1.0,
        queue_depth=0,
        tier=server.default_tier,
    )


class TestDowngradesNeverTouchPinned:
    def test_controller_downgrade_spares_pinned_exact(self, batch_log):
        """After the controller degrades the default tier, unpinned
        submissions follow it — but a request pinned ``exact`` keeps
        its tier, dispatches in an exact-tier batch, and returns the
        exact-tier answer bit-for-bit."""
        server = AttentionServer(_server_config())
        controller = AdaptiveQualityController(
            server,
            QualityPolicy(
                slo_p95_seconds=1e-3, overload_ticks=1, min_window_samples=1
            ),
        )
        rng = np.random.default_rng(5)
        key = rng.normal(size=(16, D))
        value = rng.normal(size=(16, D))
        server.register_session("s", key, value)
        _overload_evidence(server)
        assert controller.tick().to_tier == "aggressive"
        assert server.default_tier == "aggressive"

        queries = rng.normal(size=(4, D))
        pinned = [server.submit("s", q, tier="exact") for q in queries]
        unpinned = [server.submit("s", q) for q in queries]
        assert all(r.tier == "exact" and r.pinned for r in pinned)
        assert all(r.tier == "aggressive" and not r.pinned for r in unpinned)
        with server:
            pinned_rows = np.stack([r.result(10.0) for r in pinned])
            for r in unpinned:
                r.result(10.0)
        np.testing.assert_array_equal(
            pinned_rows, _direct("exact", key, value, queries)
        )
        for _, ids, tier in batch_log(server):
            pinned_ids = {r.request_id for r in pinned}
            if pinned_ids & set(ids):
                assert tier == "exact"
                assert set(ids) <= pinned_ids  # never fused across tiers
        snap = server.snapshot()
        assert snap["quality"]["tier_downgrades"] == 1
        assert snap["quality"]["downgraded_requests"] == len(unpinned)

    @given(pin_mask=st.lists(st.booleans(), min_size=1, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_pinned_tiers_survive_any_default(self, pin_mask):
        """Whatever the live default, every pinned submission keeps its
        tier and every unpinned one resolves to the current default."""
        server = AttentionServer(_server_config())
        rng = np.random.default_rng(1)
        server.register_session(
            "s", rng.normal(size=(8, D)), rng.normal(size=(8, D))
        )
        for i, pin in enumerate(pin_mask):
            default = TIERS[i % len(TIERS)]
            server.set_default_tier(default)
            if pin:
                request = server.submit("s", np.zeros(D), tier="exact")
                assert request.tier == "exact" and request.pinned
            else:
                request = server.submit("s", np.zeros(D))
                assert request.tier == default and not request.pinned
        server.stop()


# ----------------------------------------------------------------------
# surface checks
# ----------------------------------------------------------------------


class TestTierSurface:
    def test_unknown_tier_rejected_everywhere(self):
        server = AttentionServer(_server_config())
        rng = np.random.default_rng(0)
        server.register_session(
            "s", rng.normal(size=(8, D)), rng.normal(size=(8, D))
        )
        with pytest.raises(ConfigError):
            server.submit("s", np.zeros(D), tier="best")
        with pytest.raises(ConfigError):
            server.set_default_tier("best")
        with pytest.raises(ConfigError):
            ServerConfig(default_tier="best")
        server.stop()

    def test_cluster_default_tier_propagates(self, thread_cluster):
        """set_default_tier moves every shard; best-effort requests are
        then counted at the degraded tier cluster-wide."""
        cluster = thread_cluster
        rng = np.random.default_rng(9)
        sid = "tier-default-prop"
        cluster.register_session(
            sid, rng.normal(size=(12, D)), rng.normal(size=(12, D))
        )
        before = cluster.snapshot()["cluster"]["tiers"]
        before_aggressive = before.get("aggressive", {}).get("completed", 0)
        assert cluster.set_default_tier("aggressive") == "conservative"
        try:
            cluster.attend(sid, np.zeros(D))
            snap = cluster.snapshot()["cluster"]
            assert snap["default_tier"] == "aggressive"
            assert (
                snap["tiers"]["aggressive"]["completed"]
                == before_aggressive + 1
            )
        finally:
            cluster.set_default_tier("conservative")
            cluster.close_session(sid)

    def test_spawn_cluster_default_tier_rpc(self, spawn_cluster):
        """The set_tier RPC reaches spawned children: best-effort
        requests after the move are served (and counted) at the
        degraded tier."""
        cluster = spawn_cluster
        rng = np.random.default_rng(13)
        sid = "tier-spawn-default"
        cluster.register_session(
            sid, rng.normal(size=(12, D)), rng.normal(size=(12, D))
        )
        before = cluster.snapshot()["cluster"]["tiers"]
        before_aggressive = before.get("aggressive", {}).get("completed", 0)
        cluster.set_default_tier("aggressive")
        try:
            cluster.attend(sid, np.zeros(D))
            snap = cluster.snapshot()["cluster"]
            assert (
                snap["tiers"]["aggressive"]["completed"]
                == before_aggressive + 1
            )
        finally:
            cluster.set_default_tier("conservative")
            cluster.close_session(sid)

    def test_added_shard_inherits_live_default_tier(self):
        cluster = ShardedAttentionServer(
            ClusterConfig(num_shards=1, shard=_server_config())
        )
        with cluster:
            cluster.set_default_tier("aggressive")
            shard_id, _ = cluster.add_shard()
            assert (
                cluster._shards[shard_id].server.default_tier == "aggressive"
            )
