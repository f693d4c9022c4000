"""The serve-driven KV workload evaluation path.

Routing the KV-MemN2N hops through a running :class:`AttentionServer`
must reproduce the directly-evaluated accuracy: the serving layer
regroups queries but never changes results beyond the batched GEMM's
roundoff, and MAP is computed from stable rankings of well-separated
scores, so the metric matches exactly in practice.
"""

import pytest

from repro.core.backends import ExactBackend
from repro.serve import AttentionServer, BatchPolicy, ServerConfig


@pytest.fixture
def kv_server():
    server = AttentionServer(
        ServerConfig(
            batch=BatchPolicy(max_batch_size=16, max_wait_seconds=0.002),
            num_workers=4,
            cache_capacity_bytes=None,
            default_tier="exact",
        )
    )
    with server:
        yield server


class TestServedEvaluation:
    def test_matches_direct_exact_evaluation(self, tiny_kv, kv_server):
        direct = tiny_kv.evaluate(ExactBackend(), limit=12)
        served = tiny_kv.evaluate_served(kv_server, limit=12, concurrency=4)
        assert served.metric == pytest.approx(direct.metric, abs=1e-12)
        assert served.num_examples == direct.num_examples
        assert served.backend_name == "served"

    def test_sessions_cleaned_up_and_stats_aggregated(self, tiny_kv, kv_server):
        served = tiny_kv.evaluate_served(kv_server, limit=6, concurrency=2)
        # evaluate_served closes its per-question sessions afterwards.
        assert kv_server.cache.session_ids == []
        # Two hops per question: one backend call per hop per question.
        assert served.stats is not None
        assert served.stats.calls == 6 * tiny_kv.config.hops
        assert kv_server.stats.completed == 6 * tiny_kv.config.hops

    def test_timing_phases_recorded(self, tiny_kv, kv_server):
        served = tiny_kv.evaluate_served(kv_server, limit=4, concurrency=2)
        assert served.comprehension_seconds > 0.0
        assert served.response_seconds > 0.0


class TestStreamingEvaluation:
    """Sessions built by mutator appends serve the same answers as
    sessions registered whole — incremental prepare is bit-identical,
    so the streamed MAP matches the direct evaluation exactly."""

    def test_streaming_matches_direct_exact_evaluation(
        self, tiny_kv, kv_server
    ):
        direct = tiny_kv.evaluate(ExactBackend(), limit=10)
        streamed = tiny_kv.evaluate_streaming(
            kv_server, limit=10, concurrency=4, append_rows=8
        )
        assert streamed.metric == pytest.approx(direct.metric, abs=1e-12)
        assert streamed.num_examples == direct.num_examples
        assert streamed.backend_name == "served-streaming"
        assert streamed.extra["appended_rows"] > 0
        assert kv_server.cache.session_ids == []  # cleaned up

    def test_streaming_with_approximate_backend_matches_served(self, tiny_kv):
        """With the real approximate engine, streamed sessions score
        identically to whole-registered ones — the acceptance-level
        claim at workload granularity."""
        from repro.serve import AttentionServer

        def make_server():
            return AttentionServer(
                ServerConfig(
                    batch=BatchPolicy(max_batch_size=16, max_wait_seconds=0.002),
                    num_workers=2,
                    cache_capacity_bytes=None,
                )
            )

        with make_server() as whole:
            served = tiny_kv.evaluate_served(whole, limit=8, concurrency=2)
        with make_server() as streaming:
            streamed = tiny_kv.evaluate_streaming(
                streaming, limit=8, concurrency=2, append_rows=4
            )
        assert streamed.metric == pytest.approx(served.metric, abs=1e-12)

    def test_bad_streaming_parameters_rejected(self, tiny_kv, kv_server):
        with pytest.raises(ValueError):
            tiny_kv.evaluate_streaming(kv_server, limit=2, prefix_fraction=1.5)
        with pytest.raises(ValueError):
            tiny_kv.evaluate_streaming(kv_server, limit=2, append_rows=0)


class TestTierFrontier:
    """The MAP-vs-p95 frontier: the workload-level view of the dial."""

    def _factory(self):
        def make_server():
            return AttentionServer(
                ServerConfig(
                    batch=BatchPolicy(max_batch_size=16, max_wait_seconds=0.002),
                    num_workers=2,
                    cache_capacity_bytes=None,
                )
            )

        return make_server

    def test_frontier_rows_cover_every_tier(self, tiny_kv):
        rows = tiny_kv.evaluate_tier_frontier(
            self._factory(), limit=8, concurrency=2
        )
        assert [row["tier"] for row in rows] == [
            "exact", "conservative", "aggressive",
        ]
        for row in rows:
            assert 0.0 <= row["map"] <= 1.0
            assert row["p95_latency_seconds"] >= row["p50_latency_seconds"] >= 0
            assert row["completed"] == 8 * tiny_kv.config.hops
        # Selection work shrinks monotonically down the quality ladder;
        # the exact tier attends over every row by definition.
        fractions = [row["kept_fraction"] for row in rows]
        assert fractions[0] == 1.0
        assert fractions[0] >= fractions[1] >= fractions[2]

    def test_exact_tier_map_matches_direct_exact(self, tiny_kv):
        direct = tiny_kv.evaluate(ExactBackend(), limit=8)
        rows = tiny_kv.evaluate_tier_frontier(
            self._factory(), tiers=("exact",), limit=8, concurrency=2
        )
        assert rows[0]["map"] == pytest.approx(direct.metric, abs=1e-9)

    def test_pinned_tier_evaluation_matches_default_config(self, tiny_kv):
        """Pinning the conservative tier must reproduce the untiered
        evaluation exactly: the tier serves the server's configured
        operating point."""
        factory = self._factory()
        with factory() as server:
            untiered = tiny_kv.evaluate_served(server, limit=6, concurrency=2)
        with factory() as server:
            pinned = tiny_kv.evaluate_served(
                server, limit=6, concurrency=2, tier="conservative"
            )
        assert pinned.metric == pytest.approx(untiered.metric, abs=1e-12)
        assert pinned.backend_name == "served@conservative"
