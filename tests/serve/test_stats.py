"""Unit tests for the serving telemetry surface."""

from repro.core.backends import BackendStats
from repro.serve import ServerStats
from repro.serve.sessions import CacheStats


def _record(stats, size, latency=0.01, depth=0):
    stats.record_batch(
        queue_waits=[latency / 2] * size,
        latencies=[latency] * size,
        service_seconds=latency / 2,
        queue_depth=depth,
    )


class TestPercentiles:
    def test_known_distribution(self):
        stats = ServerStats()
        for i in range(100):
            _record(stats, 1, latency=(i + 1) / 1000.0)
        pcts = stats.latency_percentiles()
        assert abs(pcts["p50"] - 0.0505) < 1e-6
        assert pcts["p95"] > pcts["p50"]
        assert pcts["p99"] > pcts["p95"]
        assert pcts["max"] == 0.1
        assert abs(stats.latency_percentile(50) - pcts["p50"]) < 1e-12

    def test_empty_stats_are_zero(self):
        stats = ServerStats()
        assert stats.latency_percentiles()["p99"] == 0.0
        assert stats.mean_batch_size == 0.0
        assert stats.mean_queue_depth == 0.0


class TestHistogramAndCounters:
    def test_batch_size_histogram(self):
        stats = ServerStats()
        _record(stats, 4)
        _record(stats, 4)
        _record(stats, 1)
        assert stats.batch_size_histogram() == {1: 1, 4: 2}
        assert stats.mean_batch_size == 3.0
        assert stats.completed == 9
        assert stats.batches == 3

    def test_service_time_exposed(self):
        stats = ServerStats()
        _record(stats, 2, latency=0.02)
        _record(stats, 2, latency=0.04)
        assert abs(stats.mean_service_seconds - 0.015) < 1e-12
        assert "mean_service_seconds" in stats.snapshot()

    def test_queue_depth_tracking(self):
        stats = ServerStats()
        _record(stats, 1, depth=3)
        _record(stats, 1, depth=7)
        assert stats.mean_queue_depth == 5.0
        assert stats.peak_queue_depth == 7

    def test_failed_batches_counted_separately(self):
        stats = ServerStats()
        stats.record_batch([], [], 0.1, 0, failed=2)
        assert stats.failed == 2
        assert stats.completed == 0
        # Failure timings stay out of the success latency percentiles.
        assert stats.latency_percentiles()["max"] == 0.0
        _record(stats, 1, latency=0.005)
        assert stats.latency_percentiles()["max"] == 0.005

    def test_sample_cap_drops_but_counts(self):
        stats = ServerStats(max_samples=3)
        _record(stats, 2)
        _record(stats, 2)  # only 1 sample of room left
        assert stats.dropped_samples == 1
        assert stats.completed == 4  # counters unaffected by the cap


class TestBoundedReservoir:
    def test_soak_holds_memory_flat(self):
        """A 1M-request soak: retention stays pinned at max_samples (no
        unbounded growth) while every request is counted."""
        stats = ServerStats(max_samples=512)
        batch = 1000
        for i in range(1000):  # 1M requests total
            stats.record_batch(
                queue_waits=[0.0] * batch,
                latencies=[(i * batch + j) * 1e-6 for j in range(batch)],
                service_seconds=0.001,
                queue_depth=0,
            )
        assert stats.completed == 1_000_000
        assert len(stats.latency_samples()) == 512
        assert len(stats._queue_waits) == 512
        assert len(stats._service_times) == 512
        assert stats.dropped_samples == 1_000_000 - 512

    def test_reservoir_percentiles_track_whole_run(self):
        """The reservoir is a uniform sample over *all* requests, so
        percentiles reflect the full run — not just the first
        max_samples requests, as the old truncation did.  Latencies
        ramp from 0 to 1 over the run; truncation would freeze p50 near
        the first chunk's median (~0.005), the reservoir tracks ~0.5."""
        stats = ServerStats(max_samples=256)
        total, batch = 50_000, 500
        for i in range(total // batch):
            lats = [(i * batch + j) / total for j in range(batch)]
            stats.record_batch(
                queue_waits=[lat / 2 for lat in lats],
                latencies=lats,
                service_seconds=0.001,
                queue_depth=0,
            )
        pcts = stats.latency_percentiles()
        assert abs(pcts["p50"] - 0.5) < 0.12
        assert pcts["p99"] > 0.85
        assert 0.0 < stats.mean_queue_wait < 0.5

    def test_reservoir_below_capacity_is_exact(self):
        stats = ServerStats(max_samples=1000)
        for i in range(100):
            _record(stats, 1, latency=(i + 1) / 1000.0)
        assert len(stats.latency_samples()) == 100
        assert stats.dropped_samples == 0

    def test_reset_restarts_the_reservoir(self):
        stats = ServerStats(max_samples=4)
        _record(stats, 8)
        stats.reset()
        assert stats._samples_seen == 0
        _record(stats, 2)
        assert len(stats.latency_samples()) == 2
        assert stats.dropped_samples == 0

    def test_reset_clears_everything(self):
        stats = ServerStats()
        stats.record_submitted()
        _record(stats, 2)
        stats.reset()
        assert stats.submitted == 0
        assert stats.batches == 0
        assert stats.batch_size_histogram() == {}
        assert stats.latency_percentiles()["max"] == 0.0


class TestSnapshot:
    def test_snapshot_is_json_round_trippable(self):
        import json

        stats = ServerStats()
        stats.record_submitted()
        _record(stats, 2, depth=1)
        cache = CacheStats(hits=3, misses=1, evictions=1, prepare_seconds=0.1)
        backend = BackendStats(keep_traces=False)
        snapshot = stats.snapshot(cache_stats=cache, backend=backend)
        parsed = json.loads(json.dumps(snapshot))
        assert parsed["submitted"] == 1
        assert parsed["batches"] == 1
        assert parsed["cache"]["hit_rate"] == 0.75
        assert parsed["selection"]["calls"] == 0
        assert parsed["batch_size_histogram"] == {"2": 1}


class TestTierTelemetry:
    def test_per_tier_counters_and_latencies(self):
        stats = ServerStats()
        stats.record_submitted(tier="exact")
        stats.record_submitted(tier="aggressive", downgraded=True)
        _record(stats, 2, latency=0.02)
        stats.record_batch(
            queue_waits=[0.0] * 2, latencies=[0.04] * 2,
            service_seconds=0.01, queue_depth=0, tier="exact",
        )
        stats.record_batch(
            queue_waits=[], latencies=[], service_seconds=0.01,
            queue_depth=0, tier="aggressive", failed=1,
        )
        tiers = stats.tier_snapshot()
        assert tiers["exact"]["submitted"] == 1
        assert tiers["exact"]["completed"] == 2
        assert tiers["exact"]["latency_seconds"]["max"] == 0.04
        assert tiers["aggressive"]["failed"] == 1
        # Failed batches contribute no latency samples, tier or global.
        assert tiers["aggressive"]["latency_seconds"]["max"] == 0.0
        assert stats.downgraded_requests == 1
        # Untiered records (tier=None) touch only the global counters.
        assert stats.completed == 4
        assert sum(cell["completed"] for cell in tiers.values()) == 2

    def test_tier_change_counters(self):
        stats = ServerStats()
        stats.record_tier_change("exact", "conservative")
        stats.record_tier_change("conservative", "aggressive")
        stats.record_tier_change("aggressive", "conservative")
        stats.record_tier_change("conservative", "conservative")
        assert stats.tier_downgrades == 2
        assert stats.tier_upgrades == 1

    def test_recent_latency_window_drains(self):
        stats = ServerStats()
        _record(stats, 3, latency=0.01)
        assert stats.take_recent_latencies() == [0.01] * 3
        assert stats.take_recent_latencies() == []  # drained
        _record(stats, 1, latency=0.02)
        assert stats.take_recent_latencies() == [0.02]
        # The lifetime reservoir is unaffected by draining the window.
        assert stats.latency_percentiles()["max"] == 0.02

    def test_recent_window_is_bounded(self):
        stats = ServerStats()
        for i in range(0, ServerStats.RECENT_WINDOW + 100, 100):
            _record(stats, 100, latency=0.01)
        assert len(stats.take_recent_latencies()) == ServerStats.RECENT_WINDOW

    def test_snapshot_carries_tiers_and_quality(self):
        import json

        stats = ServerStats()
        stats.record_submitted(tier="conservative")
        stats.record_tier_change("conservative", "aggressive")
        snapshot = json.loads(json.dumps(stats.snapshot()))
        assert snapshot["tiers"]["conservative"]["submitted"] == 1
        assert snapshot["quality"] == {
            "downgraded_requests": 0,
            "tier_downgrades": 1,
            "tier_upgrades": 0,
        }

    def test_reset_clears_tier_state(self):
        stats = ServerStats()
        stats.record_submitted(tier="exact", downgraded=True)
        stats.record_tier_change("exact", "aggressive")
        _record(stats, 2)
        stats.reset()
        assert stats.tier_snapshot() == {}
        assert stats.downgraded_requests == 0
        assert stats.tier_downgrades == 0
        assert stats.take_recent_latencies() == []
