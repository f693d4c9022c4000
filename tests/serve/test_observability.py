"""Unified metrics registry, Prometheus exposition, kernel profiling.

The load-bearing claims:

* the registry's counter/gauge/histogram families behave (label
  validation, monotonic counters, bucket math) and the text exposition
  **round-trips** through the minimal parser — what CI pins so the
  format never silently drifts from what a real Prometheus scrape
  could ingest;
* a server's ``metrics_text()`` agrees with its ``snapshot()`` (one
  source of truth, two surfaces), and each shard's samples in the
  cluster exposition are its own exposition's plus a ``shard`` label;
* the kernel profiling seam is off by default (``HOOK is None``) and,
  when enabled, captures every vectorized pipeline stage plus the
  splice/rebuild mutation stages;
* the ``snapshot()`` schema — server and cluster — is frozen: new keys
  are deliberate, renames are breaking (S3);
* a slow-but-alive shard (``FaultInjector.delay``) is *not* declared
  down below the miss threshold, and its inflated latencies land in
  the pooled cluster percentiles (gray failure, S2).
"""

import numpy as np
import pytest

from repro.core import profiling
from repro.core.backends import ApproximateBackend
from repro.core.config import conservative
from repro.serve import (
    AttentionServer,
    BatchPolicy,
    ClusterConfig,
    FaultInjector,
    MetricsOp,
    MetricsRegistry,
    ServerConfig,
    ShardedAttentionServer,
    StageProfiler,
    parse_exposition,
    publish_profile,
)
from repro.serve.tracing import stage_summary

N, D = 48, 12


def _memory(seed=0, n=N, d=D):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)), rng.normal(size=(n, d))


def _server(**kw):
    kw.setdefault(
        "batch", BatchPolicy(max_batch_size=8, max_wait_seconds=0.002)
    )
    return AttentionServer(ServerConfig(num_workers=1, **kw))


def _samples(parsed, family):
    """One parsed family's samples as a dict keyed by
    ``(sample_name, sorted label pairs)``."""
    return {
        (name, tuple(sorted(labels.items()))): value
        for name, labels, value in parsed[family]["samples"]
    }


class TestMetricsRegistry:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        c = registry.counter("repro_test_total", "help")
        c.inc()
        c.inc(2.5)
        assert any(
            name == "repro_test_total" and value == 3.5
            for name, _, value in registry.samples()
        )
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labelled_family_validates_names(self):
        registry = MetricsRegistry()
        c = registry.counter("repro_test_total", "help", labelnames=("tier",))
        c.labels(tier="exact").inc(2)
        with pytest.raises(ValueError):
            c.labels(shard="x")
        with pytest.raises(ValueError):
            c.inc()  # labelled family needs .labels()

    def test_redeclaration_is_idempotent_but_conflicts_raise(self):
        registry = MetricsRegistry()
        a = registry.gauge("repro_test_gauge", "help")
        b = registry.gauge("repro_test_gauge", "help")
        assert a is b
        with pytest.raises(ValueError):
            registry.counter("repro_test_gauge", "help")
        with pytest.raises(ValueError):
            registry.gauge("repro_test_gauge", "help", labelnames=("x",))

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        h = registry.histogram(
            "repro_test_seconds", "help", buckets=(0.1, 1.0)
        )
        h.observe_each([0.05, 0.5, 5.0])
        samples = {
            (name, labels.get("le")): value
            for name, labels, value in registry.samples()
        }
        assert samples[("repro_test_seconds_bucket", "0.1")] == 1
        assert samples[("repro_test_seconds_bucket", "1")] == 2
        assert samples[("repro_test_seconds_bucket", "+Inf")] == 3
        assert samples[("repro_test_seconds_count", None)] == 3
        assert samples[("repro_test_seconds_sum", None)] == pytest.approx(5.55)


class TestExpositionRoundTrip:
    def test_text_format_round_trips_through_parser(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_test_total", "a counter", labelnames=("tier",)
        ).labels(tier="exact").inc(2)
        registry.gauge("repro_test_gauge", 'quoted "help" \\ line').set(-1.5)
        h = registry.histogram(
            "repro_test_seconds", "a histogram", buckets=(0.5,)
        )
        h.observe(0.25)
        h.observe(2.0)
        parsed = parse_exposition(registry.expose())
        assert parsed["repro_test_total"]["type"] == "counter"
        counter = _samples(parsed, "repro_test_total")
        assert counter[("repro_test_total", (("tier", "exact"),))] == 2
        gauge = _samples(parsed, "repro_test_gauge")
        assert gauge[("repro_test_gauge", ())] == -1.5
        assert parsed["repro_test_seconds"]["type"] == "histogram"
        hist = _samples(parsed, "repro_test_seconds")
        assert hist[("repro_test_seconds_bucket", (("le", "0.5"),))] == 1
        assert hist[("repro_test_seconds_bucket", (("le", "+Inf"),))] == 2
        assert hist[("repro_test_seconds_count", ())] == 2
        assert hist[("repro_test_seconds_sum", ())] == 2.25

    def test_label_values_escape_and_unescape(self):
        registry = MetricsRegistry()
        tricky = 'a"b\\c\nd'
        registry.gauge(
            "repro_test_gauge", "help", labelnames=("session",)
        ).labels(session=tricky).set(1)
        parsed = parse_exposition(registry.expose())
        ((_, labels, _value),) = parsed["repro_test_gauge"]["samples"]
        assert labels["session"] == tricky

    def test_server_exposition_matches_snapshot(self):
        server = _server()
        key, value = _memory(1)
        server.register_session("tenant", key, value)
        rng = np.random.default_rng(2)
        with server:
            for _ in range(6):
                server.attend("tenant", rng.normal(size=D))
            snapshot = server.snapshot()
            parsed = parse_exposition(server.metrics_text())
        requests = _samples(parsed, "repro_serve_requests_total")
        assert requests[
            ("repro_serve_requests_total", (("outcome", "submitted"),))
        ] == snapshot["submitted"]
        assert requests[
            ("repro_serve_requests_total", (("outcome", "completed"),))
        ] == snapshot["completed"]
        latency = _samples(parsed, "repro_serve_request_latency_seconds")
        assert latency[
            ("repro_serve_request_latency_seconds_count", ())
        ] == snapshot["completed"]
        cache = _samples(parsed, "repro_serve_cache_lookups_total")
        assert cache[
            ("repro_serve_cache_lookups_total", (("outcome", "miss"),))
        ] == snapshot["cache"]["misses"]
        tier_info = _samples(parsed, "repro_serve_default_tier_info")
        assert tier_info[
            ("repro_serve_default_tier_info", (("tier", "conservative"),))
        ] == 1

    def test_cluster_merge_labels_shards_and_sums(self):
        cluster = ShardedAttentionServer(
            ClusterConfig(
                num_shards=2,
                shard=ServerConfig(
                    num_workers=1,
                    batch=BatchPolicy(max_batch_size=8,
                                      max_wait_seconds=0.002),
                ),
            )
        )
        key, value = _memory(3)
        for sid in ("a", "b", "c", "d"):
            cluster.register_session(sid, key, value)
        rng = np.random.default_rng(4)
        with cluster:
            for _ in range(3):
                for sid in ("a", "b", "c", "d"):
                    cluster.attend(sid, rng.normal(size=D))
            snapshot = cluster.snapshot()["cluster"]
            parsed = parse_exposition(cluster.metrics_text())
        per_shard = {
            labels["shard"]: count
            for name, labels, count in parsed[
                "repro_serve_requests_total"
            ]["samples"]
            if labels["outcome"] == "completed"
        }
        assert sorted(per_shard) == ["shard-0", "shard-1"]
        assert sum(per_shard.values()) == snapshot["completed"] == 12
        liveness = parsed["repro_cluster_shard_up"]["samples"]
        assert all(value == 1 for _, _, value in liveness)
        assert _samples(parsed, "repro_cluster_shards")[
            ("repro_cluster_shards", ())
        ] == 2


class TestKernelProfiling:
    def test_hook_is_off_by_default(self):
        assert profiling.HOOK is None

    def test_stage_profiler_captures_vectorized_stages(self):
        key, value = _memory(5, n=128, d=16)
        backend = ApproximateBackend(conservative(), engine="vectorized")
        backend.prepare(key)
        queries = np.random.default_rng(6).normal(size=(4, 16))
        with StageProfiler() as prof:
            backend.attend_many(key, value, queries)
        summary = prof.summary()
        for stage in (
            "search.boundary_estimate",
            "search.stream_extraction",
            "search.gated_walk",
            "search.accumulate",
            "search.finalize",
            "attend.candidate_search",
            "attend.score_gemm",
            "attend.post_scoring",
            "attend.softmax_scatter",
        ):
            assert stage in summary, stage
            assert summary[stage]["calls"] >= 1
            assert summary[stage]["total_seconds"] >= 0.0
        # The seam restores the previous hook on exit.
        assert profiling.HOOK is None

    def test_profiler_captures_splice_and_rebuild_stages(self):
        key, value = _memory(7)
        server = _server()
        server.register_session("tenant", key, value)
        rng = np.random.default_rng(8)
        with server, StageProfiler() as prof:
            server.attend("tenant", rng.normal(size=D))
            mutator = server.mutator("tenant")
            mutator.append_rows(
                rng.normal(size=(4, D)), rng.normal(size=(4, D))
            )
            server.attend("tenant", rng.normal(size=D))
        summary = prof.summary()
        assert "splice.append" in summary
        assert "mutate.splice" in summary  # every mutation splices

    def test_publish_profile_emits_kernel_metrics(self):
        prof = StageProfiler()
        prof.record("search.gated_walk", 0.25)
        prof.record("search.gated_walk", 0.75)
        registry = MetricsRegistry()
        publish_profile(registry, prof)
        parsed = parse_exposition(registry.expose())
        calls = _samples(parsed, "repro_kernel_stage_calls_total")
        seconds = _samples(parsed, "repro_kernel_stage_seconds_total")
        key = (("stage", "search.gated_walk"),)
        assert calls[("repro_kernel_stage_calls_total", key)] == 2
        assert seconds[("repro_kernel_stage_seconds_total", key)] == 1.0


    @pytest.mark.parametrize("spawn", [False, True], ids=["thread", "spawn"])
    def test_cluster_exposition_is_each_shards_own(self, spawn):
        """Each shard's record is rendered by the server's own metrics
        code, so its samples in the cluster exposition are exactly its
        own exposition's plus ``shard=``."""
        cluster = ShardedAttentionServer(
            ClusterConfig(
                num_shards=2,
                spawn=spawn,
                shard=ServerConfig(
                    num_workers=1,
                    batch=BatchPolicy(max_batch_size=8,
                                      max_wait_seconds=0.002),
                ),
            )
        )
        key, value = _memory(15)
        for sid in ("a", "b", "c", "d"):
            cluster.register_session(sid, key, value)
        rng = np.random.default_rng(16)
        with cluster:
            for _ in range(3):
                for sid in ("a", "b", "c", "d"):
                    cluster.attend(sid, rng.normal(size=D))
            merged = parse_exposition(cluster.metrics_text())
            own = {
                shard_id: parse_exposition(
                    cluster._shards[shard_id].call(MetricsOp()).text
                )
                for shard_id in cluster.shard_ids
            }
        assert sorted(own) == ["shard-0", "shard-1"]
        for shard_id, families in own.items():
            expected = sorted(
                (name, sorted({**labels, "shard": shard_id}.items()), value)
                for family in families.values()
                for name, labels, value in family["samples"]
            )
            rendered = sorted(
                (name, sorted(labels.items()), value)
                for family, parsed in merged.items()
                if family.startswith("repro_serve_")
                for name, labels, value in parsed["samples"]
                if labels["shard"] == shard_id
            )
            assert rendered == expected


class TestGrayFailure:
    """S2: a slow-but-alive shard must not be declared down early, and
    its inflated latencies must show up in the pooled percentiles."""

    def _cluster(self):
        return ShardedAttentionServer(
            ClusterConfig(
                num_shards=2,
                replication=1,
                shard=ServerConfig(
                    num_workers=1,
                    batch=BatchPolicy(max_batch_size=8,
                                      max_wait_seconds=0.0),
                ),
            )
        )

    def test_delayed_shard_survives_probes_below_miss_threshold(self):
        cluster = self._cluster()
        with cluster:
            monitor = cluster.monitor()
            slow = cluster.shard_ids[0]
            cluster.fault_injector.delay(slow, 0.01)
            # Heartbeats are slow but *succeed*: below `misses`
            # consecutive failures nothing may fire, ever.
            for _ in range(monitor.misses + 2):
                assert monitor.probe_once() == []
            assert monitor.events == []
            assert slow in cluster.shard_ids
            assert cluster.down_shards == {}

    def test_delayed_shard_latency_lands_in_pooled_percentiles(self):
        # The injected delay sleeps at the RPC surface, *before* the
        # shard server starts its own clock — exactly the gray failure
        # shard-local stats can't see.  The cluster's trace spans wrap
        # the whole dispatch, so the pooled per-request percentiles do.
        cluster = ShardedAttentionServer(
            ClusterConfig(
                num_shards=2,
                replication=1,
                shard=ServerConfig(
                    num_workers=1,
                    batch=BatchPolicy(max_batch_size=8,
                                      max_wait_seconds=0.0),
                    trace_sample_rate=1.0,
                ),
            )
        )
        key, value = _memory(9)
        for sid in ("a", "b", "c", "d", "e", "f"):
            cluster.register_session(sid, key, value)
        by_shard = {}
        for sid in ("a", "b", "c", "d", "e", "f"):
            by_shard.setdefault(cluster.session_shard(sid), sid)
        assert len(by_shard) == 2, "need a session on each shard"
        delay = 0.05
        rng = np.random.default_rng(10)
        with cluster:
            slow_shard, fast_shard = sorted(by_shard)
            cluster.fault_injector.delay(slow_shard, delay)
            for _ in range(4):
                cluster.attend(by_shard[slow_shard], rng.normal(size=D))
                cluster.attend(by_shard[fast_shard], rng.normal(size=D))
            snapshot = cluster.snapshot()
            spans = cluster.trace_spans()
        # The slow shard is still a live, counted member...
        assert snapshot["cluster"]["num_shards"] == 2
        assert snapshot["cluster"]["failover"]["failovers"] == 0
        # ...and its delay dominates the pooled per-request view while
        # every call the fast shard served stays well under it.
        summary = stage_summary(spans)
        assert summary["cluster_request"]["count"] == 8
        assert summary["cluster_request"]["p95_seconds"] >= delay
        fast_rpcs = [
            span["duration_seconds"]
            for span in spans
            if span["name"] == "rpc"
            and span["attrs"]["shard"] == fast_shard
        ]
        assert len(fast_rpcs) == 4
        assert max(fast_rpcs) < delay


class TestSnapshotSchemaFrozen:
    """S3: the snapshot key sets are API.  Adding a key is a deliberate
    act (update this test); renaming or dropping one is breaking."""

    SERVER_KEYS = {
        "submitted", "rejected", "completed", "failed", "batches",
        "mean_batch_size", "batch_size_histogram", "mean_queue_depth",
        "peak_queue_depth", "mean_queue_wait_seconds",
        "mean_service_seconds", "latency_seconds", "dropped_samples",
        "fused", "tiers", "quality", "cache", "selection", "default_tier",
    }
    LATENCY_KEYS = {"p50", "p95", "p99", "mean", "max"}
    CACHE_KEYS = {
        "hits", "misses", "evictions", "hit_rate", "prepare_seconds",
        "spills", "promotes", "spill_reaps",
    }
    CLUSTER_KEYS = {
        "num_shards", "retired_shards", "sessions", "sessions_per_shard",
        "completed_per_shard", "load_imbalance", "latency_seconds",
        "selection", "default_tier", "replication", "liveness",
        "failover", "submitted", "rejected", "completed", "failed",
        "batches", "tiers", "quality", "cache", "mean_batch_size",
        "batch_size_histogram", "mean_queue_depth", "peak_queue_depth",
        "mean_queue_wait_seconds", "mean_service_seconds",
        "dropped_samples", "fused",
    }
    FAILOVER_KEYS = {
        "failovers", "down_shards", "replica_retries", "replayed_sessions",
    }

    def test_server_snapshot_schema(self):
        server = _server()
        key, value = _memory(11)
        server.register_session("tenant", key, value)
        rng = np.random.default_rng(12)
        with server:
            server.attend("tenant", rng.normal(size=D))
            snapshot = server.snapshot()
        assert set(snapshot) == self.SERVER_KEYS
        assert set(snapshot["latency_seconds"]) == self.LATENCY_KEYS
        assert set(snapshot["cache"]) == self.CACHE_KEYS
        assert set(snapshot["quality"]) == {
            "downgraded_requests", "tier_downgrades", "tier_upgrades",
        }
        for cell in snapshot["tiers"].values():
            assert set(cell) == {
                "submitted", "completed", "failed", "latency_seconds",
            }

    def test_cluster_snapshot_schema(self):
        cluster = ShardedAttentionServer(
            ClusterConfig(
                num_shards=2,
                shard=ServerConfig(
                    num_workers=1,
                    batch=BatchPolicy(max_batch_size=8,
                                      max_wait_seconds=0.0),
                ),
            )
        )
        key, value = _memory(13)
        cluster.register_session("tenant", key, value)
        rng = np.random.default_rng(14)
        with cluster:
            cluster.attend("tenant", rng.normal(size=D))
            snapshot = cluster.snapshot()
        assert set(snapshot) == {"cluster", "shards"}
        cluster_view = snapshot["cluster"]
        assert set(cluster_view) == self.CLUSTER_KEYS
        assert set(cluster_view["failover"]) == self.FAILOVER_KEYS
        assert set(cluster_view["latency_seconds"]) == self.LATENCY_KEYS
        assert set(cluster_view["cache"]) == {
            "hits", "misses", "evictions", "hit_rate",
            "spills", "promotes", "prepare_seconds", "spill_reaps",
        }
        assert self.SERVER_KEYS <= self.CLUSTER_KEYS
        for cell in cluster_view["tiers"].values():
            assert set(cell) == {
                "submitted", "completed", "failed", "latency_seconds",
            }
        for shard_snapshot in snapshot["shards"].values():
            assert set(shard_snapshot) == self.SERVER_KEYS


class TestFaultInjectorDelay:
    """S2 groundwork: the injector's delay is slow-but-alive on both
    the RPC surface and the heartbeat path."""

    def test_delay_slows_but_does_not_fail_calls(self):
        injector = FaultInjector()
        injector.delay("s", 0.01)
        injector.check("s")  # no raise
        assert injector.heartbeat_ok("s") is True

    def test_restore_clears_delay(self):
        injector = FaultInjector()
        injector.delay("s", 0.01)
        injector.restore("s")
        assert injector.heartbeat_ok("s") is True
