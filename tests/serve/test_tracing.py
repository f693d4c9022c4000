"""Per-request trace spans: the span-sum invariant and the RPC link.

The load-bearing claims:

* **off by default and free**: a default-config server never allocates
  a span, never samples, and requests carry ``span=None``;
* **bit-identity**: tracing at 100% sampling changes nothing about the
  served outputs — the span machinery observes the request path, it
  never participates in it;
* **the span-sum invariant (S1)**: every sampled request yields a root
  ``request`` span whose six stage children (submit → queue →
  batch_formation → dispatch → kernel → resolve) are contiguous on the
  shared :func:`repro.serve.observability.now` clock, so their
  durations telescope *exactly* to the root's end-to-end latency;
* **cross-RPC reconstruction** (the acceptance bar): a sampled request
  into a two-shard **spawn** cluster reconstructs one complete tree —
  ``cluster_request → rpc → request → stages`` — with parent/child ids
  linking across the process boundary via ``TraceContext`` in the pipe
  protocol;
* failures leave a span too (an ``error`` attribute on the root), the
  exemplar ring keeps the slowest requests through buffer drains, and
  the JSONL export round-trips.
"""

import json
import time

import numpy as np
import pytest

from repro.serve import (
    AttentionClient,
    AttentionServer,
    BatchPolicy,
    ClusterConfig,
    NetworkFrontend,
    ServerConfig,
    ServerOverloadedError,
    ShardedAttentionServer,
    ThreadShard,
    Tracer,
)
from repro.serve import protocol
from repro.serve.service import SpansOp, TelemetryOp
from repro.serve.tracing import span_index, span_roots, stage_summary

N, D = 48, 12

STAGES = [
    "submit", "queue", "batch_formation", "dispatch", "kernel", "resolve",
]


def _memory(seed=0, n=N, d=D):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)), rng.normal(size=(n, d))


def _server(**kw):
    kw.setdefault(
        "batch", BatchPolicy(max_batch_size=8, max_wait_seconds=0.002)
    )
    return AttentionServer(ServerConfig(num_workers=1, **kw))


def _traced_cluster(spawn=False):
    return ShardedAttentionServer(
        ClusterConfig(
            num_shards=2,
            spawn=spawn,
            shard=ServerConfig(
                num_workers=1,
                batch=BatchPolicy(max_batch_size=8, max_wait_seconds=0.002),
                trace_sample_rate=1.0,
            ),
        )
    )


class TestTracerUnit:
    def test_sample_rate_validated(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=-0.1)
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)
        with pytest.raises(ValueError):
            Tracer(sample_rate=0.5, max_spans=0)

    def test_enabled_and_sampling_extremes(self):
        assert not Tracer().enabled
        assert not Tracer().sample()
        always = Tracer(sample_rate=1.0)
        assert always.enabled
        assert all(always.sample() for _ in range(32))

    def test_buffer_bounds_and_dropped_counter(self):
        tracer = Tracer(sample_rate=1.0, max_spans=4)
        for i in range(7):
            tracer.record(tracer.start_span(f"s{i}"))
        assert len(tracer.spans()) == 4
        assert tracer.dropped == 3
        assert [s["name"] for s in tracer.spans()] == [
            "s3", "s4", "s5", "s6",
        ]

    def test_exemplar_ring_keeps_slowest_roots_through_drain(self):
        tracer = Tracer(sample_rate=1.0, exemplar_capacity=2)
        for name, duration in [("a", 0.1), ("b", 0.5), ("c", 0.01),
                               ("d", 0.3)]:
            span = tracer.start_span(name)
            tracer.record(span, ended_at=span.started_at + duration)
        assert tracer.drain() != []
        assert tracer.spans() == []  # buffer cleared...
        exemplars = tracer.exemplars()  # ...but the worst offenders stay
        assert [e["name"] for e in exemplars] == ["b", "d"]

    def test_non_root_spans_stay_out_of_exemplars(self):
        tracer = Tracer(sample_rate=1.0)
        root = tracer.start_span("request")
        child = tracer.start_span(
            "kernel", trace_id=root.trace_id, parent_id=root.span_id
        )
        tracer.record(child, ended_at=child.started_at + 9.0)
        tracer.record(root, ended_at=root.started_at + 0.1)
        assert [e["name"] for e in tracer.exemplars()] == ["request"]

    def test_export_jsonl_round_trips(self, tmp_path):
        tracer = Tracer(sample_rate=1.0)
        for i in range(3):
            tracer.record(tracer.start_span(f"s{i}"))
        path = tmp_path / "spans.jsonl"
        assert tracer.export_jsonl(path, clear=True) == 3
        assert tracer.spans() == []
        lines = path.read_text().splitlines()
        assert [json.loads(line)["name"] for line in lines] == [
            "s0", "s1", "s2",
        ]


class TestServerTracing:
    def test_off_by_default(self):
        server = _server()
        key, value = _memory(1)
        server.register_session("a", key, value)
        with server:
            request = server.submit("a", np.zeros(D))
            request.result(timeout=5.0)
        assert not server.tracer.enabled
        assert request.span is None
        assert server.trace_spans() == []

    def test_span_sum_invariant_and_stage_order(self):
        """S1: the six stage spans are contiguous and telescope exactly
        to the root request span — one clock, no gaps, no overlap."""
        server = _server(trace_sample_rate=1.0)
        key, value = _memory(2)
        server.register_session("a", key, value)
        rng = np.random.default_rng(3)
        with server:
            for _ in range(5):
                server.attend("a", rng.normal(size=D))
        spans = server.trace_spans()
        roots = span_roots(spans)
        assert len(roots) == 5
        for root in roots:
            assert root["name"] == "request"
            children = root["children"]
            assert [c["name"] for c in children] == STAGES
            # Contiguous: each stage starts where the previous ended.
            assert children[0]["started_at"] == root["started_at"]
            for prev, nxt in zip(children, children[1:]):
                assert prev["ended_at"] == nxt["started_at"]
            assert children[-1]["ended_at"] == root["ended_at"]
            child_sum = sum(c["duration_seconds"] for c in children)
            assert abs(child_sum - root["duration_seconds"]) < 1e-9

    def test_batch_formation_span_says_why_the_fill_ended(self):
        """The fill-loop exit is exported twice: on each request's
        ``batch_formation`` span and in the fill-exits counter.  A group
        with no arrival history holds to its deadline; the next request
        of that group comes more than a whole wait later, so it leaves
        ``idle`` at once; a new group (another tier) holds and fills."""
        server = _server(
            trace_sample_rate=1.0,
            batch=BatchPolicy(max_batch_size=2, max_wait_seconds=0.25),
        )
        key, value = _memory(9)
        server.register_session("a", key, value)
        rng = np.random.default_rng(10)
        with server:
            server.attend("a", rng.normal(size=D))
            server.attend("a", rng.normal(size=D))
            server.attend_many("a", rng.normal(size=(2, D)), tier="aggressive")
            samples = server.metrics_registry().samples()
        roots = sorted(
            span_roots(server.trace_spans()), key=lambda s: s["started_at"]
        )
        exits = [
            child["attrs"]["fill_exit"]
            for root in roots
            for child in root["children"]
            if child["name"] == "batch_formation"
        ]
        assert exits == ["deadline", "idle", "full", "full"]
        counted = {
            labels["reason"]: value
            for name, labels, value in samples
            if name == "repro_serve_batch_fill_exits_total"
        }
        assert counted == {"full": 1, "deadline": 1, "idle": 1, "closed": 0}

    def test_tracing_never_changes_served_outputs(self):
        key, value = _memory(4)
        rng = np.random.default_rng(5)
        queries = rng.normal(size=(12, D))
        outputs = []
        for rate in (0.0, 1.0):
            server = _server(trace_sample_rate=rate)
            server.register_session("a", key, value)
            with server:
                outputs.append(server.attend_many("a", queries))
        np.testing.assert_array_equal(outputs[0], outputs[1])

    def test_rejected_request_leaves_error_span(self):
        server = AttentionServer(
            ServerConfig(
                num_workers=1,
                batch=BatchPolicy(
                    max_batch_size=4, max_queue_depth=2, overload="reject"
                ),
                trace_sample_rate=1.0,
            )
        )
        key, value = _memory(6)
        server.register_session("a", key, value)
        # Not started: the queue can only fill.
        server.submit("a", np.zeros(D))
        server.submit("a", np.zeros(D))
        with pytest.raises(ServerOverloadedError):
            server.submit("a", np.zeros(D))
        spans = server.trace_spans()
        errored = [s for s in spans if s["attrs"].get("error")]
        assert len(errored) == 1
        assert errored[0]["name"] == "request"
        assert errored[0]["attrs"]["error"] == "ServerOverloadedError"
        server.stop(timeout=1.0)

    def test_stage_summary_aggregates_all_stages(self):
        server = _server(trace_sample_rate=1.0)
        key, value = _memory(7)
        server.register_session("a", key, value)
        rng = np.random.default_rng(8)
        with server:
            for _ in range(4):
                server.attend("a", rng.normal(size=D))
        summary = stage_summary(server.trace_spans())
        for stage in STAGES + ["request"]:
            assert summary[stage]["count"] == 4
            assert summary[stage]["total_seconds"] >= 0.0


class TestClusterTracing:
    def _assert_full_tree(self, spans, completed):
        """Every sampled request reconstructs cluster_request → rpc →
        request → the six stages, linked purely by parent/child ids."""
        roots = span_roots(spans)
        cluster_roots = [r for r in roots if r["name"] == "cluster_request"]
        assert len(cluster_roots) == completed
        index = span_index(spans)
        for root in cluster_roots:
            rpcs = [c for c in root["children"] if c["name"] == "rpc"]
            assert len(rpcs) == 1
            rpc = rpcs[0]
            assert rpc["trace_id"] == root["trace_id"]
            assert index[rpc["parent_id"]] is not root  # copies in tree
            assert index[rpc["parent_id"]]["span_id"] == root["span_id"]
            requests = [
                c for c in rpc["children"] if c["name"] == "request"
            ]
            assert len(requests) == 1
            request = requests[0]
            assert request["trace_id"] == root["trace_id"]
            assert [c["name"] for c in request["children"]] == STAGES
            for stage in request["children"]:
                assert stage["trace_id"] == root["trace_id"]
                assert stage["parent_id"] == request["span_id"]

    def test_thread_cluster_links_shard_spans(self):
        cluster = _traced_cluster(spawn=False)
        key, value = _memory(9)
        cluster.register_session("a", key, value)
        cluster.register_session("b", *_memory(10))
        rng = np.random.default_rng(11)
        with cluster:
            for _ in range(3):
                cluster.attend("a", rng.normal(size=D))
                cluster.attend("b", rng.normal(size=D))
            spans = cluster.trace_spans()
        self._assert_full_tree(spans, completed=6)

    def test_trace_export_reads_spans_without_the_books(self, monkeypatch):
        """A trace export asks each shard for its spans alone — no
        telemetry read, same span trees — so its answer stays small
        however full the books are: on a server fed 128,000 recorded
        requests the span frame is a sliver of the telemetry frame."""
        sent = []
        call = ThreadShard.call

        def recorded(self, op, trace_ctx=None):
            sent.append(type(op))
            return call(self, op, trace_ctx)

        monkeypatch.setattr(ThreadShard, "call", recorded)
        cluster = _traced_cluster(spawn=False)
        cluster.register_session("a", *_memory(9))
        cluster.register_session("b", *_memory(10))
        rng = np.random.default_rng(11)
        with cluster:
            for _ in range(3):
                cluster.attend("a", rng.normal(size=D))
                cluster.attend("b", rng.normal(size=D))
            sent.clear()
            spans = cluster.trace_spans()
        assert sent == [SpansOp, SpansOp]
        self._assert_full_tree(spans, completed=6)

        server = _server(trace_sample_rate=1.0)
        with server:
            server.register_session("a", *_memory(12))
            server.attend("a", rng.normal(size=D))
        for _ in range(1000):
            server.stats.record_batch([1e-3] * 128, [2e-3] * 128, 3e-3, 128)
        service = server.service()
        drained = service.call(SpansOp())
        assert [r["name"] for r in span_roots(drained.spans)] == ["request"]
        spans = protocol.encode_result(drained, 1)
        books = protocol.encode_result(service.call(TelemetryOp()), 2)
        assert len(spans) * 100 < len(books)

    def test_spawn_cluster_links_spans_across_rpc(self):
        """The acceptance bar: a sampled request into a 2-shard spawn
        cluster reconstructs its complete span tree across the process
        boundary — the shard-side ``request`` span parents under the
        cluster-side ``rpc`` span by id, via TraceContext in the pipe."""
        cluster = _traced_cluster(spawn=True)
        key, value = _memory(12)
        cluster.register_session("a", key, value)
        cluster.register_session("b", *_memory(13))
        rng = np.random.default_rng(14)
        try:
            with cluster:
                for _ in range(2):
                    cluster.attend("a", rng.normal(size=D))
                    cluster.attend("b", rng.normal(size=D))
                spans = cluster.trace_spans()
        finally:
            cluster.stop(timeout=10.0)
        self._assert_full_tree(spans, completed=4)
        # The shard-side spans really did cross a process boundary.
        pids = {s["pid"] for s in spans if s["name"] == "request"}
        cluster_pids = {
            s["pid"] for s in spans if s["name"] == "cluster_request"
        }
        assert pids and not (pids & cluster_pids)

    def test_spawn_cluster_spans_survive_stop(self):
        """Spans buffered in a child at shutdown are banked with the
        final snapshot and still drainable afterwards."""
        cluster = _traced_cluster(spawn=True)
        key, value = _memory(15)
        cluster.register_session("a", key, value)
        rng = np.random.default_rng(16)
        try:
            with cluster:
                for _ in range(3):
                    cluster.attend("a", rng.normal(size=D))
        finally:
            cluster.stop(timeout=10.0)
        spans = cluster.trace_spans()
        roots = span_roots(spans)
        assert len(
            [r for r in roots if r["name"] == "cluster_request"]
        ) == 3
        assert cluster.trace_spans() == []  # drain-once

    def test_remote_trace_crosses_frontend_and_spawn_cluster(self):
        """One traced client request through a network frontend into a
        2-shard spawn cluster yields one chain,
        ``client_request → cluster_request → rpc → request``: the
        frontend hands the client's context to the cluster, whose root
        parents under it, and the rpc context rides the attend frame to
        the child."""
        cluster = _traced_cluster(spawn=True)
        key, value = _memory(18)
        client_tracer = Tracer(sample_rate=1.0)
        try:
            with cluster, NetworkFrontend(cluster) as front:
                with AttentionClient(
                    front.address, tracer=client_tracer
                ) as client:
                    client.register_session("a", key, value)
                    client.attend_many("a", np.zeros((1, D)))
                spans = client_tracer.drain() + cluster.trace_spans()
                # A shard records a batch's spans right after answering
                # it (span readout stays off the critical path), so the
                # shard half of the tree may land one drain later.
                deadline = time.monotonic() + 10.0
                while not any(s["name"] == "request" for s in spans):
                    assert time.monotonic() < deadline, "no shard spans"
                    spans += cluster.trace_spans()
        finally:
            cluster.stop(timeout=10.0)
        roots = span_roots(spans)
        assert [r["name"] for r in roots] == ["client_request"]
        chain = [roots[0]]
        for name in ("cluster_request", "rpc", "request"):
            (child,) = [c for c in chain[-1]["children"] if c["name"] == name]
            chain.append(child)
        assert len({span["trace_id"] for span in chain}) == 1
        assert chain[-1]["pid"] != chain[1]["pid"]

    def test_cluster_tracing_off_by_default(self):
        cluster = ShardedAttentionServer(
            ClusterConfig(
                num_shards=2,
                shard=ServerConfig(
                    num_workers=1,
                    batch=BatchPolicy(
                        max_batch_size=8, max_wait_seconds=0.002
                    ),
                ),
            )
        )
        key, value = _memory(17)
        cluster.register_session("a", key, value)
        with cluster:
            cluster.attend("a", np.zeros(D))
            assert cluster.trace_spans() == []
