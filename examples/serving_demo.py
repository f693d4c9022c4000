"""Serving demo: a dynamic-batching attention service end to end.

Starts an :class:`repro.serve.AttentionServer`, registers tenant
sessions, fires concurrent single-query requests from client threads
(each client blocks on its response before sending the next — so the
batches you see below were formed by the server, not by the clients),
and prints the telemetry the serving layer keeps: the batch-size
histogram, latency percentiles, queue depth, and the prepared-key cache
hit rate.

With ``--sessions N`` the traffic spreads over N tenant sessions
instead of two.  Requests from *different* sessions at the same tier
fuse into single multi-key ragged dispatches
(:func:`repro.core.backends.attend_many_ragged`), and the
printout adds the cross-session fusion stats: how many batches fused
and how many sessions the widest dispatch spanned.  Try
``--sessions 16 --clients 16`` — every client pinned to its own tenant
is exactly the shape where per-session batching degenerates to batch
one, and where fusion keeps whole-batch dispatches alive.

With ``--shards N`` the same traffic runs against a
:class:`repro.serve.ShardedAttentionServer` instead: N replicas, each
with its own cache/batcher/scheduler stack, sessions placed by
consistent hashing — the printout then adds the per-shard split and the
load-imbalance metric.

With ``--stream-rows K`` the demo finishes with a *streaming* phase:
the first tenant's memory grows by K rows through a
:class:`repro.serve.SessionMutator` append (incremental splice — no
cold re-prepare, the cache entry survives in place) and a few more
requests run against the grown session.

With ``--slo-ms T`` (single-server mode) the demo ends with an
*SLO-aware degradation* phase: an
:class:`repro.serve.AdaptiveQualityController` with a p95 objective of
T milliseconds watches the telemetry while an overload burst of
best-effort clients is fired at the server — watch the controller
degrade the default tier from conservative to aggressive (and restore
it once the burst drains) instead of the queue blowing through the
SLO, with zero rejections.

With ``--replication R`` (sharded mode) every session lives on R
shards of the consistent-hash ring, and with ``--kill-shard`` the demo
crashes one session's primary shard *mid-traffic* (``SIGKILL`` under
``--spawn``, an injected fault in thread mode) while a
:class:`repro.serve.HeartbeatMonitor` watches: requests that were
in flight on the dead shard retry onto a surviving replica, lost
redundancy is re-seeded from the cluster's session records, and the
printout shows the detection event, the liveness map, and the
failover counters — with every request still answered.

With ``--listen HOST:PORT`` the demo becomes a *network server*: the
same server (including ``--shards``/``--spawn`` topologies) is wrapped
in a :class:`repro.serve.NetworkFrontend` and serves the binary wire
protocol until ``Ctrl-C`` (which drains in-flight requests before the
sockets close).  With ``--connect HOST:PORT`` the demo becomes a
*network client*: the traffic phases above run against a remote
frontend through :class:`repro.serve.AttentionClient` — same tenants,
same telemetry printout, batches formed on the far side of the socket.
Server-side knobs (``--shards``, ``--slo-ms``, ``--trace``, ...)
belong on the ``--listen`` process.

With ``--trace`` every request is sampled into a span tree (submit →
queue → batch_formation → dispatch → kernel → resolve; sharded mode
adds the ``cluster_request → rpc`` prefix above it) and the printout
ends with the per-stage latency breakdown, the slowest-request
exemplars, and — with ``--trace-jsonl PATH`` — a JSONL export of every
span.  With ``--metrics`` the demo prints the server's Prometheus text
exposition (cluster-wide, per-shard labelled, in sharded mode).

Usage::

    python examples/serving_demo.py [--clients 16] [--requests 12]
    python examples/serving_demo.py --sessions 16
    python examples/serving_demo.py --shards 2 [--spawn]
    python examples/serving_demo.py --stream-rows 64
    python examples/serving_demo.py --slo-ms 20
    python examples/serving_demo.py --shards 3 --replication 2 --kill-shard
    python examples/serving_demo.py --trace [--trace-jsonl spans.jsonl]
    python examples/serving_demo.py --shards 2 --metrics
    python examples/serving_demo.py --listen 127.0.0.1:8631 --shards 2
    python examples/serving_demo.py --connect 127.0.0.1:8631
"""

from __future__ import annotations

import argparse
import threading
import time

import numpy as np

from repro.serve import (
    AdaptiveQualityController,
    AttentionClient,
    AttentionServer,
    BatchPolicy,
    ClusterConfig,
    NetworkFrontend,
    QualityPolicy,
    ServerConfig,
    ShardedAttentionServer,
)
from repro.serve.client import parse_address
from repro.serve.tracing import stage_summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=16,
                        help="concurrent client threads (default 16)")
    parser.add_argument("--requests", type=int, default=12,
                        help="requests per client (default 12)")
    parser.add_argument("--sessions", type=int, default=2,
                        help="tenant sessions to spread the clients over "
                        "(default 2); sessions at the same tier fuse into "
                        "multi-key ragged dispatches")
    parser.add_argument("--shards", type=int, default=1,
                        help="shard replicas; > 1 serves through a "
                        "ShardedAttentionServer (default 1)")
    parser.add_argument("--spawn", action="store_true",
                        help="back each shard with a spawned process "
                        "(true multi-core parallelism)")
    parser.add_argument("--replication", type=int, default=1,
                        help="replicas per session in sharded mode "
                        "(default 1; use >= 2 with --kill-shard for "
                        "failover without replay-from-log)")
    parser.add_argument("--kill-shard", action="store_true",
                        help="crash one session's primary shard "
                        "mid-traffic and let the heartbeat monitor "
                        "fail it over (requires --shards > 1)")
    parser.add_argument("--stream-rows", type=int, default=32,
                        help="rows appended to the first tenant in the "
                        "streaming phase (0 disables it; default 32)")
    parser.add_argument("--slo-ms", type=float, default=0.0,
                        help="p95 latency objective in ms for the SLO-aware "
                        "degradation phase (0 disables it; single-server "
                        "mode only)")
    parser.add_argument("--trace", action="store_true",
                        help="sample every request into a span tree and "
                        "print the per-stage latency breakdown and the "
                        "slowest-request exemplars")
    parser.add_argument("--trace-jsonl", default="",
                        help="with --trace: also export every span to this "
                        "JSONL path")
    parser.add_argument("--metrics", action="store_true",
                        help="print the Prometheus text exposition at the "
                        "end of the run")
    parser.add_argument("--listen", default="",
                        help="serve the wire protocol on HOST:PORT instead "
                        "of running traffic (Ctrl-C drains and stops); "
                        "combines with --shards/--spawn")
    parser.add_argument("--connect", default="",
                        help="run the traffic phases against a remote "
                        "--listen frontend at HOST:PORT instead of an "
                        "in-process server")
    args = parser.parse_args()
    if args.listen and args.connect:
        parser.error("--listen and --connect are mutually exclusive")
    if args.connect:
        for on, name in ((args.shards > 1, "--shards"),
                         (args.spawn, "--spawn"),
                         (args.kill_shard, "--kill-shard"),
                         (args.slo_ms > 0, "--slo-ms"),
                         (args.trace, "--trace")):
            if on:
                parser.error(f"{name} is a server-side knob; set it on "
                             "the --listen process")
    if args.trace_jsonl and not args.trace:
        parser.error("--trace-jsonl needs --trace")
    if args.kill_shard and args.shards < 2:
        parser.error("--kill-shard needs --shards > 1 (someone must "
                     "survive to fail over to)")
    if args.replication > args.shards:
        parser.error(f"--replication {args.replication} exceeds "
                     f"--shards {args.shards}")
    if args.sessions < 1:
        parser.error("--sessions must be >= 1")

    rng = np.random.default_rng(0)
    n, d = 320, 64  # the paper's largest configuration

    slo_phase = args.slo_ms > 0 and args.shards == 1
    shard_config = ServerConfig(
        batch=BatchPolicy(
            max_batch_size=32,
            max_wait_seconds=0.005,
            max_queue_depth=1024,
            overload="block",
        ),
        num_workers=2,
        trace_sample_rate=1.0 if args.trace else 0.0,
        # The degradation ladder starts at the conservative operating
        # point: conservative -> aggressive is the software latency
        # dial (the exact tier rides one BLAS GEMM and is the fastest
        # wall-clock path here; it exists for pinning accuracy-critical
        # traffic, and its hardware cost lives in the fig14 model).
        default_tier="conservative",
    )
    if args.connect:
        server = AttentionClient(args.connect)
        print(f"connected to a remote frontend at {args.connect}")
    elif args.shards > 1:
        server = ShardedAttentionServer(
            ClusterConfig(
                num_shards=args.shards,
                shard=shard_config,
                spawn=args.spawn,
                replication=args.replication,
                heartbeat_interval_seconds=0.1,
                heartbeat_misses=2,
            )
        )
    else:
        server = AttentionServer(shard_config)

    if args.listen:
        # Network-server mode: the demo process owns the server, wraps
        # it in the network frontend, and serves the wire protocol
        # until a signal lands.  own_target=True means Ctrl-C drains
        # the batcher before the sockets close.
        host, port = parse_address(args.listen)
        front = NetworkFrontend(server, host, port, own_target=True)
        front.install_signal_handlers()
        front.start()
        host, port = front.address
        print(f"serving the wire protocol on {host}:{port} "
              f"({args.shards} shard(s)); drive it with")
        print(f"  python examples/serving_demo.py --connect {host}:{port}")
        print("Ctrl-C drains in-flight requests and stops.")
        while front.running:
            time.sleep(0.2)
        return

    if args.sessions <= 26:
        tenants = [f"tenant-{chr(ord('a') + i)}" for i in range(args.sessions)]
    else:
        tenants = [f"tenant-{i:03d}" for i in range(args.sessions)]
    for tenant in tenants:
        server.register_session(
            tenant, rng.normal(size=(n, d)), rng.normal(size=(n, d))
        )
    if args.sessions <= 4 and not args.connect:
        print(f"registered sessions: {server.cache.session_ids} "
              f"(n={n}, d={d})")
    else:
        print(f"registered {args.sessions} sessions (n={n}, d={d})")

    outputs: list[np.ndarray] = []
    lock = threading.Lock()

    def client(c: int) -> None:
        tenant = tenants[c % len(tenants)]
        client_rng = np.random.default_rng(100 + c)
        for _ in range(args.requests):
            out = server.attend(tenant, client_rng.normal(size=d))
            with lock:
                outputs.append(out)

    print(f"firing {args.clients} clients x {args.requests} requests ...")
    streamed = 0
    monitor = server.monitor() if args.kill_shard else None
    victim = ""
    with server:
        if monitor is not None:
            # Failover phase: a heartbeat monitor watches the cluster
            # while a killer thread crashes tenant-a's primary shard
            # mid-traffic.  In-flight requests on the victim retry onto
            # a surviving replica; the monitor (or the request path's
            # own retry, whichever hits first) declares it down.
            monitor.start()
            victim = server.session_shard(tenants[0])

            def killer() -> None:
                # Fire after a third of the traffic has completed —
                # progress-triggered, so the kill lands mid-burst on
                # fast and slow machines alike.
                target = max(1, (args.clients * args.requests) // 3)
                while True:
                    with lock:
                        done = len(outputs)
                    if done >= target:
                        break
                    time.sleep(0.002)
                print(f"  !! killing {victim} ({tenants[0]}'s primary) "
                      f"after {done} responses")
                server.kill_shard(victim)

            killer_thread = threading.Thread(target=killer)
            killer_thread.start()
        threads = [
            threading.Thread(target=client, args=(c,))
            for c in range(args.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if monitor is not None:
            killer_thread.join()
            # Short bursts can drain before the heartbeat window does;
            # give detection its window before reading the books.
            deadline = time.monotonic() + 15.0
            while victim in server.shard_ids:
                if time.monotonic() > deadline:
                    raise RuntimeError("failover never ran")
                time.sleep(0.05)
            monitor.stop()

        if args.stream_rows > 0:
            # Streaming phase: grow tenant-a's memory in place.  The
            # mutator splices the new rows into the prepared sorted-key
            # structures (no cold re-prepare — watch the cache counters
            # stay put) and later requests attend over the grown memory.
            mutator = server.mutator(tenants[0])
            session = mutator.append_rows(
                rng.normal(size=(args.stream_rows, d)),
                rng.normal(size=(args.stream_rows, d)),
            )
            print(f"\nstreamed {args.stream_rows} rows into {tenants[0]} "
                  f"(memory now {session.n} rows, prepared state spliced "
                  "in place)")
            for _ in range(4):
                out = server.attend(tenants[0], rng.normal(size=d))
                outputs.append(out)
                streamed += 1

        if slo_phase:
            # SLO phase: an overload burst of best-effort clients under
            # the quality controller.  Requests carry no tier, so they
            # follow the live default — which the controller degrades
            # while the windowed p95 violates the objective and
            # restores once the burst drains.  Nothing is rejected.
            burst_clients = max(args.clients, 32)
            policy = QualityPolicy(
                slo_p95_seconds=args.slo_ms / 1e3,
                interval_seconds=0.02,
                queue_depth_high=burst_clients // 2,
                overload_ticks=2,
                recovery_ticks=6,
            )
            print(f"\nSLO phase: p95 objective {args.slo_ms:.1f} ms, "
                  f"{burst_clients} best-effort clients x {args.requests} "
                  f"requests from tier {server.default_tier!r} ...")
            with AdaptiveQualityController(server, policy) as controller:
                threads = [
                    threading.Thread(target=client, args=(c,))
                    for c in range(burst_clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                transitions = controller.transitions
                final_tier = server.default_tier
            streamed += burst_clients * args.requests
            if transitions:
                for t in transitions:
                    print(f"  [{t.reason:>8}] {t.from_tier} -> {t.to_tier} "
                          f"(window p95 {t.window_p95_seconds * 1e3:.2f} ms, "
                          f"queue {t.queue_depth})")
            else:
                print("  (no transitions: the burst never violated the SLO)")
            print(f"  tier after burst: {final_tier!r}; restored to "
                  f"{server.default_tier!r} on controller stop")

        # Read the books while the connection/server is still up: in
        # --connect mode leaving the block closes the socket.
        snapshot = server.snapshot()
        exposition = server.metrics_text() if args.metrics else ""

    if "shards" in snapshot:  # sharded — locally or behind --connect
        # The aggregate has every single-server key, so the shared
        # printout below works for both topologies.
        snapshot = snapshot["cluster"]
        print(f"\nper-shard completed: {snapshot['completed_per_shard']} "
              f"(load imbalance {snapshot['load_imbalance']:.2f}, "
              f"sessions {snapshot['sessions_per_shard']})")
        if args.kill_shard:
            for event in monitor.events:
                print(f"  monitor: declared {event.shard_id} down after "
                      f"{event.missed_beats} missed heartbeat(s)")
            if not monitor.events:
                print("  monitor: the request path's retry reported the "
                      "dead shard before the heartbeat window elapsed")
            liveness = ", ".join(
                f"{sid}={'up' if alive else 'DOWN'}"
                for sid, alive in sorted(snapshot["liveness"].items())
            )
            failover = snapshot["failover"]
            print(f"  liveness: {liveness}")
            print(f"  failover: {failover['failovers']} failover(s), "
                  f"{failover['replica_retries']} rerouted request(s), "
                  f"{failover['replayed_sessions']} session replica(s) "
                  "re-seeded from the cluster's session records — every "
                  "request below was still answered")
            if args.spawn:
                print("  (a SIGKILLed process takes its telemetry with "
                      "it, so the served count below undercounts; the "
                      "end-of-run assert still checks every response)")
    total = args.clients * args.requests + streamed
    lifetime = " (server-lifetime counters)" if args.connect else ""
    print(f"served {snapshot['completed']}/{total} requests "
          f"in {snapshot['batches']} batches "
          f"(mean batch {snapshot['mean_batch_size']:.1f}){lifetime}")

    histogram = snapshot["batch_size_histogram"]
    assert sum(histogram.values()) == snapshot["batches"]
    if histogram:
        print("\nbatch-size histogram:")
        peak = max(histogram.values())
        for size, count in histogram.items():
            bar = "#" * max(1, round(24 * count / peak))
            print(f"  batch {int(size):>3}: {bar} {count}")

    latency = snapshot["latency_seconds"]
    print("\nlatency percentiles:")
    for name in ("p50", "p95", "p99", "max"):
        print(f"  {name:>4}: {latency[name] * 1e3:7.2f} ms")

    cache = snapshot["cache"]
    print(f"\nqueue depth: mean {snapshot['mean_queue_depth']:.1f}, "
          f"peak {snapshot['peak_queue_depth']}")
    print(f"prepared-key cache: {cache['hits']} hits / "
          f"{cache['misses']} misses (hit rate {cache['hit_rate']:.1%})")
    print("selection work: candidate fraction "
          f"{snapshot['selection']['candidate_fraction']:.3f}, "
          f"kept fraction {snapshot['selection']['kept_fraction']:.3f} "
          f"over {snapshot['selection']['calls']} queries")
    fused = snapshot["fused"]
    if fused["fused_batches"]:
        widths = ", ".join(
            f"{width} sessions: {count}"
            for width, count in fused["segment_histogram"].items()
            if int(width) > 1
        )
        print(f"cross-session fusion: {fused['fused_batches']} multi-"
              f"session dispatches (widest spanned "
              f"{fused['max_segments']} sessions; {widths})")
    elif args.sessions > 1:
        print("cross-session fusion: no multi-session dispatch formed "
              "(arrivals never overlapped across tenants)")
    if snapshot.get("tiers"):
        split = ", ".join(
            f"{tier}: {cell['completed']}"
            for tier, cell in snapshot["tiers"].items()
        )
        quality = snapshot["quality"]
        print(f"per-tier completed: {split}")
        print(f"quality control: {quality['downgraded_requests']} downgraded "
              f"requests, {quality['tier_downgrades']} downgrades / "
              f"{quality['tier_upgrades']} upgrades of the default tier")

    if args.trace:
        # Per-stage breakdown over every sampled request: where each
        # millisecond of the end-to-end latency went.  The six request
        # stages are contiguous on one clock, so their means sum to the
        # mean request latency; sharded mode adds the cluster-side
        # cluster_request/rpc prefix (the rpc-request gap is the
        # socket-pair hop under --spawn).
        spans = server.trace_spans()
        summary = stage_summary(spans)
        stages = ("cluster_request", "rpc", "request", "submit", "queue",
                  "batch_formation", "dispatch", "kernel", "resolve")
        print("\nper-stage latency breakdown (100% sampled):")
        for name in stages:
            if name not in summary:
                continue
            cell = summary[name]
            print(f"  {name:>15}: x{cell['count']:<4} "
                  f"mean {cell['mean_seconds'] * 1e3:6.2f} ms, "
                  f"p95 {cell['p95_seconds'] * 1e3:6.2f} ms, "
                  f"max {cell['max_seconds'] * 1e3:6.2f} ms")
        exemplars = server.tracer.exemplars()
        if exemplars:
            print("slowest requests (exemplar ring):")
            for entry in exemplars[:3]:
                print(f"  {entry['name']} {entry['trace_id']}: "
                      f"{entry['duration_seconds'] * 1e3:.2f} ms "
                      f"{entry['attrs']}")
        if args.trace_jsonl:
            import json

            with open(args.trace_jsonl, "w") as handle:
                for span in spans:
                    handle.write(json.dumps(span, sort_keys=True) + "\n")
            print(f"exported {len(spans)} spans to {args.trace_jsonl}")

    if args.metrics:
        print("\nPrometheus exposition:")
        print(exposition)

    assert len(outputs) == total and all(o.shape == (d,) for o in outputs)


if __name__ == "__main__":
    main()
