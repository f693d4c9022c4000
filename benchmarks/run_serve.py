"""Standalone serving benchmark emitting ``BENCH_serve.json``.

Measures the dynamic batcher against per-request serial dispatch at the
paper's n=320, d=64 operating point (conservative approximation):

* **serial baselines** — one prepared backend, one ``attend`` per query
  in arrival order, for both the ``reference`` engine (fastest at batch
  one) and the server's own ``vectorized`` engine;
* **served cells** — a closed-loop load of N concurrent clients against
  a running :class:`repro.serve.AttentionServer` (batch 64 / 5 ms
  policy), sweeping the in-flight count;
* **sharded cells** — the same load against a
  :class:`repro.serve.ShardedAttentionServer`, sweeping the replica
  count at a high in-flight count over a multi-tenant session pool
  (the shard scaling curve);
* **streaming cell** — an append-heavy mutable session (blocks of
  appended rows interleaved with query bursts), paired per round:
  incremental splice through ``SessionMutator`` vs re-registering the
  grown memory (full re-prepare).  ``streaming_headline`` carries the
  dimensionless ``append_speedup_vs_reprepare``; it is a
  single-threaded paired ratio, so unlike the shard metric it is
  trustworthy from any core count;
* **quality-tier cells** — the identical closed-loop load pinned to
  each quality tier (``exact`` / ``conservative`` / ``aggressive``).
  ``quality_headline`` carries two paired in-round wall ratios, both
  dimensionless and gated: ``aggressive_speedup_vs_conservative`` is
  the serving-layer width of the paper's accuracy/latency dial (its
  two named operating points), and ``aggressive_speedup_vs_exact``
  pins the relative cost of the exact tier — which is *below* 1 in
  software, because exact attention is one BLAS GEMM and the
  approximation only pays on the paper's accelerator (the fig14
  hardware model), not against an optimized GEMM;
* **adaptive cell** — injected overload (all requests best-effort at
  the conservative default) served frozen vs under an
  ``AdaptiveQualityController`` whose SLO is set to half the
  uncontrolled p95 of the same round, degrading best-effort traffic to
  the aggressive tier.  Reports the p95 relief the controller buys by
  shedding quality, the downgrade counters, and the rejection count —
  which must stay zero (quality is shed, availability is not);
* **failover cell** — two identical closed-loop epochs against a
  3-shard, replication-2 thread-mode cluster: a steady baseline, and
  one where a primary shard is killed (fault-injector seam) a third of
  the way through.  Reports client-side p95 for each epoch and the
  paired degradation ratio; errors must stay zero in both epochs —
  failover costs latency, never answers.  Informational (not gated):
  the absolute ratio is timing-dependent on a one-core container;
* **many-tenant cell** — the same closed-loop machinery over a wide
  session pool (64 sessions × 5 queries each, one closed-loop client
  per session): the realistic many-tenant arrival shape, and the worst
  case for per-session grouping — each session has one request in
  flight at a time, so per-session dispatch degenerates to batch one.
  Paired in-round: cross-session ragged fusion
  (``attend_many_ragged``) vs per-session grouping pinned on an
  otherwise identical server.  ``many_tenant`` carries the
  dimensionless gated ratio ``fused_speedup_vs_unfused`` plus the
  fused-segments-per-batch histogram of the median fused round;
* **network cell** — the localhost socket frontend
  (:mod:`benchmarks.loadgen`): a paired wire-overhead measurement (the
  same requests against the same live server, in-process vs through
  the TCP client) and an open-loop Poisson many-tenant curve with
  coordinated-omission-safe percentiles (latency from *scheduled*
  send, rates calibrated to the measured wire capacity).  Both
  informational — localhost wire latency is container-dependent — but
  errors must stay zero;
* **observability cells** — the headline load with per-request tracing
  disabled / sampled at 5% / at 100%.  The disabled cell is an A/A
  control against the plain headline cell (``disabled_vs_headline``,
  the <5% disabled-overhead acceptance bar), the paired
  ``tracing_overhead`` prices full sampling, and the fully-traced
  round's span tree is exported as JSONL (``--trace-output``).  The
  served cells additionally break mean latency into queue wait vs
  batch service time.

The headline figure the acceptance gate reads is
``headline.batched_speedup_vs_serial``: served throughput at >= 64
in-flight queries over the *best* serial baseline's throughput.
``sharded_headline`` tracks the aggregate-throughput ratio of the
largest shard count over one shard; because every shard is the full
single-server stack, the ratio is bounded by the machine's cores
(recorded as ``cores``): process-backed shards scale on real cores,
while on a one-core container any mode is pinned near 1.0x — the gate
in ``check_regression.py`` therefore only trusts this metric from
reports taken on >= 4 cores.

    PYTHONPATH=src python benchmarks/run_serve.py [-o BENCH_serve.json]
    PYTHONPATH=src python benchmarks/run_serve.py --smoke   # CI-sized
    PYTHONPATH=src python benchmarks/run_serve.py --shard-mode process

Measurements are *interleaved*: every round runs the serial baselines
and the served cells back to back, cells report the median wall over
``--repeats`` rounds, and the headline speedup is the median of the
per-round serial/served ratios — so machine-speed drift between rounds
(easily ±20% here) hits both sides of each compared pair equally
instead of skewing the trajectory tracked across PRs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_serve import (  # noqa: E402
    adaptive_overload_dispatch,
    failover_dispatch,
    make_cluster,
    make_server,
    many_tenant_dispatch,
    run_load,
    serial_dispatch,
    spill_dispatch,
    streaming_dispatch,
)
from loadgen import network_cell  # noqa: E402

N, D = 320, 64
TOTAL_REQUESTS = 320
CONCURRENCIES = (8, 64, 320)
MAX_BATCH = 64
MAX_WAIT = 0.005
HEADLINE_CONCURRENCY = 64
SHARD_COUNTS = (1, 2, 4)
SHARD_SESSIONS = 16
SHARD_CONCURRENCY = 320
SHARD_TOTAL_REQUESTS = 640
# Append-heavy streaming cell: a session born at STREAM_N0 rows grows
# by STREAM_APPEND_ROWS per block with a small query burst in between.
# The paired comparison is incremental splice (SessionMutator) vs
# re-registering the grown memory every block (full re-prepare) — the
# splice advantage grows with n, so the cell runs above the paper's
# n=320 point where the win is unambiguous.
STREAM_N0 = 1024
STREAM_BLOCKS = 24
STREAM_APPEND_ROWS = 8
STREAM_QUERIES_PER_BLOCK = 2
# Quality-tier cells: the same closed-loop load pinned to each tier —
# the serving-layer rendering of the paper's accuracy/latency dial.
# The adaptive cell injects overload (every request best-effort, SLO
# set to half the uncontrolled p95 measured in the same round) and
# compares p95 with and without the AdaptiveQualityController.
QUALITY_TIERS = ("exact", "conservative", "aggressive")
ADAPTIVE_TOTAL = 1920
ADAPTIVE_CONCURRENCY = 320
# Failover cell: two identical closed-loop epochs against a 3-shard,
# replication-2 thread-mode cluster — a steady baseline and one where a
# primary shard is killed a third of the way in.  Client-side p95 over
# each epoch gives the latency cost of a shard death; zero lost
# requests is the contract (errors in either epoch abort the run).
FAILOVER_SESSIONS = 6
FAILOVER_TOTAL = 240
FAILOVER_CONCURRENCY = 24
FAILOVER_SHARDS = 3
FAILOVER_REPLICATION = 2
# Many-tenant fusion pair: one closed-loop client per session (each
# tenant fires its next query when the previous response lands), the
# realistic many-tenant arrival shape and the worst case for
# per-session grouping — every session has exactly one request in
# flight, so per-session dispatch degenerates to batch one.  The same
# load runs fused (cross-session ragged dispatch) vs unfused
# (per-session grouping pinned) back to back; the paired in-round wall
# ratio is the dimensionless headline the gate tracks.
MANY_TENANT_SESSIONS = 64
MANY_TENANT_QUERIES_PER_SESSION = 5
# Two-tier spill pair: round-robin churn over more tenants than the
# prepared-key cache's RAM tier holds (capacity = two entries), so
# every checkout is a miss.  With the disk tier on, an eviction spills
# the prepared artifact and the next miss promotes it back by mmap;
# with it off, every miss re-pays the full column sort.  Runs at a
# large n (the sort is what the tier amortizes), times the
# checkout/release pair only, and the paired in-round wall ratio is
# the dimensionless headline the gate tracks.
SPILL_SESSIONS = 6
SPILL_N = 2048
SPILL_D = 64
SPILL_PASSES = 2
# Observability overhead pair: the identical headline closed-loop load
# with tracing disabled (0.0 — the A/A control, and the configuration
# whose overhead the <5% acceptance bar constrains), at a realistic
# production sampling rate (0.05), and at 100% sampling (every request
# grows a full span tree — the worst case, and the source of the
# exported trace JSONL).
OBSERVABILITY_RATES = (0.0, 0.05, 1.0)


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def _served_once(key, value, queries, concurrency, sessions=1, tier=None):
    server = make_server(
        max_batch=MAX_BATCH, max_wait=MAX_WAIT, workers=max(1, sessions)
    )
    ids = []
    for s in range(sessions):
        sid = f"bench-s{s}"
        server.register_session(sid, key, value)
        ids.append(sid)
    with server:
        report = run_load(
            server, ids, queries, concurrency=concurrency, tier=tier
        )
    if report.errors:
        raise RuntimeError(f"{report.errors} serving errors")
    return report


def _traced_once(key, value, queries, concurrency, rate):
    """One served round with tracing at ``rate``; returns the load
    report and the spans the run produced (drained, exportable)."""
    server = make_server(
        max_batch=MAX_BATCH, max_wait=MAX_WAIT, trace_sample_rate=rate
    )
    server.register_session("bench-s0", key, value)
    with server:
        report = run_load(
            server, ["bench-s0"], queries, concurrency=concurrency
        )
    if report.errors:
        raise RuntimeError(f"{report.errors} traced serving errors")
    return report, server.trace_spans()


def _sharded_once(key, value, queries, shards, spawn, concurrency, sessions):
    cluster = make_cluster(
        shards,
        max_batch=MAX_BATCH,
        max_wait=MAX_WAIT,
        workers_per_shard=1,
        spawn=spawn,
    )
    ids = []
    for s in range(sessions):
        sid = f"bench-shard-s{s}"
        cluster.register_session(sid, key, value)
        ids.append(sid)
    with cluster:
        report = run_load(cluster, ids, queries, concurrency=concurrency)
    if report.errors:
        raise RuntimeError(f"{report.errors} sharded serving errors")
    return report


def _sharded_cell(walls, reports, shards, mode, concurrency, sessions):
    wall = _median(walls)
    report = reports[walls.index(wall)]
    aggregate = report.snapshot["cluster"]
    return {
        "shards": shards,
        "mode": mode,
        "sessions": sessions,
        "concurrency": concurrency,
        "workers_per_shard": 1,
        "max_batch_size": MAX_BATCH,
        "max_wait_seconds": MAX_WAIT,
        "seconds": wall,
        "throughput_qps": report.total_requests / wall,
        "load_imbalance": aggregate["load_imbalance"],
        "sessions_per_shard": aggregate["sessions_per_shard"],
        "completed_per_shard": aggregate["completed_per_shard"],
        "latency_seconds": aggregate["latency_seconds"],
    }


def _quality_cell(tier, walls, reports, concurrency):
    wall = _median(walls)
    report = reports[walls.index(wall)]
    snap = report.snapshot
    return {
        "tier": tier,
        "concurrency": concurrency,
        "max_batch_size": MAX_BATCH,
        "max_wait_seconds": MAX_WAIT,
        "seconds": wall,
        "throughput_qps": report.total_requests / wall,
        "mean_batch_size": snap["mean_batch_size"],
        "latency_seconds": snap["latency_seconds"],
    }


def _served_cell(walls, reports, concurrency, sessions):
    wall = _median(walls)
    report = reports[walls.index(wall)]
    snap = report.snapshot
    return {
        "concurrency": concurrency,
        "sessions": sessions,
        "workers": max(1, sessions),
        "max_batch_size": MAX_BATCH,
        "max_wait_seconds": MAX_WAIT,
        "seconds": wall,
        "throughput_qps": report.total_requests / wall,
        "mean_batch_size": snap["mean_batch_size"],
        "batch_size_histogram": snap["batch_size_histogram"],
        "latency_seconds": snap["latency_seconds"],
        # Where the latency went: time queued before a worker claimed
        # the request vs time inside the claimed batch's service.
        "mean_queue_wait_seconds": snap["mean_queue_wait_seconds"],
        "mean_service_seconds": snap["mean_service_seconds"],
        "cache_hit_rate": snap["cache"]["hit_rate"],
    }


def run(
    repeats: int = 5,
    smoke: bool = False,
    shard_mode: str = "auto",
    trace_output: str | None = None,
) -> dict:
    n, d, total = (64, 16, 64) if smoke else (N, D, TOTAL_REQUESTS)
    concurrencies = (8, 16) if smoke else CONCURRENCIES
    repeats = 1 if smoke else max(1, repeats)
    cores = os.cpu_count() or 1
    if shard_mode == "auto":
        # Spawned shards only pay off with real cores to land on; on a
        # one-core container the socket hops just add latency.
        shard_mode = "process" if cores > 1 and not smoke else "thread"
    shard_counts = (1, 2) if smoke else SHARD_COUNTS
    shard_sessions = 4 if smoke else SHARD_SESSIONS
    shard_concurrency = 16 if smoke else SHARD_CONCURRENCY
    shard_total = 64 if smoke else SHARD_TOTAL_REQUESTS
    stream_n0 = 128 if smoke else STREAM_N0
    stream_blocks = 6 if smoke else STREAM_BLOCKS
    adaptive_total = 192 if smoke else ADAPTIVE_TOTAL
    adaptive_concurrency = 48 if smoke else ADAPTIVE_CONCURRENCY
    fo_sessions = 4 if smoke else FAILOVER_SESSIONS
    fo_total = 60 if smoke else FAILOVER_TOTAL
    fo_concurrency = 6 if smoke else FAILOVER_CONCURRENCY
    mt_sessions = 8 if smoke else MANY_TENANT_SESSIONS
    mt_per_session = 4 if smoke else MANY_TENANT_QUERIES_PER_SESSION
    spill_n = 256 if smoke else SPILL_N
    spill_sessions = 4 if smoke else SPILL_SESSIONS
    spill_passes = 1 if smoke else SPILL_PASSES
    # One closed-loop client per tenant session: run_load pins client c
    # to session c when concurrency equals the session count.
    mt_concurrency = mt_sessions

    rng = np.random.default_rng(0)
    key = rng.normal(size=(n, d))
    value = rng.normal(size=(n, d))
    queries = rng.normal(size=(total, d))
    shard_queries = rng.normal(size=(shard_total, d))
    stream_key = rng.normal(size=(stream_n0, d))
    stream_value = rng.normal(size=(stream_n0, d))
    stream_blocks_data = [
        (
            rng.normal(size=(STREAM_APPEND_ROWS, d)),
            rng.normal(size=(STREAM_APPEND_ROWS, d)),
        )
        for _ in range(stream_blocks)
    ]
    stream_queries = rng.normal(
        size=(stream_blocks, STREAM_QUERIES_PER_BLOCK, d)
    )
    adaptive_queries = rng.normal(size=(adaptive_total, d))
    fo_keys = [rng.normal(size=(n, d)) for _ in range(fo_sessions)]
    fo_values = [rng.normal(size=(n, d)) for _ in range(fo_sessions)]
    fo_queries = rng.normal(size=(fo_total, d))
    mt_keys = [rng.normal(size=(n, d)) for _ in range(mt_sessions)]
    mt_values = [rng.normal(size=(n, d)) for _ in range(mt_sessions)]
    mt_queries = rng.normal(size=(mt_sessions * mt_per_session, d))

    headline_concurrency = min(
        (c for c in concurrencies if c >= HEADLINE_CONCURRENCY),
        default=max(concurrencies),
    )

    # Every measurement of round r runs back to back, so each round's
    # serial-vs-served comparison sees the same machine conditions; the
    # cells report median walls and the headline reports the median of
    # the per-round paired speedups, which machine-speed drift between
    # rounds cannot skew.
    serial_walls = {engine: [] for engine in ("reference", "vectorized")}
    served_walls = {c: [] for c in concurrencies}
    served_reports = {c: [] for c in concurrencies}
    multi_walls, multi_reports = [], []
    sharded_walls = {s: [] for s in shard_counts}
    sharded_reports = {s: [] for s in shard_counts}
    paired_speedups = []
    paired_shard_speedups = {s: [] for s in shard_counts}
    stream_inc_walls, stream_rep_walls, paired_stream_speedups = [], [], []
    quality_walls = {tier: [] for tier in QUALITY_TIERS}
    quality_reports = {tier: [] for tier in QUALITY_TIERS}
    paired_quality_speedups, paired_dial_speedups = [], []
    adaptive_slos, adaptive_p95_pairs, paired_relief = [], [], []
    adaptive_infos, adaptive_rejected = [], 0
    failover_cells, paired_fo_degradations = [], []
    mt_fused_walls, mt_unfused_walls = [], []
    mt_fused_reports, paired_mt_speedups = [], []
    spill_two_cells, spill_base_cells, paired_spill_speedups = [], [], []
    obs_walls = {rate: [] for rate in OBSERVABILITY_RATES}
    obs_disabled_vs_headline, obs_overheads = [], []
    obs_traced_spans = []
    spawn = shard_mode == "process"
    for _ in range(repeats):
        for engine in serial_walls:
            serial_walls[engine].append(
                serial_dispatch(key, value, queries, engine=engine)
            )
        for concurrency in concurrencies:
            report = _served_once(key, value, queries, concurrency)
            served_walls[concurrency].append(report.wall_seconds)
            served_reports[concurrency].append(report)
        # Two-tenant round: distinct sessions on parallel workers.
        report = _served_once(
            key, value, queries, max(concurrencies), sessions=2
        )
        multi_walls.append(report.wall_seconds)
        multi_reports.append(report)
        round_best_serial = min(
            serial_walls[engine][-1] for engine in serial_walls
        )
        paired_speedups.append(
            round_best_serial / served_walls[headline_concurrency][-1]
        )
        # Observability overhead pair: the identical headline load with
        # tracing disabled / sampled / at 100%, back to back.  The
        # disabled cell doubles as an A/A control against the headline
        # served cell of the same round (its wall ratio is the noise
        # floor the <5% disabled-overhead acceptance bar is read
        # against), and traced/disabled is the full-sampling cost.
        round_obs = {}
        for rate in OBSERVABILITY_RATES:
            obs_report, spans = _traced_once(
                key, value, queries, headline_concurrency, rate
            )
            obs_walls[rate].append(obs_report.wall_seconds)
            round_obs[rate] = obs_report.wall_seconds
            if rate == 1.0:
                obs_traced_spans.append(spans)
        obs_disabled_vs_headline.append(
            round_obs[0.0] / served_walls[headline_concurrency][-1]
        )
        obs_overheads.append(
            {
                rate: round_obs[rate] / round_obs[0.0]
                for rate in OBSERVABILITY_RATES
                if rate > 0.0
            }
        )
        # Shard scaling sweep: the same multi-tenant closed-loop load
        # against 1, 2, ... replicas, paired within the round.
        for shards in shard_counts:
            report = _sharded_once(
                key,
                value,
                shard_queries,
                shards,
                spawn,
                shard_concurrency,
                shard_sessions,
            )
            sharded_walls[shards].append(report.wall_seconds)
            sharded_reports[shards].append(report)
        for shards in shard_counts:
            paired_shard_speedups[shards].append(
                sharded_walls[shard_counts[0]][-1]
                / sharded_walls[shards][-1]
            )
        # Streaming mutable-session pair: incremental splice vs full
        # re-prepare, back to back inside the round so machine drift
        # hits both sides of the ratio equally.
        inc_wall, _ = streaming_dispatch(
            stream_key,
            stream_value,
            stream_blocks_data,
            stream_queries,
            incremental=True,
            max_batch=STREAM_QUERIES_PER_BLOCK,
            max_wait=MAX_WAIT,
        )
        rep_wall, _ = streaming_dispatch(
            stream_key,
            stream_value,
            stream_blocks_data,
            stream_queries,
            incremental=False,
            max_batch=STREAM_QUERIES_PER_BLOCK,
            max_wait=MAX_WAIT,
        )
        stream_inc_walls.append(inc_wall)
        stream_rep_walls.append(rep_wall)
        paired_stream_speedups.append(rep_wall / inc_wall)
        # Quality-tier cells: the identical load pinned to each tier,
        # back to back inside the round — the aggressive/exact wall
        # ratio is the dimensionless dial width the gate tracks.
        for tier in QUALITY_TIERS:
            report = _served_once(
                key, value, queries, headline_concurrency, tier=tier
            )
            quality_walls[tier].append(report.wall_seconds)
            quality_reports[tier].append(report)
        paired_quality_speedups.append(
            quality_walls["exact"][-1] / quality_walls["aggressive"][-1]
        )
        paired_dial_speedups.append(
            quality_walls["conservative"][-1] / quality_walls["aggressive"][-1]
        )
        # Adaptive overload pair: the same injected overload served at
        # a frozen conservative default vs under the SLO controller (SLO =
        # half the uncontrolled p95 of this very round, so the
        # controller always has a violation to react to).
        base_report, _ = adaptive_overload_dispatch(
            key, value, adaptive_queries, adaptive_concurrency,
            max_batch=MAX_BATCH, max_wait=MAX_WAIT,
        )
        p95_uncontrolled = base_report.snapshot["latency_seconds"]["p95"]
        slo = p95_uncontrolled / 2
        ctrl_report, info = adaptive_overload_dispatch(
            key, value, adaptive_queries, adaptive_concurrency,
            slo_p95_seconds=slo, max_batch=MAX_BATCH, max_wait=MAX_WAIT,
        )
        p95_controlled = ctrl_report.snapshot["latency_seconds"]["p95"]
        if base_report.errors or ctrl_report.errors:
            raise RuntimeError(
                f"{base_report.errors + ctrl_report.errors} adaptive-cell "
                "serving errors (degradation must not fail requests)"
            )
        adaptive_slos.append(slo)
        adaptive_p95_pairs.append((p95_uncontrolled, p95_controlled))
        paired_relief.append(p95_uncontrolled / p95_controlled)
        adaptive_infos.append(info)
        adaptive_rejected += (
            base_report.snapshot["rejected"]
            + ctrl_report.snapshot["rejected"]
        )
        # Failover pair: a steady epoch and a kill epoch against a
        # fresh replicated cluster, back to back inside the round; the
        # p95 degradation ratio is paired (machine-drift-immune) and
        # errors must stay zero — a shard death costs latency, never
        # answers.
        fo_cell = failover_dispatch(
            fo_keys,
            fo_values,
            fo_queries,
            fo_concurrency,
            shards=FAILOVER_SHARDS,
            replication=FAILOVER_REPLICATION,
            max_batch=MAX_BATCH,
            max_wait=MAX_WAIT,
        )
        lost = fo_cell["steady"]["errors"] + fo_cell["kill_window"]["errors"]
        if lost:
            raise RuntimeError(
                f"{lost} failover-cell serving errors "
                "(failover must not lose requests)"
            )
        failover_cells.append(fo_cell)
        paired_fo_degradations.append(fo_cell["p95_degradation"])
        # Many-tenant fusion pair: identical load, fused vs unfused,
        # back to back inside the round so the speedup is paired.
        fused_report = many_tenant_dispatch(
            mt_keys, mt_values, mt_queries, mt_concurrency,
            fused=True, max_batch=MAX_BATCH, max_wait=MAX_WAIT,
        )
        unfused_report = many_tenant_dispatch(
            mt_keys, mt_values, mt_queries, mt_concurrency,
            fused=False, max_batch=MAX_BATCH, max_wait=MAX_WAIT,
        )
        mt_fused_walls.append(fused_report.wall_seconds)
        mt_unfused_walls.append(unfused_report.wall_seconds)
        mt_fused_reports.append(fused_report)
        paired_mt_speedups.append(
            unfused_report.wall_seconds / fused_report.wall_seconds
        )
        # Two-tier spill pair: identical cold-tenant churn with the
        # disk tier on vs off, back to back inside the round.
        spill_two = spill_dispatch(
            sessions=spill_sessions,
            n=spill_n,
            d=SPILL_D,
            passes=spill_passes,
            two_tier=True,
        )
        spill_base = spill_dispatch(
            sessions=spill_sessions,
            n=spill_n,
            d=SPILL_D,
            passes=spill_passes,
            two_tier=False,
        )
        spill_two_cells.append(spill_two)
        spill_base_cells.append(spill_base)
        paired_spill_speedups.append(
            spill_base["wall_seconds"] / spill_two["wall_seconds"]
        )

    report = {
        "benchmark": "serve/dynamic_batching",
        "smoke": smoke,
        "n": n,
        "d": d,
        "total_requests": total,
        "repeats": repeats,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "serial": [
            {
                "engine": engine,
                "seconds": _median(walls),
                "throughput_qps": total / _median(walls),
            }
            for engine, walls in serial_walls.items()
        ],
        "cores": cores,
        "served": [
            _served_cell(
                served_walls[c], served_reports[c], c, sessions=1
            )
            for c in concurrencies
        ]
        + [
            _served_cell(
                multi_walls, multi_reports, max(concurrencies), sessions=2
            )
        ],
        "sharded": [
            {
                **_sharded_cell(
                    sharded_walls[s],
                    sharded_reports[s],
                    s,
                    shard_mode,
                    shard_concurrency,
                    shard_sessions,
                ),
                "speedup_vs_one_shard": _median(paired_shard_speedups[s]),
            }
            for s in shard_counts
        ],
    }

    best_serial = max(c["throughput_qps"] for c in report["serial"])
    headline_cell = next(
        c
        for c in report["served"]
        if c["concurrency"] == headline_concurrency and c["sessions"] == 1
    )
    report["headline"] = {
        "concurrency": headline_cell["concurrency"],
        "served_throughput_qps": headline_cell["throughput_qps"],
        "best_serial_throughput_qps": best_serial,
        "batched_speedup_vs_serial": _median(paired_speedups),
        "paired_speedups_per_round": paired_speedups,
    }
    report["quality_tiers"] = [
        _quality_cell(
            tier,
            quality_walls[tier],
            quality_reports[tier],
            headline_concurrency,
        )
        for tier in QUALITY_TIERS
    ]
    report["quality_headline"] = {
        "concurrency": headline_concurrency,
        # Both paired in-round wall ratios are dimensionless and
        # machine-drift-immune, and both are gated.  The *dial* ratio
        # (conservative/aggressive — the paper's two operating points)
        # is the one the degradation controller trades along, and is
        # > 1 in software.  The exact ratio is < 1 here: the exact tier
        # is a single BLAS GEMM, which no software approximation beats
        # at these sizes — approximation pays on the paper's
        # accelerator (see the fig14 hardware model), not against an
        # optimized GEMM.  Gating it still pins the relative cost of
        # the three tiers against drift.
        "aggressive_speedup_vs_exact": _median(paired_quality_speedups),
        "aggressive_speedup_vs_conservative": _median(paired_dial_speedups),
        "paired_speedups_per_round": paired_quality_speedups,
        "paired_dial_speedups_per_round": paired_dial_speedups,
    }
    relief = _median(paired_relief)
    median_round = paired_relief.index(relief)
    report["adaptive"] = {
        "requests": adaptive_total,
        "concurrency": adaptive_concurrency,
        "slo_p95_seconds": adaptive_slos[median_round],
        "p95_uncontrolled_seconds": adaptive_p95_pairs[median_round][0],
        "p95_controlled_seconds": adaptive_p95_pairs[median_round][1],
        # > 1.0 means the controller lowered p95 under the injected
        # overload; informational (controller benefit is timing- and
        # machine-dependent), but `rejected` must stay 0 — quality is
        # shed, availability is not.
        "p95_relief": relief,
        "paired_relief_per_round": paired_relief,
        "rejected": adaptive_rejected,
        "controller": adaptive_infos[median_round],
    }
    fo_degradation = _median(paired_fo_degradations)
    fo_median_cell = failover_cells[
        paired_fo_degradations.index(fo_degradation)
    ]
    report["failover"] = {
        **fo_median_cell,
        "sessions": fo_sessions,
        "requests_per_epoch": fo_total,
        # Informational (thread-mode latency under a 1-core container
        # is timing-dependent); the hard contract — zero lost requests
        # — is enforced above and by the chaos suite.
        "p95_degradation": fo_degradation,
        "degradation_per_round": paired_fo_degradations,
    }
    mt_speedup = _median(paired_mt_speedups)
    mt_median_report = mt_fused_reports[
        paired_mt_speedups.index(mt_speedup)
    ]
    mt_snap = mt_median_report.snapshot
    report["many_tenant"] = {
        "sessions": mt_sessions,
        "queries_per_session": mt_per_session,
        "total_requests": mt_sessions * mt_per_session,
        "concurrency": mt_concurrency,
        "max_batch_size": MAX_BATCH,
        "max_wait_seconds": MAX_WAIT,
        "fused_seconds": _median(mt_fused_walls),
        "unfused_seconds": _median(mt_unfused_walls),
        "fused_throughput_qps": (
            mt_sessions * mt_per_session / _median(mt_fused_walls)
        ),
        "unfused_throughput_qps": (
            mt_sessions * mt_per_session / _median(mt_unfused_walls)
        ),
        # Paired in-round wall ratio (dimensionless, gated): how much
        # cross-session ragged fusion buys over the degenerate
        # per-session grouping under the same many-tenant load.
        "fused_speedup_vs_unfused": mt_speedup,
        "paired_speedups_per_round": paired_mt_speedups,
        # Fusion telemetry of the median fused round, from the PR 7
        # metrics surface: segments-per-batch histogram and headline
        # counters.
        "fused_batches": mt_snap["fused"]["fused_batches"],
        "max_segments": mt_snap["fused"]["max_segments"],
        "fused_segments_histogram": mt_snap["fused"]["segment_histogram"],
        "mean_batch_size": mt_snap["mean_batch_size"],
        "latency_seconds": mt_snap["latency_seconds"],
    }
    disabled_wall = _median(obs_walls[0.0])
    traced_overhead = _median([cell[1.0] for cell in obs_overheads])
    median_obs_round = [cell[1.0] for cell in obs_overheads].index(
        traced_overhead
    )
    exported = 0
    if trace_output is not None:
        spans = obs_traced_spans[median_obs_round]
        with open(trace_output, "w") as handle:
            for span in spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
        exported = len(spans)
    report["observability"] = {
        "concurrency": headline_concurrency,
        "cells": [
            {
                "trace_sample_rate": rate,
                "seconds": _median(obs_walls[rate]),
                "throughput_qps": total / _median(obs_walls[rate]),
            }
            for rate in OBSERVABILITY_RATES
        ],
        # A/A control: the disabled cell against the plain headline
        # served cell of the same round.  This is the ratio the <5%
        # disabled-overhead acceptance bar constrains — both sides run
        # the identical configuration, so it also measures the noise
        # floor every other ratio in this file lives on.
        "disabled_vs_headline": _median(obs_disabled_vs_headline),
        "disabled_vs_headline_per_round": obs_disabled_vs_headline,
        # Full-sampling cost, paired in-round: wall at rate r over wall
        # with tracing disabled.  Informational — the span machinery is
        # off by default and the disabled ratio is the one that gates.
        "tracing_overhead": traced_overhead,
        "sampled_overhead": _median(
            [cell[0.05] for cell in obs_overheads]
        ),
        "overheads_per_round": obs_overheads,
        "trace_spans_exported": exported,
        "trace_output": str(trace_output) if trace_output else None,
    }
    appended = stream_blocks * STREAM_APPEND_ROWS
    report["streaming"] = {
        "n0": stream_n0,
        "d": d,
        "blocks": stream_blocks,
        "append_rows": STREAM_APPEND_ROWS,
        "queries_per_block": STREAM_QUERIES_PER_BLOCK,
        "final_rows": stream_n0 + appended,
        "incremental_seconds": _median(stream_inc_walls),
        "reprepare_seconds": _median(stream_rep_walls),
        "append_throughput_rows_per_second": appended
        / _median(stream_inc_walls),
    }
    report["streaming_headline"] = {
        "n0": stream_n0,
        "blocks": stream_blocks,
        "append_rows": STREAM_APPEND_ROWS,
        # Single-threaded paired ratio: unlike the shard sweep this is
        # not core-bound, so the gate trusts it from any machine.
        "append_speedup_vs_reprepare": _median(paired_stream_speedups),
        "paired_speedups_per_round": paired_stream_speedups,
    }
    def _spill_mode_cell(cells):
        return {
            "wall_seconds": _median([c["wall_seconds"] for c in cells]),
            "p50_checkout_seconds": _median(
                [c["p50_checkout_seconds"] for c in cells]
            ),
            "p95_checkout_seconds": _median(
                [c["p95_checkout_seconds"] for c in cells]
            ),
            # Counter semantics are deterministic (same churn every
            # round), so any round's counts describe them all.
            "hit_rate": cells[-1]["hit_rate"],
            "spills": cells[-1]["spills"],
            "promotes": cells[-1]["promotes"],
        }

    report["spill"] = {
        "sessions": spill_sessions,
        "n": spill_n,
        "d": SPILL_D,
        "passes": spill_passes,
        "ram_capacity_entries": 2,
        "two_tier": _spill_mode_cell(spill_two_cells),
        "reprepare": _spill_mode_cell(spill_base_cells),
    }
    report["spill_headline"] = {
        "sessions": spill_sessions,
        "n": spill_n,
        # Single-threaded paired ratio (promote-by-mmap vs full
        # re-sort on every checkout) — meaningful on any machine,
        # 1-core CI containers included.
        "promote_speedup_vs_reprepare": _median(paired_spill_speedups),
        "paired_speedups_per_round": paired_spill_speedups,
    }
    # Network cell: localhost socket frontend vs in-process dispatch
    # (the wire-overhead pair) plus the open-loop many-tenant curve
    # with coordinated-omission-safe percentiles.  One round: the
    # overhead pair is internally paired (same server, same requests,
    # back to back) and the open-loop points are rate-calibrated to
    # the measured wire capacity, so machine drift cancels within the
    # cell the same way the repeat-median protects the others.
    report["network"] = network_cell(smoke=smoke)
    top_shards = shard_counts[-1]
    report["sharded_headline"] = {
        "shards": top_shards,
        "mode": shard_mode,
        "cores": cores,
        "concurrency": shard_concurrency,
        "sessions": shard_sessions,
        "speedup_vs_one_shard": _median(paired_shard_speedups[top_shards]),
        "paired_speedups_per_round": paired_shard_speedups[top_shards],
        # Replica scaling is core-bound: every shard runs the full
        # single-server stack, so a one-core container pins this near
        # 1.0x regardless of mode (see the module docstring).
        "core_bound": cores < top_shards,
    }
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "-o", "--output", default="BENCH_serve.json",
        help="output path (default: BENCH_serve.json)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="runs per cell (the median is reported)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny CI-sized pass (n=64, d=16, 64 requests)",
    )
    parser.add_argument(
        "--shard-mode", choices=("auto", "thread", "process"),
        default="auto",
        help="shard backing for the scaling sweep: spawned processes "
        "(true parallelism), threads, or auto (processes when the "
        "machine has more than one core)",
    )
    parser.add_argument(
        "--trace-output", default="trace_serve.jsonl",
        help="JSONL path for the spans of the fully-traced "
        "observability cell (default: trace_serve.jsonl); 'none' "
        "disables the export",
    )
    args = parser.parse_args()
    trace_output = (
        None if args.trace_output.lower() == "none" else args.trace_output
    )
    report = run(
        repeats=args.repeats,
        smoke=args.smoke,
        shard_mode=args.shard_mode,
        trace_output=trace_output,
    )
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"wrote {args.output}")
    for cell in report["serial"]:
        print(
            f"  serial {cell['engine']:>11}: {cell['seconds'] * 1e3:8.2f} ms "
            f"({cell['throughput_qps']:8.0f} q/s)"
        )
    for cell in report["served"]:
        print(
            f"  served c={cell['concurrency']:>4} x{cell['sessions']} "
            f"sessions: {cell['seconds'] * 1e3:8.2f} ms "
            f"({cell['throughput_qps']:8.0f} q/s, "
            f"mean batch {cell['mean_batch_size']:.1f}, "
            f"p99 {cell['latency_seconds']['p99'] * 1e3:.2f} ms)"
        )
    for cell in report["sharded"]:
        print(
            f"  sharded x{cell['shards']} ({cell['mode']}): "
            f"{cell['seconds'] * 1e3:8.2f} ms "
            f"({cell['throughput_qps']:8.0f} q/s, "
            f"{cell['speedup_vs_one_shard']:.2f}x vs 1 shard, "
            f"imbalance {cell['load_imbalance']:.2f})"
        )
    for cell in report["quality_tiers"]:
        print(
            f"  tier {cell['tier']:>12}: {cell['seconds'] * 1e3:8.2f} ms "
            f"({cell['throughput_qps']:8.0f} q/s, "
            f"p95 {cell['latency_seconds']['p95'] * 1e3:.2f} ms)"
        )
    quality = report["quality_headline"]
    print(
        f"  quality headline: aggressive "
        f"{quality['aggressive_speedup_vs_conservative']:.2f}x over "
        f"conservative ({quality['aggressive_speedup_vs_exact']:.2f}x vs "
        f"exact-GEMM) at {quality['concurrency']} in flight"
    )
    adaptive = report["adaptive"]
    print(
        f"  adaptive (SLO {adaptive['slo_p95_seconds'] * 1e3:.1f} ms, "
        f"{adaptive['concurrency']} in flight): p95 "
        f"{adaptive['p95_uncontrolled_seconds'] * 1e3:.2f} ms uncontrolled vs "
        f"{adaptive['p95_controlled_seconds'] * 1e3:.2f} ms controlled "
        f"({adaptive['p95_relief']:.2f}x relief, "
        f"{adaptive['controller']['downgrades']} downgrade(s), "
        f"{adaptive['rejected']} rejected)"
    )
    failover = report["failover"]
    print(
        f"  failover x{failover['shards']} R={failover['replication']}: "
        f"steady p95 {failover['steady']['p95_ms']:.2f} ms vs kill-window "
        f"p95 {failover['kill_window']['p95_ms']:.2f} ms "
        f"({failover['p95_degradation']:.2f}x, "
        f"{failover['failover']['failovers']} failover(s), "
        f"{failover['steady']['errors'] + failover['kill_window']['errors']} "
        f"lost)"
    )
    tenants = report["many_tenant"]
    print(
        f"  many-tenant x{tenants['sessions']} sessions "
        f"(c={tenants['concurrency']}): fused "
        f"{tenants['fused_seconds'] * 1e3:8.2f} ms vs unfused "
        f"{tenants['unfused_seconds'] * 1e3:8.2f} ms "
        f"({tenants['fused_speedup_vs_unfused']:.2f}x, "
        f"max {tenants['max_segments']} segments/batch)"
    )
    streaming = report["streaming"]
    print(
        f"  streaming n0={streaming['n0']} +{streaming['append_rows']}x"
        f"{streaming['blocks']} rows: incremental "
        f"{streaming['incremental_seconds'] * 1e3:8.2f} ms vs re-prepare "
        f"{streaming['reprepare_seconds'] * 1e3:8.2f} ms "
        f"({report['streaming_headline']['append_speedup_vs_reprepare']:.2f}x)"
    )
    obs = report["observability"]
    print(
        f"  observability c={obs['concurrency']}: disabled-vs-headline "
        f"{obs['disabled_vs_headline']:.3f}x (A/A), sampled@0.05 "
        f"{obs['sampled_overhead']:.3f}x, traced@1.0 "
        f"{obs['tracing_overhead']:.3f}x, "
        f"{obs['trace_spans_exported']} spans exported"
    )
    network = report["network"]
    open_loop = network["open_loop"]
    print(
        f"  network ({network['transport']}): wire overhead "
        f"{network['wire_overhead_seconds_mean'] * 1e3:.3f} ms/req "
        f"({network['wire_overhead_ratio']:.2f}x in-process); open-loop "
        f"@{open_loop['offered_rate_qps']:.0f} q/s CO-safe p99 "
        f"{open_loop['latency_seconds']['p99'] * 1e3:.2f} ms "
        f"({open_loop['errors']} errors)"
    )
    headline = report["headline"]
    print(
        f"  headline: {headline['batched_speedup_vs_serial']:.2f}x over the "
        f"best serial baseline at {headline['concurrency']} in flight"
    )
    sharded = report["sharded_headline"]
    bound = " (core-bound)" if sharded["core_bound"] else ""
    print(
        f"  sharded headline: {sharded['speedup_vs_one_shard']:.2f}x at "
        f"{sharded['shards']} shards on {sharded['cores']} core(s), "
        f"{sharded['mode']} mode{bound}"
    )


if __name__ == "__main__":
    main()
