"""Statistics, the per-layer budget, and the run record.

Pure helpers over what the generator and the server process measured;
nothing here touches a socket or a clock except :func:`cpu_times` and
:func:`run_record`, which read ``/proc``.
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
from dataclasses import dataclass
from time import perf_counter as now

import numpy as np

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "Budget",
    "budget",
    "calm_windows",
    "cpu_times",
    "in_windows",
    "layer_metrics",
    "percentile",
    "render_budget",
    "run_record",
]

#: ``(name, unit, better)`` of every end-to-end metric (tracing off).
END_TO_END = [
    ("p50_ms", "ms", "lower"),
    ("server_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]

#: ``(name, unit, better)`` of every per-layer metric (traced run).
PER_LAYER = [
    ("client.lag_ms", "ms", "lower"),
    ("client.failed_ops", "count", "lower"),
    ("client.write_p50_ms", "ms", "lower"),
    ("client.write_p90_ms", "ms", "lower"),
    ("protocol.client_encode_us", "us", "lower"),
    ("protocol.server_decode_us", "us", "lower"),
    ("protocol.server_encode_us", "us", "lower"),
    ("protocol.client_decode_us", "us", "lower"),
    ("protocol.bytes_per_op", "B/op", "lower"),
    ("frontend.ingress_ms", "ms", "lower"),
    ("frontend.egress_ms", "ms", "lower"),
    ("frontend.admit_wait_ms", "ms", "lower"),
    ("service.submit_us", "us", "lower"),
    ("batcher.queue_ms", "ms", "lower"),
    ("batcher.fill_ms", "ms", "lower"),
    ("batcher.batch_size", "count", "higher"),
    ("batcher.segments", "count", "higher"),
    ("batcher.idle_hold_share", "ratio", "lower"),
    ("scheduler.dispatch_ms", "ms", "lower"),
    ("scheduler.resolve_ms", "ms", "lower"),
    ("scheduler.busy_share", "ratio", "lower"),
    ("sessions.prepare_ms", "ms", "lower"),
    ("sessions.mutate_ms", "ms", "lower"),
    ("sessions.checkout_us", "us", "lower"),
    ("sessions.hit_rate", "ratio", "higher"),
    ("sessions.bytes_mb", "MB", "lower"),
    ("core.attend_ms", "ms", "lower"),
    ("core.ragged_ms", "ms", "lower"),
    ("core.rows_per_call", "rows/call", "higher"),
    ("core.us_per_row", "us/row", "lower"),
    ("core.search.boundary_estimate_ms", "ms", "lower"),
    ("core.search.stream_extraction_ms", "ms", "lower"),
    ("core.search.gated_walk_ms", "ms", "lower"),
    ("core.search.accumulate_ms", "ms", "lower"),
    ("core.search.finalize_ms", "ms", "lower"),
    ("core.attend.score_gemm_ms", "ms", "lower"),
    ("core.attend.post_scoring_ms", "ms", "lower"),
    ("core.attend.softmax_scatter_ms", "ms", "lower"),
    ("core.candidate_fraction", "ratio", "lower"),
    ("core.kept_fraction", "ratio", "higher"),
    ("core.mutate.splice_ms", "ms", "lower"),
    ("core.mutate.rebuild_share", "ratio", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.unattributed_ms", "ms", "lower"),
    ("trace.dropped_spans", "count", "lower"),
]

#: Kernel stages (``StageProfiler`` names) that partition one attend call.
KERNEL_STAGES = [
    "search.boundary_estimate",
    "search.stream_extraction",
    "search.gated_walk",
    "search.accumulate",
    "search.finalize",
    "attend.score_gemm",
    "attend.post_scoring",
    "attend.softmax_scatter",
]

SERVER_STAGES = [
    "submit", "queue", "batch_formation", "dispatch", "kernel", "resolve",
]

#: The timed phase is cut into windows this long; end-to-end percentiles
#: use the reads scheduled in the calmest share of them (by CPU steal).
WINDOW_SECONDS = 3.0
CALM_SHARE = 1 / 3


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of ``samples``.

    A failed request enters as ``math.inf``: it sorts above every
    answer, so misses push the percentiles up instead of vanishing.
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# the budget table
# ----------------------------------------------------------------------
@dataclass
class Budget:
    """Mean client-observed latency split into rows.

    ``rows`` partition ``total`` up to ``remainder`` (time no span
    covers); ``kernel`` splits the ``kernel`` row by kernel stage and is
    not added again.
    """

    rows: list[tuple[str, float]]
    total: float
    remainder: float
    count: int
    kernel: list[tuple[str, float]]


def request_parts(op, client_span, server_span, children) -> dict[str, float]:
    """One traced read's latency split, in seconds, in budget-row order."""
    parts = {}
    if not math.isnan(op.acked):
        parts["append"] = op.acked - op.due
        parts["client"] = client_span["started_at"] - op.acked
    else:
        parts["client"] = client_span["started_at"] - op.due
    parts["ingress"] = server_span["started_at"] - client_span["started_at"]
    for child in children:
        parts[child["name"]] = parts.get(child["name"], 0.0) + (
            child["ended_at"] - child["started_at"]
        )
    parts["egress"] = client_span["ended_at"] - server_span["ended_at"]
    return parts


def budget(ops, client_spans, server_spans, stages=None, kernel_seconds=0.0):
    """Join each answered read to its client and server spans and
    average the per-request splits.

    ``stages`` (``StageProfiler.summary()``) and ``kernel_seconds`` (wall
    time inside the kernel entry points) split the kernel row in
    proportion to each stage's share of kernel time.
    """
    by_op = {
        span["attrs"].get("op"): span
        for span in client_spans
        if span["name"] == "client_request"
    }
    roots = {}
    children: dict[str, list] = {}
    for span in server_spans:
        if span["name"] == "request":
            roots[span["parent_id"]] = span
        else:
            children.setdefault(span["parent_id"], []).append(span)
    splits, totals = [], []
    for op in ops:
        client_span = by_op.get(op.index)
        if not op.ok or client_span is None:
            continue
        server_span = roots.get(client_span["span_id"])
        if server_span is None:
            continue
        splits.append(request_parts(
            op, client_span, server_span,
            children.get(server_span["span_id"], []),
        ))
        totals.append(op.done - op.due)
    names = []
    for parts in splits:
        names.extend(name for name in parts if name not in names)
    order = ["append", "client", "ingress", *SERVER_STAGES, "egress"]
    names.sort(key=lambda n: order.index(n) if n in order else len(order))
    rows = [
        (name, _mean(parts.get(name, 0.0) for parts in splits))
        for name in names
    ]
    total = _mean(totals)
    remainder = total - sum(value for _, value in rows)
    kernel_row = dict(rows).get("kernel", 0.0)
    kernel = []
    if stages and kernel_seconds > 0:
        for stage in KERNEL_STAGES:
            share = stages.get(stage, {}).get("total_seconds", 0.0)
            kernel.append((stage, kernel_row * share / kernel_seconds))
        kernel.append(("other", kernel_row - sum(v for _, v in kernel)))
    return Budget(rows, total, remainder, len(splits), kernel)


def render_budget(title: str, table: Budget) -> str:
    total = table.total or math.nan
    lines = [
        f"budget: {title} — {table.count} traced reads, "
        f"client-observed mean {table.total * 1e3:.3f} ms",
        f"  {'row':<32}{'mean ms':>10}{'share':>9}",
    ]

    def line(name, seconds, indent="  "):
        lines.append(
            f"{indent}{name:<{34 - len(indent)}}{seconds * 1e3:>10.3f}"
            f"{100 * seconds / total:>8.1f}%"
        )

    for name, seconds in table.rows:
        line(name, seconds)
        if name == "kernel":
            for stage, stage_seconds in table.kernel:
                line(stage, stage_seconds, indent="      ")
    line("unattributed", table.remainder)
    line("total", table.total)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def _clock_mean(clock: dict, name: str) -> float:
    entry = clock.get(name)
    return entry["seconds"] / entry["calls"] if entry and entry["calls"] else 0.0


def layer_metrics(
    *,
    ops,
    table: Budget,
    server: dict,
    client_clock: dict,
    client_dropped: int,
    untraced_p50: float,
    wall_seconds: float,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced phase, keyed by name."""
    clock = server["clock"]
    stages = server["stages"]
    parts = dict(table.rows)
    lateness = [op.started - op.due for op in ops]
    reads = [op.latency for op in ops]
    writes = [op.write_latency for op in ops if not math.isnan(op.acked)]
    batches = server["batches"]
    hold = 0.5 * server["max_wait_seconds"]
    kernel_calls = sum(
        clock.get(name, {}).get("calls", 0)
        for name in ("core.attend", "core.ragged")
    )
    kernel_seconds = sum(
        clock.get(name, {}).get("seconds", 0.0)
        for name in ("core.attend", "core.ragged")
    )
    kernel_rows = sum(
        clock.get(name, {}).get("items", 0.0)
        for name in ("core.attend", "core.ragged")
    )
    wire_bytes = sum(
        client_clock.get(name, {}).get("items", 0.0)
        for name in ("protocol.client_encode", "protocol.client_decode")
    )
    lookups = server["cache_hits"] + server["cache_misses"]
    selection = server["selection"]
    splices = stages.get("mutate.splice", {}).get("calls", 0)
    rebuilds = stages.get("mutate.rebuild", {}).get("calls", 0)

    def stage_ms(stage):
        total = stages.get(stage, {}).get("total_seconds", 0.0)
        return 1e3 * total / kernel_calls if kernel_calls else 0.0

    traced_p50 = percentile(reads, 0.5) if reads else math.nan
    values = {
        "client.lag_ms": 1e3 * percentile(lateness, 0.99),
        "client.failed_ops": sum(not op.ok for op in ops),
        "client.write_p50_ms": 1e3 * percentile(writes, 0.5) if writes else 0.0,
        "client.write_p90_ms": 1e3 * percentile(writes, 0.9) if writes else 0.0,
        "protocol.client_encode_us": 1e6 * _clock_mean(
            client_clock, "protocol.client_encode"),
        "protocol.server_decode_us": 1e6 * _clock_mean(
            clock, "protocol.server_decode"),
        "protocol.server_encode_us": 1e6 * _clock_mean(
            clock, "protocol.server_encode"),
        "protocol.client_decode_us": 1e6 * _clock_mean(
            client_clock, "protocol.client_decode"),
        "protocol.bytes_per_op": wire_bytes / len(ops) if ops else 0.0,
        "frontend.ingress_ms": 1e3 * parts.get("ingress", 0.0),
        "frontend.egress_ms": 1e3 * parts.get("egress", 0.0),
        "frontend.admit_wait_ms": 1e3 * _clock_mean(clock, "frontend.admit_wait"),
        "service.submit_us": 1e6 * _clock_mean(clock, "service.submit"),
        "batcher.queue_ms": 1e3 * parts.get("queue", 0.0),
        "batcher.fill_ms": 1e3 * parts.get("batch_formation", 0.0),
        "batcher.batch_size": _mean(size for size, _, _ in batches),
        "batcher.segments": _mean(segments for _, segments, _ in batches),
        "batcher.idle_hold_share": (
            sum(size == 1 and fill >= hold for size, _, fill in batches)
            / len(batches) if batches else 0.0
        ),
        "scheduler.dispatch_ms": 1e3 * _clock_mean(clock, "scheduler.dispatch"),
        "scheduler.resolve_ms": 1e3 * parts.get("resolve", 0.0),
        "scheduler.busy_share": (
            clock.get("scheduler.dispatch", {}).get("seconds", 0.0)
            / wall_seconds
        ),
        "sessions.prepare_ms": 1e3 * _clock_mean(
            server["setup_clock"], "sessions.prepare"),
        "sessions.mutate_ms": 1e3 * _clock_mean(clock, "sessions.mutate"),
        "sessions.checkout_us": 1e6 * _clock_mean(clock, "sessions.checkout"),
        "sessions.hit_rate": server["cache_hits"] / lookups if lookups else 0.0,
        "sessions.bytes_mb": server["cache_bytes"] / 2**20,
        "core.attend_ms": 1e3 * _clock_mean(clock, "core.attend"),
        "core.ragged_ms": 1e3 * _clock_mean(clock, "core.ragged"),
        "core.rows_per_call": kernel_rows / kernel_calls if kernel_calls else 0.0,
        "core.us_per_row": 1e6 * kernel_seconds / kernel_rows if kernel_rows else 0.0,
        "core.candidate_fraction": (
            selection["candidates"] / selection["rows"]
            if selection["rows"] else 0.0
        ),
        "core.kept_fraction": (
            selection["kept"] / selection["candidates"]
            if selection["candidates"] else 0.0
        ),
        "core.mutate.splice_ms": 1e3 * (
            stages.get("mutate.splice", {}).get("mean_seconds", 0.0)
        ),
        "core.mutate.rebuild_share": (
            rebuilds / (splices + rebuilds) if splices + rebuilds else 0.0
        ),
        "trace.overhead": traced_p50 / untraced_p50,
        "trace.unattributed_ms": 1e3 * table.remainder,
        "trace.dropped_spans": server["dropped_spans"] + client_dropped,
    }
    for stage in KERNEL_STAGES:
        values[f"core.{stage}_ms"] = stage_ms(stage)
    return values


# ----------------------------------------------------------------------
# the run record
# ----------------------------------------------------------------------
def cpu_times() -> tuple[float, int, int, int]:
    """``(time, steal, busy, total)``: the clock, then jiffies from
    ``/proc/stat`` summed over the CPUs this process may run on (busy =
    user + nice + system + irq + softirq)."""
    mine = {f"cpu{cpu}" for cpu in os.sched_getaffinity(0)}
    steal = busy = total = 0
    with open("/proc/stat", encoding="ascii") as stat:
        for line in stat:
            name, *fields = line.split()
            if name in mine:
                f = [int(x) for x in fields[:8]]
                steal += f[7]
                busy += f[0] + f[1] + f[2] + f[5] + f[6]
                total += sum(f)
    return now(), steal, busy, total


def calm_windows(samples, share: float = CALM_SHARE) -> list[tuple]:
    """The calmest ``share`` of the windows between consecutive
    :func:`cpu_times` samples, and every window as calm as the last of
    those, as ``(start, end)`` times.

    A window's interference is the share of the CPU time the sampled
    CPUs wanted that the hypervisor gave to someone else
    (``steal / (busy + steal)``), which does not depend on how busy the
    program itself was.  Steal is counted in whole jiffies, so on a quiet
    host most windows read 0; keeping the ties keeps all of them rather
    than the earliest.
    """
    ranked = sorted(
        ((s1 - s0) / max(1, (b1 - b0) + (s1 - s0)), t0, t1)
        for (t0, s0, b0, _), (t1, s1, b1, _) in zip(samples, samples[1:])
    )
    keep = max(1, round(share * len(ranked)))
    cutoff = ranked[keep - 1][0]
    return [(t0, t1) for level, t0, t1 in ranked if level <= cutoff]


def in_windows(ops, windows) -> list:
    """The ops scheduled inside any of ``windows``."""
    return [op for op in ops if any(lo <= op.due < hi for lo, hi in windows)]


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, asked through its C API."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {
                line.split()[-1] for line in maps if "openblas" in line.lower()
            }
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
        ):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def run_record(*, cpu: list, ops, samples: dict) -> dict:
    """What a reader needs to tell a noisy machine from a slow program."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    (_, steal0, _, total0), (_, steal1, _, total1) = cpu[0], cpu[-1]
    lateness = [op.started - op.due for op in ops]
    reads = [op.latency for op in ops]
    return {
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "steal_share": (steal1 - steal0) / max(1, total1 - total0),
        "lateness_p99_ms": 1e3 * percentile(lateness, 0.99),
        "lateness_max_ms": 1e3 * max(lateness),
        "read_percentiles_ms": {
            f"p{round(100 * q)}": 1e3 * percentile(reads, q)
            for q in (0.5, 0.9, 0.95, 0.99, 1.0)
        },
        "samples": samples,
    }
