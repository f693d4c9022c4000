"""Open-loop network load generation with coordinated-omission-safe
latency accounting.

Closed-loop load (each client fires its next request when the previous
response lands) systematically under-reports tail latency: while the
server stalls, the blocked clients *stop generating the arrivals the
workload would really produce*, so the stall suppresses the very
samples that should have recorded it — Gil Tene's *coordinated
omission*.  This harness avoids it twice over:

* **open-loop arrivals** — requests fire on a Poisson schedule fixed
  before the run (:func:`poisson_schedule`); the generator never waits
  for a response before sending the next request, so a server stall
  faces the backlog a real independent-client population would
  produce;
* **scheduled-send timestamps** — each request's latency is measured
  from the instant it was *scheduled* to depart, not the instant the
  generator actually managed to send it
  (:class:`OpenLoopResult.latency_seconds`).  If the generator itself
  falls behind (GIL, a slow send), the lag counts against the server's
  percentiles instead of silently vanishing.  The naive
  actual-send accounting is reported alongside
  (:class:`OpenLoopResult.naive_latency_seconds`) so the gap is
  visible.

The distinction is testable without wall clocks:
:func:`simulate_open_loop` / :func:`simulate_closed_loop` run the same
service-time sequence through a single FIFO server under each
discipline — a single injected stall inflates the open-loop p99 and
leaves the closed-loop p99 asleep (``tests/serve/test_loadgen.py``
pins this).

As a script, drives a live :class:`~repro.serve.frontend.NetworkFrontend`
(``--connect HOST:PORT``) or self-hosts one on the loopback
(``--self-host``), exits nonzero on any request error, and prints the
JSON report the CI network smoke job asserts on::

    PYTHONPATH=src python benchmarks/loadgen.py --self-host --smoke
    PYTHONPATH=src python benchmarks/loadgen.py --connect 127.0.0.1:7070 \
        --rate 200 --requests 1000
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.serve.observability import now  # noqa: E402
from repro.serve.stats import latency_summary  # noqa: E402

DEFAULT_RATE = 200.0
DEFAULT_REQUESTS = 500
DEFAULT_SESSIONS = 4


# ----------------------------------------------------------------------
# arrival schedules
# ----------------------------------------------------------------------


def poisson_schedule(
    rate_qps: float, count: int, seed: int = 0
) -> np.ndarray:
    """``count`` Poisson arrival offsets (seconds from start) at
    ``rate_qps`` — i.i.d. exponential gaps, fixed before the run so the
    generator never adapts to the server (the open-loop property)."""
    if rate_qps <= 0:
        raise ValueError(f"rate_qps must be positive, got {rate_qps}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(scale=1.0 / rate_qps, size=count)
    return np.cumsum(gaps)


# ----------------------------------------------------------------------
# discipline simulators (the CO fixture — no wall clock involved)
# ----------------------------------------------------------------------


def simulate_open_loop(
    schedule: np.ndarray, service_seconds: np.ndarray
) -> np.ndarray:
    """Latencies of an *open-loop* client against one FIFO server.

    Request ``i`` arrives at ``schedule[i]`` regardless of the server's
    state; the server works the queue in order, so completion is
    ``max(arrival, previous completion) + service``.  Latency is
    completion minus the **scheduled** arrival: queueing delay behind a
    stall lands in the samples.
    """
    schedule = np.asarray(schedule, dtype=np.float64)
    service_seconds = np.asarray(service_seconds, dtype=np.float64)
    if schedule.shape != service_seconds.shape:
        raise ValueError(
            f"schedule and service shapes differ: "
            f"{schedule.shape} vs {service_seconds.shape}"
        )
    completions = np.empty_like(schedule)
    clock = 0.0
    for i in range(len(schedule)):
        clock = max(clock, schedule[i]) + service_seconds[i]
        completions[i] = clock
    return completions - schedule


def simulate_closed_loop(service_seconds: np.ndarray) -> np.ndarray:
    """Latencies of a *closed-loop* client over the same service times.

    The client sends request ``i`` only after response ``i-1`` lands
    and measures from its actual send — so every sample is exactly the
    service time, and the queueing a stall would impose on an
    independent arrival stream is never observed.  This is the
    coordinated-omission failure mode the open-loop accounting exists
    to avoid.
    """
    return np.asarray(service_seconds, dtype=np.float64).copy()


# ----------------------------------------------------------------------
# live open-loop driver
# ----------------------------------------------------------------------


@dataclass
class OpenLoopResult:
    """One open-loop run: CO-safe and naive accountings side by side."""

    requests: int
    errors: int
    wall_seconds: float
    offered_rate_qps: float
    achieved_rate_qps: float
    #: completion − *scheduled* send (coordinated-omission-safe)
    latency_seconds: dict = field(default_factory=dict)
    #: completion − *actual* send (the naive accounting, for contrast)
    naive_latency_seconds: dict = field(default_factory=dict)
    #: how far the generator itself fell behind its schedule
    max_send_lag_seconds: float = 0.0
    error_kinds: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "wall_seconds": self.wall_seconds,
            "offered_rate_qps": self.offered_rate_qps,
            "achieved_rate_qps": self.achieved_rate_qps,
            "latency_seconds": dict(self.latency_seconds),
            "naive_latency_seconds": dict(self.naive_latency_seconds),
            "max_send_lag_seconds": self.max_send_lag_seconds,
            "error_kinds": dict(self.error_kinds),
        }


def run_open_loop(
    submit,
    schedule: np.ndarray,
    *,
    offered_rate_qps: float,
    timeout_seconds: float = 60.0,
) -> OpenLoopResult:
    """Fire ``submit(i)`` (→ a Future) at each scheduled offset.

    The pacing loop sleeps to each offset and fires without waiting for
    responses; completions are timestamped by the futures' callbacks.
    Per-request latency is ``completion - scheduled_send``; the actual
    send time only feeds the contrast accounting and the
    ``max_send_lag_seconds`` generator-health figure.
    """
    count = len(schedule)
    scheduled = np.empty(count)
    actual = np.empty(count)
    completed = np.full(count, np.nan)
    failed: dict[int, str] = {}
    done = threading.Event()
    remaining = [count]
    lock = threading.Lock()

    def finish(index: int, future) -> None:
        stamp = now()
        error = future.exception()
        with lock:
            if error is not None:
                failed[index] = type(error).__name__
            completed[index] = stamp
            remaining[0] -= 1
            if remaining[0] == 0:
                done.set()

    start = now()
    for i in range(count):
        target = start + schedule[i]
        delay = target - now()
        if delay > 0:
            time.sleep(delay)
        scheduled[i] = target
        actual[i] = now()
        try:
            future = submit(i)
        except Exception as exc:  # noqa: BLE001 — synchronous reject
            stamp = now()
            with lock:
                failed[i] = type(exc).__name__
                completed[i] = stamp
                remaining[0] -= 1
                if remaining[0] == 0:
                    done.set()
            continue
        future.add_done_callback(lambda f, i=i: finish(i, f))
    if count and not done.wait(timeout_seconds):
        with lock:
            for i in range(count):
                if np.isnan(completed[i]):
                    failed.setdefault(i, "TimeoutError")
                    completed[i] = now()
    wall = max(now() - start, 1e-12)

    ok = np.array(
        [i for i in range(count) if i not in failed], dtype=np.intp
    )
    co_safe = (completed[ok] - scheduled[ok]) if len(ok) else np.array([])
    naive = (completed[ok] - actual[ok]) if len(ok) else np.array([])
    kinds: dict[str, int] = {}
    for kind in failed.values():
        kinds[kind] = kinds.get(kind, 0) + 1
    return OpenLoopResult(
        requests=count,
        errors=len(failed),
        wall_seconds=wall,
        offered_rate_qps=offered_rate_qps,
        achieved_rate_qps=len(ok) / wall,
        latency_seconds=latency_summary(co_safe),
        naive_latency_seconds=latency_summary(naive),
        max_send_lag_seconds=(
            float(np.max(actual - scheduled)) if count else 0.0
        ),
        error_kinds=kinds,
    )


def drive_network(
    client,
    session_ids,
    queries: np.ndarray,
    schedule: np.ndarray,
    *,
    offered_rate_qps: float,
    tier: str | None = None,
    timeout_seconds: float = 60.0,
) -> OpenLoopResult:
    """Open-loop drive of an :class:`~repro.serve.client.AttentionClient`.

    Request ``i`` goes to session ``i % len(session_ids)`` with query
    row ``i % len(queries)`` — the many-tenant round-robin arrival
    shape.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))

    def submit(i: int):
        return client.submit(
            session_ids[i % len(session_ids)],
            queries[i % len(queries)],
            tier=tier,
        )

    return run_open_loop(
        submit,
        schedule,
        offered_rate_qps=offered_rate_qps,
        timeout_seconds=timeout_seconds,
    )


# ----------------------------------------------------------------------
# wire-overhead pairing (in-process vs localhost socket)
# ----------------------------------------------------------------------


def wire_overhead_pair(
    server, client, session_id: str, queries: np.ndarray
) -> dict:
    """Serial per-request latency, in-process vs over the wire.

    The *same* requests run against the *same* live server twice — once
    through :meth:`AttentionServer.attend` directly, once through the
    socket client — so the difference prices exactly the wire: framing,
    two localhost socket hops, and the frontend's event loop.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    in_process = np.empty(len(queries))
    wire = np.empty(len(queries))
    for i, query in enumerate(queries):
        t0 = now()
        server.attend(session_id, query)
        in_process[i] = now() - t0
    for i, query in enumerate(queries):
        t0 = now()
        client.attend(session_id, query)
        wire[i] = now() - t0
    in_mean = float(in_process.mean())
    wire_mean = float(wire.mean())
    return {
        "requests": int(len(queries)),
        "in_process_latency_seconds": latency_summary(in_process),
        "wire_latency_seconds": latency_summary(wire),
        "wire_overhead_seconds_mean": wire_mean - in_mean,
        "wire_overhead_ratio": wire_mean / in_mean if in_mean > 0 else 0.0,
    }


# ----------------------------------------------------------------------
# self-contained network benchmark (the self-hosted network cell)
# ----------------------------------------------------------------------


def network_cell(
    *,
    smoke: bool = False,
    rate_qps: float | None = None,
    requests: int | None = None,
    sessions: int | None = None,
    seed: int = 0,
) -> dict:
    """Self-hosted localhost benchmark: wire-overhead pair plus an
    open-loop many-tenant curve, as one JSON report."""
    from repro.serve import AttentionServer, ServerConfig
    from repro.serve.client import AttentionClient
    from repro.serve.frontend import NetworkFrontend

    n, d = (64, 16) if smoke else (320, 64)
    count = requests if requests is not None else (64 if smoke else 500)
    tenants = sessions if sessions is not None else (2 if smoke else 4)
    overhead_requests = 32 if smoke else 128

    rng = np.random.default_rng(seed)
    server = AttentionServer(ServerConfig())
    server.start()
    ids = []
    for s in range(tenants):
        sid = f"net-s{s}"
        server.register_session(
            sid, rng.normal(size=(n, d)), rng.normal(size=(n, d))
        )
        ids.append(sid)
    queries = rng.normal(size=(count, d))

    frontend = NetworkFrontend(server)
    frontend.start()
    try:
        client = AttentionClient(frontend.address)
        try:
            overhead = wire_overhead_pair(
                server, client, ids[0], queries[:overhead_requests]
            )
            # Calibrate the offered rate to the measured serial wire
            # capacity so the cell is comparable across machines: the
            # curve probes fixed utilization fractions, not fixed QPS.
            capacity = 1.0 / max(
                overhead["wire_latency_seconds"]["mean"], 1e-9
            )
            utilizations = (0.25, 0.5) if smoke else (0.25, 0.5, 0.75)
            curve = []
            for utilization in utilizations:
                offered = (
                    rate_qps
                    if rate_qps is not None
                    else max(1.0, utilization * capacity)
                )
                schedule = poisson_schedule(offered, count, seed=seed)
                result = drive_network(
                    client,
                    ids,
                    queries,
                    schedule,
                    offered_rate_qps=offered,
                )
                if result.errors:
                    raise RuntimeError(
                        f"{result.errors} open-loop request errors "
                        f"({result.error_kinds})"
                    )
                curve.append(
                    {"utilization": utilization, **result.to_dict()}
                )
                if rate_qps is not None:
                    break
        finally:
            client.close()
    finally:
        frontend.stop()
        server.stop()

    headline = curve[len(curve) // 2]
    return {
        "transport": "tcp-localhost",
        "n": n,
        "d": d,
        "sessions": tenants,
        "requests_per_point": count,
        **{k: overhead[k] for k in (
            "in_process_latency_seconds",
            "wire_latency_seconds",
            "wire_overhead_seconds_mean",
            "wire_overhead_ratio",
        )},
        "open_loop": headline,
        "open_loop_curve": curve,
    }


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument(
        "--connect", metavar="HOST:PORT",
        help="drive an already-running network frontend",
    )
    target.add_argument(
        "--self-host", action="store_true",
        help="start a server + frontend on the loopback and drive it "
        "(the CI network smoke configuration)",
    )
    parser.add_argument(
        "--rate", type=float, default=None,
        help="offered Poisson rate in q/s (default: calibrate to "
        "measured wire capacity)",
    )
    parser.add_argument(
        "--requests", type=int, default=None,
        help=f"requests per open-loop point (default {DEFAULT_REQUESTS})",
    )
    parser.add_argument(
        "--sessions", type=int, default=None,
        help=f"tenant sessions (default {DEFAULT_SESSIONS}; self-host "
        "registers them, --connect expects loadgen-s0..N-1 registered)",
    )
    parser.add_argument("--n", type=int, default=320, help="session rows")
    parser.add_argument("--d", type=int, default=64, help="key width")
    parser.add_argument(
        "--tier", default=None,
        choices=("exact", "conservative", "aggressive"),
        help="pin every request to one quality tier",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny CI-sized pass"
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the report to PATH",
    )
    args = parser.parse_args(argv)

    if args.self_host:
        report = network_cell(
            smoke=args.smoke,
            rate_qps=args.rate,
            requests=args.requests,
            sessions=args.sessions,
            seed=args.seed,
        )
        errors = sum(
            point["errors"] for point in report["open_loop_curve"]
        )
    else:
        from repro.serve.client import AttentionClient

        count = args.requests or DEFAULT_REQUESTS
        tenants = args.sessions or DEFAULT_SESSIONS
        rate = args.rate or DEFAULT_RATE
        rng = np.random.default_rng(args.seed)
        queries = rng.normal(size=(count, args.d))
        client = AttentionClient(args.connect)
        try:
            ids = []
            for s in range(tenants):
                sid = f"loadgen-s{s}"
                client.register_session(
                    sid,
                    rng.normal(size=(args.n, args.d)),
                    rng.normal(size=(args.n, args.d)),
                )
                ids.append(sid)
            schedule = poisson_schedule(rate, count, seed=args.seed)
            result = drive_network(
                client, ids, queries, schedule,
                offered_rate_qps=rate, tier=args.tier,
            )
            for sid in ids:
                client.close_session(sid)
        finally:
            client.close()
        report = {
            "transport": f"tcp-{args.connect}",
            "sessions": tenants,
            "open_loop": result.to_dict(),
        }
        errors = result.errors

    text = json.dumps(report, indent=2)
    print(text)
    if args.json:
        Path(args.json).write_text(text + "\n")
    if errors:
        print(f"FAILED: {errors} request error(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
