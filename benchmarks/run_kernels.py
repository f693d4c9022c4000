"""The gated benchmark runner: paired in-process ratios, ``BENCH_kernels.json``.

Every cell is one dimensionless ratio between two ways of doing the
same work, measured in this process on this machine:

* ``kernels/<config>/batch<q>/vectorized_speedup_vs_reference`` — one
  ``attend_many`` of ``q`` queries on the vectorized engine against the
  per-query reference loop, at the paper's two named operating points
  and q = 16, 64 and 320;
* ``serve/batched_speedup_vs_serial`` — a burst of 64 queries through a
  running :class:`repro.serve.AttentionServer` against the same queries
  dispatched one at a time on a prepared reference backend;
* ``serve/quality_aggressive_speedup_vs_conservative`` and
  ``serve/quality_aggressive_speedup_vs_exact`` — such a burst pinned
  to each quality tier over a session at n=1024 (the serving-layer
  width of the paper's accuracy/latency dial; the exact tier is one
  BLAS GEMM in software, so the second ratio sits below 1);
* ``serve/many_tenant_fused_speedup_vs_unfused`` — one row from each of
  64 sessions as one server burst (cross-session fusion: one kernel
  call) against 64 per-session ``attend_many`` calls;
* ``serve/streaming_append_speedup_vs_reprepare`` — an 8-row append
  spliced into a prepared key at n=1024 against re-preparing the grown
  key;
* ``serve/spill_promote_speedup_vs_reprepare`` — a cache miss at
  n=2048 served by promoting the spilled artifact (mmap) against one
  served by re-preparing, through ``KeyCacheManager`` with room for two
  of six tenants in RAM.

Cells are at n=320, d=64 unless named otherwise.  A cell alternates
its two sides over interleaved rounds (:func:`paired_ratio`): each side
runs as a block of back-to-back calls lasting at least
``MIN_SECONDS``, and the cell reports the median of the per-round
ratios with every round's value, so drift in machine speed hits both
sides of a round alike.  ``check_regression.py`` gates every cell's
ratio against the committed report; the per-call seconds are
informational.  Usage::

    PYTHONPATH=src python benchmarks/run_kernels.py [-o BENCH_kernels.json]

BLAS runs on one thread unless the environment already says otherwise,
so a multi-core runner's threaded BLAS cannot move a cell by itself.
The report records the thread settings in effect and the core count.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # Before NumPy loads its BLAS, which reads them once.
    for _var in BLAS_THREAD_VARS:
        os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from functools import partial  # noqa: E402

import numpy as np  # noqa: E402

from repro.core.approximate import ApproximateAttention  # noqa: E402
from repro.core.backends import ApproximateBackend, KeyFingerprint  # noqa: E402
from repro.core.config import aggressive, conservative  # noqa: E402
from repro.serve import (  # noqa: E402
    AttentionServer,
    BatchPolicy,
    KeyCacheManager,
    ServerConfig,
)

REPORT_ID = "kernels/paired_ratios"
N, D = 320, 64
BATCH_SIZES = (16, 64, 320)
CONFIGS = {"conservative": conservative, "aggressive": aggressive}
#: Queries per served burst, and sessions in the many-tenant burst.
BURST = 64
#: Key rows of the tier cells' session.  At n=320 fixed per-batch costs
#: hold the aggressive/conservative dial near 1.5x, too close to 1 for
#: a 30% gate to tell a lost tier config from noise; at 1024 it is ~2.4x.
TIER_N = 1024
#: The splice cell: rows appended to a key of STREAM_N rows.
STREAM_N, STREAM_ROWS = 1024, 8
#: The spill cell: tenants at SPILL_N rows, two of them fit in RAM.
SPILL_N, SPILL_SESSIONS = 2048, 6
#: Shortest timed block of back-to-back calls of one side, and the
#: interleaved rounds per cell (``--repeats``).
MIN_SECONDS = 0.1
ROUNDS = 9


def paired_ratio(
    slow, fast, rounds, min_seconds=MIN_SECONDS, clock=time.perf_counter
):
    """Median over interleaved rounds of ``slow``'s per-call time over
    ``fast``'s.

    Both sides are zero-argument callables; each is called once to warm
    up.  Round ``r`` then times one block of each side, ``slow`` first
    when ``r`` is even and ``fast`` first when it is odd.  A block calls
    its side back to back until at least ``min_seconds`` of ``clock``
    have passed, and its per-call time is its duration over its calls.
    Returns ``(median ratio, per-round ratios, (slow, fast) median
    per-call seconds)``.
    """
    sides = (slow, fast)
    for side in sides:
        side()
    ratios = []
    per_call = ([], [])
    for r in range(rounds):
        seconds = [0.0, 0.0]
        for s in (0, 1) if r % 2 == 0 else (1, 0):
            calls = 0
            started = clock()
            while True:
                sides[s]()
                calls += 1
                elapsed = clock() - started
                if elapsed >= min_seconds:
                    break
            seconds[s] = elapsed / calls
            per_call[s].append(seconds[s])
        ratios.append(seconds[0] / seconds[1])
    return (
        statistics.median(ratios),
        ratios,
        (statistics.median(per_call[0]), statistics.median(per_call[1])),
    )


def _cell(name: str, sides: dict, rounds: int) -> dict:
    """One report cell: ``sides`` maps the slow and then the fast
    side's name to its callable."""
    (slow_name, slow), (fast_name, fast) = sides.items()
    ratio, per_round, (slow_s, fast_s) = paired_ratio(slow, fast, rounds)
    return {
        "name": name,
        "ratio": ratio,
        "per_round": per_round,
        "seconds": {slow_name: slow_s, fast_name: fast_s},
    }


def _server() -> AttentionServer:
    """One worker; a burst of ``BURST`` queries fills one batch."""
    return AttentionServer(
        ServerConfig(
            batch=BatchPolicy(max_batch_size=BURST, max_wait_seconds=0.005),
            num_workers=1,
        )
    )


def _memory(rng, n: int = N) -> tuple[np.ndarray, np.ndarray]:
    return rng.normal(size=(n, D)), rng.normal(size=(n, D))


def kernel_cells(rng, rounds: int) -> list[dict]:
    key, value = _memory(rng)
    queries = rng.normal(size=(max(BATCH_SIZES), D))
    cells = []
    for config_name, config in CONFIGS.items():
        engines = {}
        for engine in ("reference", "vectorized"):
            engines[engine] = ApproximateAttention(config(), engine=engine)
            engines[engine].preprocess(key)
        for batch in BATCH_SIZES:
            sides = {
                engine: partial(attention.attend_many, value, queries[:batch])
                for engine, attention in engines.items()
            }
            name = f"kernels/{config_name}/batch{batch}"
            cells.append(
                _cell(f"{name}/vectorized_speedup_vs_reference", sides, rounds)
            )
    return cells


def served_cells(rng, rounds: int) -> list[dict]:
    key, value = _memory(rng)
    queries = rng.normal(size=(BURST, D))
    serial = ApproximateBackend(conservative(), engine="reference")
    serial.prepare(key)

    def one_at_a_time():
        for query in queries:
            serial.attend(key, value, query)

    with _server() as server:
        server.register_session("burst", key, value)
        server.register_session("tiers", *_memory(rng, TIER_N))
        burst = {
            tier: partial(server.attend_many, "tiers", queries, tier=tier)
            for tier in ("exact", "conservative", "aggressive")
        }
        return [
            _cell(
                "serve/batched_speedup_vs_serial",
                {
                    "serial": one_at_a_time,
                    "served": partial(server.attend_many, "burst", queries),
                },
                rounds,
            ),
            _cell(
                "serve/quality_aggressive_speedup_vs_conservative",
                {
                    "conservative": burst["conservative"],
                    "aggressive": burst["aggressive"],
                },
                rounds,
            ),
            _cell(
                "serve/quality_aggressive_speedup_vs_exact",
                {"exact": burst["exact"], "aggressive": burst["aggressive"]},
                rounds,
            ),
        ]


def fused_cell(rng, rounds: int) -> dict:
    memories = [_memory(rng) for _ in range(BURST)]
    queries = rng.normal(size=(BURST, D))
    backends = []
    for key, _ in memories:
        backends.append(ApproximateBackend(conservative(), engine="vectorized"))
        backends[-1].prepare(key)

    def per_session():
        for (key, value), backend, query in zip(memories, backends, queries):
            backend.attend_many(key, value, query[None])

    with _server() as server:
        for s, (key, value) in enumerate(memories):
            server.register_session(f"tenant-{s}", key, value)

        def one_burst():
            requests = [
                server.submit(f"tenant-{s}", query)
                for s, query in enumerate(queries)
            ]
            for request in requests:
                request.result(30.0)

        return _cell(
            "serve/many_tenant_fused_speedup_vs_unfused",
            {"unfused": per_session, "fused": one_burst},
            rounds,
        )


def splice_cell(rng, rounds: int) -> dict:
    key = rng.normal(size=(STREAM_N, D))
    rows = rng.normal(size=(STREAM_ROWS, D))
    grown = np.concatenate([key, rows])
    streaming = ApproximateBackend(conservative(), engine="vectorized")
    streaming.prepare(key)
    # Adopting the saved n-row state rewinds each append to the same n;
    # adoption is views over the buffer, no sort and no copy.
    artifact = streaming.export_artifact()
    fingerprint = KeyFingerprint.of(key)

    def append():
        streaming.adopt_artifact(artifact, fingerprint, verify=False)
        streaming.append_rows(rows)

    fresh = ApproximateBackend(conservative(), engine="vectorized")
    return _cell(
        "serve/streaming_append_speedup_vs_reprepare",
        {"reprepare": partial(fresh.prepare, grown), "splice": append},
        rounds,
    )


def _checkout_next(manager: KeyCacheManager, session_ids) -> None:
    manager.release(manager.checkout(next(session_ids)))


def promote_cell(rng, rounds: int) -> dict:
    memories = [_memory(rng, SPILL_N) for _ in range(SPILL_SESSIONS)]
    entry_nbytes = 3 * SPILL_N * D * 8
    factory = partial(ApproximateBackend, conservative(), engine="vectorized")
    with tempfile.TemporaryDirectory(prefix="repro-spill-bench-") as spill_dir:
        managers = {
            "reprepare": KeyCacheManager(
                factory, capacity_bytes=2 * entry_nbytes + 1
            ),
            "promote": KeyCacheManager(
                factory,
                capacity_bytes=2 * entry_nbytes + 1,
                disk_capacity_bytes=2 * SPILL_SESSIONS * entry_nbytes,
                spill_dir=spill_dir,
            ),
        }
        sides = {}
        for name, manager in managers.items():
            for s, (key, value) in enumerate(memories):
                manager.register(f"tenant-{s}", key, value)
            # Round-robin over more tenants than RAM holds: every
            # checkout misses.  One untimed sweep seeds the disk tier.
            tenants = itertools.cycle(manager.session_ids)
            side = partial(_checkout_next, manager, tenants)
            for _ in range(SPILL_SESSIONS):
                side()
            sides[name] = side
        cell = _cell("serve/spill_promote_speedup_vs_reprepare", sides, rounds)
        for manager in managers.values():
            for session_id in manager.session_ids:
                manager.close(session_id)
    return cell


def run(rounds: int = ROUNDS) -> dict:
    rng = np.random.default_rng(0)
    return {
        "benchmark": REPORT_ID,
        "n": N,
        "d": D,
        "rounds": rounds,
        "min_seconds": MIN_SECONDS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "cells": [
            *kernel_cells(rng, rounds),
            *served_cells(rng, rounds),
            fused_cell(rng, rounds),
            splice_cell(rng, rounds),
            promote_cell(rng, rounds),
        ],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "-o", "--output", default="BENCH_kernels.json",
        help="output path (default: BENCH_kernels.json)",
    )
    parser.add_argument(
        "--repeats", type=int, default=ROUNDS,
        help="interleaved rounds per cell; the median ratio is reported "
        f"(default {ROUNDS})",
    )
    args = parser.parse_args()
    started = time.perf_counter()
    report = run(rounds=args.repeats)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"wrote {args.output} in {time.perf_counter() - started:.1f} s")
    for cell in report["cells"]:
        print(
            f"  {cell['name']:<62} {cell['ratio']:6.2f}x "
            f"(rounds {min(cell['per_round']):.2f}-{max(cell['per_round']):.2f})"
        )


if __name__ == "__main__":
    main()
