"""Serving benchmark: one server process behind ``NetworkFrontend``, one
open-loop generator over one TCP connection.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sparse --seed 1 --seconds 50 --trace 0
    for w in sparse decode; do python3 perfbench/run.py --workload $w; done

``BENCHMARK.json`` gates ``sparse`` and ``decode``.  ``burst`` runs the
same way but is left out of the gate: its latency depends on how many
dispatches a 64-query burst splits into, which swings with the host's
spare CPU (its p50 spread over ten seeds was about twice that of
``sparse`` in the same host conditions).

The generator pins itself to one CPU before it launches a server, and
the server inherits that mask, so both processes share one CPU (the
server computes on one core anyway: one interpreter lock, one BLAS
thread).  Every hop of a request then lands on a CPU that is already
awake; across CPUs, each hop could wait for the host to wake a halted
virtual CPU, and on a shared host that wait swings with the neighbours
(on a 2-vCPU VM, interleaved runs put pinned p50 below unpinned:
``sparse`` 16.1–16.7 vs 16.6–17.5 ms over three 50-s pairs, ``decode``
16.0 vs 19.2 ms in one 20-s pair).

``--trace 0`` measures the end-to-end metrics with tracing off: set-up is
repeated (median reported), then one timed phase runs on the last
server.  The phase is cut into 3-s windows and ``p50_ms`` is the median
over the reads scheduled in the calmest third of them (with any window
that ties the last of those), ranked by the share of the pinned CPU's
wanted time the hypervisor stole: on a shared
host that share swings from 0 to 40% within minutes and latency follows
it, so this compares programs rather than neighbours.  Percentiles over
every read are printed and kept in the run record.  ``--trace 1`` runs
the same workload twice for half the time each — first on an unmodified
server, then on an instrumented one — and prints the per-layer metrics
and the budget table; ``trace.overhead`` is the ratio of the two phases'
``p50``.

A sample of served answers is recomputed solo with
``ApproximateBackend(conservative(), engine="vectorized")`` on the memory
as it was at that request; any row off by more than 1e-9 fails the run.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans, the budget table and the run record
are written under ``perfbench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before NumPy loads in this process
# and inherited by the server process.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter as now  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPEATS = 5
CHECK_SAMPLES = 48
TOLERANCE = 1e-9
#: The schedule starts this long after the timed phase begins.
LEAD_SECONDS = 0.1


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--workload", required=True,
                        choices=("sparse", "burst", "decode"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out")
    return parser.parse_args(argv)


def check_answers(plan, ops) -> tuple[int, float]:
    """Recompute a fixed, evenly spaced sample of answered reads solo;
    returns ``(checked, worst absolute difference)``."""
    import numpy as np

    from repro.core.backends import ApproximateBackend
    from repro.core.config import conservative

    answered = [op for op in ops if op.ok]
    if not answered:
        return 0, math.inf
    picks = np.unique(np.linspace(
        0, len(answered) - 1, min(CHECK_SAMPLES, len(answered))
    ).round().astype(int))
    worst = 0.0
    for pick in picks:
        op = answered[pick]
        key, value = plan.memory_at(op.index)
        solo = ApproximateBackend(conservative(), engine="vectorized")
        expected = solo.attend_many(
            key, value, plan.queries[op.index][np.newaxis]
        )[0]
        worst = max(worst, float(np.max(np.abs(op.output - expected))))
    return len(picks), worst


async def phase(plan, names, counts, *, trace, repeats, spans_out=None,
                tracer=None, client_clock=None):
    """Set up ``repeats`` times, then run one timed phase on the last
    server.  Returns the ops, set-up seconds, peak RSS, CPU samples,
    timed wall seconds and (traced) the server's layer report."""
    from perfbench.drive import count, run_phase, set_up

    setups = []
    max_spans = 8 * (len(plan) + len(names)) + 1024
    server = client = None
    try:
        for repeat in range(repeats):
            server, client, seconds = await set_up(
                plan, names, counts, trace=trace, spans_out=spans_out,
                max_spans=max_spans, tracer=tracer,
            )
            setups.append(seconds)
            if repeat < repeats - 1:
                await client.aclose()
                server.stop()
        if trace:
            server.mark()
            tracer.drain()
            client_clock.reset()
        cpu = []
        started = now()
        ops = await run_phase(client, plan, names, started + LEAD_SECONDS, cpu)
        wall = now() - started
        rss = server.peak_rss_mb()
        await client.aclose()
        client = None
        report = server.stop()
        server = None
    finally:
        if client is not None:
            await client.aclose()
        if server is not None:
            server.kill()
    for op in ops:
        if plan.append_keys is not None:
            count(counts, "append", op.append_error)
        count(counts, "read", op.read_error)
    return ops, setups, rss, cpu, wall, report


def _ms(seconds: float, ceiling: float) -> float:
    """Milliseconds; a miss (``inf``) reads as the generator's patience."""
    return 1e3 * min(seconds, ceiling)


async def main_async(args) -> int:
    from perfbench import measure
    from perfbench.drive import DRAIN_SECONDS, OpTracer
    from perfbench.layers import LayerClock, instrument_client
    from perfbench.workloads import make_plan, session_names

    out = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out.mkdir(parents=True, exist_ok=True)
    names = session_names(args.workload)
    seconds = args.seconds / 2 if args.trace else args.seconds
    plan = make_plan(args.workload, args.seed, seconds)
    ceiling = seconds + DRAIN_SECONDS
    counts: dict = {}
    lines = []

    ops, setups, rss, cpu, wall, _ = await phase(
        plan, names, counts, trace=False,
        repeats=1 if args.trace else SETUP_REPEATS,
    )
    reads = [op.latency for op in ops]
    writes = [op.write_latency for op in ops if plan.append_keys is not None]
    windows = measure.calm_windows(cpu)
    calm = [op.latency for op in measure.in_windows(ops, windows)]
    samples = {
        "reads": len(reads), "calm_reads": len(calm),
        "calm_windows": f"{len(windows)} of {len(cpu) - 1}",
        "writes": len(writes), "setups": len(setups),
    }
    end_to_end = {
        "p50_ms": _ms(measure.percentile(calm, 0.5), ceiling),
        "server_rss_mb": rss,
        "setup_s": statistics.median(setups),
    }
    for kind, samples_s in (
        ("reads", reads), ("calm reads", calm), ("writes", writes)
    ):
        if samples_s:
            lines.append(f"{kind} ({len(samples_s)}): " + "  ".join(
                f"p{round(100 * q)} {_ms(measure.percentile(samples_s, q), ceiling):.3f} ms"
                for q in (0.5, 0.9, 0.99)
            ))
    record = measure.run_record(cpu=cpu, ops=ops, samples=samples)
    record.update(nproc=args.nproc, setup_s_each=setups)
    checked_ops = ops

    if args.trace:
        client_clock = LayerClock()
        instrument_client(client_clock)
        tracer = OpTracer(sample_rate=1.0, max_spans=8 * len(plan) + 1024)
        spans_out = out / "server_spans.jsonl"
        ops, _, _, cpu, wall, report = await phase(
            plan, names, counts, trace=True, repeats=1,
            spans_out=spans_out, tracer=tracer, client_clock=client_clock,
        )
        client_spans = tracer.drain()
        with open(out / "client_spans.jsonl", "w", encoding="utf-8") as fh:
            for span in client_spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
        with open(spans_out, encoding="utf-8") as fh:
            server_spans = [json.loads(line) for line in fh]
        kernel_seconds = sum(
            report["clock"].get(name, {}).get("seconds", 0.0)
            for name in ("core.attend", "core.ragged")
        )
        table = measure.budget(
            ops, client_spans, server_spans, report["stages"], kernel_seconds
        )
        layers = measure.layer_metrics(
            ops=ops, table=table, server=report,
            client_clock=client_clock.to_dict(),
            client_dropped=tracer.dropped,
            untraced_p50=measure.percentile(reads, 0.5),
            wall_seconds=wall,
        )
        lines.append(measure.render_budget(
            f"{args.workload} seed {args.seed}", table
        ))
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, unit, _ in measure.PER_LAYER
        }
        record["traced"] = measure.run_record(
            cpu=cpu, ops=ops, samples={"budget": table.count}
        )
        checked_ops = checked_ops + ops
    else:
        metrics = {
            name: {"value": end_to_end[name], "unit": unit}
            for name, unit, _ in measure.END_TO_END
        }

    checked, worst = check_answers(plan, checked_ops)
    correct = checked > 0 and worst <= TOLERANCE
    attempted = sum(entry[0] for entry in counts.values())
    failed = sum(entry[1] for entry in counts.values())
    record.update(ops=counts, checked_answers=checked, worst_diff=worst)
    lines.append(f"run record: {json.dumps(record, sort_keys=True)}")
    for kind, (tried, bad, errors) in sorted(counts.items()):
        lines.append(
            f"ops {kind}: attempted {tried}, succeeded {tried - bad}, "
            f"failed {bad} {errors or ''}"
        )
    for name, entry in metrics.items():
        lines.append(f"{name} = {entry['value']:.6g} {entry['unit']}")
    lines.append(
        f"answers: {checked} checked, worst |diff| {worst:.3g} "
        f"(tolerance {TOLERANCE:g})"
    )
    text = "\n".join(lines)
    (out / "report.txt").write_text(text + "\n", encoding="utf-8")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (out / "run.json").write_text(
        json.dumps({"record": record, **result}, indent=1, sort_keys=True),
        encoding="utf-8",
    )
    print(text)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: no program to measure ({ROOT / 'src' / 'repro'} "
            "is missing)",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    allowed = os.sched_getaffinity(0)
    args.nproc = len(allowed)
    os.sched_setaffinity(0, {min(allowed)})
    return asyncio.run(main_async(args))


if __name__ == "__main__":
    sys.exit(main())
