"""Tests of the benchmark's own helpers (no server, no sockets)."""

from __future__ import annotations

import asyncio
import json
import math
from pathlib import Path
from time import perf_counter as now

import numpy as np
import pytest

from perfbench import measure
from perfbench.drive import Op, decode_stream
from perfbench.workloads import SPECS, make_plan, session_names

ROOT = Path(__file__).resolve().parent.parent


def _arrays(plan):
    return [
        *plan.keys, *plan.values, plan.warm, plan.due, plan.session,
        plan.queries,
        *(() if plan.append_keys is None
          else (plan.append_keys, plan.append_values)),
    ]


@pytest.mark.parametrize("workload", sorted(SPECS))
def test_plan_is_a_pure_function_of_workload_and_seed(workload):
    first = make_plan(workload, seed=7, seconds=2.0)
    again = make_plan(workload, seed=7, seconds=2.0)
    other = make_plan(workload, seed=8, seconds=2.0)
    assert len(_arrays(first)) == len(_arrays(again))
    for a, b in zip(_arrays(first), _arrays(again)):
        assert a.tobytes() == b.tobytes()
    assert first.queries.tobytes() != other.queries.tobytes()
    assert first.keys[0].tobytes() != other.keys[0].tobytes()


def test_schedules_follow_the_workload_definitions():
    spec = SPECS["sparse"]
    sparse = make_plan("sparse", seed=1, seconds=10.0)
    assert len(sparse) == 250
    assert np.all(np.diff(sparse.due) >= 0) and sparse.due[-1] < 10.0
    assert list(sparse.session[:5]) == [0, 1, 2, 3, 0]
    assert sparse.keys[0].shape == (spec.n, spec.d)

    burst = make_plan("burst", seed=1, seconds=1.0)
    assert len(burst) == 4 * 64
    assert np.all(burst.due.reshape(4, 64) == [[0.0], [0.25], [0.5], [0.75]])

    decode = make_plan("decode", seed=1, seconds=1.5)
    assert len(decode) == 8 * 5
    for s in range(8):
        mine = decode.due[decode.session == s]
        assert np.allclose(mine, s * 0.0375 + 0.3 * np.arange(5))


def test_decode_memory_includes_own_appends_only():
    plan = make_plan("decode", seed=3, seconds=0.5)
    last = len(plan) - 1
    s = int(plan.session[last])
    key, value = plan.memory_at(last)
    mine = np.flatnonzero(plan.session == s)
    assert key.shape[0] == SPECS["decode"].n + mine.size
    assert np.array_equal(key[-1], plan.append_keys[last])
    assert np.array_equal(value[: SPECS["decode"].n], plan.values[s])


def test_failures_count_as_misses_in_percentiles():
    answered = [0.010 + 0.001 * i for i in range(98)]
    assert measure.percentile(answered, 0.99) < 1.0
    with_misses = answered + [math.inf, math.inf]
    assert measure.percentile(with_misses, 0.99) == math.inf
    # Misses shift the median up instead of being dropped.
    assert measure.percentile(with_misses, 0.5) > measure.percentile(
        answered, 0.5
    )
    failed = Op(index=0, session=0, due=1.0, done=1.5, read_error="X")
    assert failed.latency == math.inf
    assert Op(index=0, session=0, due=1.0, done=1.5).latency == 0.5


def test_calm_windows_rank_by_stolen_share_of_wanted_cpu():
    # (time, steal, busy, total): window 1 is busy but barely stolen,
    # window 2 is idle but mostly stolen.
    samples = [
        (0.0, 0, 0, 0), (3.0, 60, 100, 600), (6.0, 65, 1100, 1200),
        (9.0, 95, 1110, 1800),
    ]
    assert measure.calm_windows(samples) == [(3.0, 6.0)]
    assert measure.calm_windows(samples, share=2 / 3) == [(3.0, 6.0), (0.0, 3.0)]
    # Windows as calm as the last one kept all count, not the earliest.
    quiet = [(3.0 * k, 0, 100 * k, 300 * k) for k in range(4)]
    assert measure.calm_windows(quiet) == [(0.0, 3.0), (3.0, 6.0), (6.0, 9.0)]
    ops = [Op(index=i, session=0, due=t) for i, t in enumerate([1.0, 3.0, 5.9, 6.0])]
    assert [op.index for op in measure.in_windows(ops, [(3.0, 6.0)])] == [1, 2]


def _span(name, span_id, parent, start, end, **attrs):
    return {
        "name": name, "span_id": span_id, "parent_id": parent,
        "started_at": start, "ended_at": end, "attrs": attrs,
    }


def test_budget_rows_plus_remainder_equal_the_total():
    rng = np.random.default_rng(0)
    ops, client_spans, server_spans = [], [], []
    for i in range(20):
        due = 10.0 * i
        acked = due + 0.004 if i % 2 else math.nan
        start = (due if math.isnan(acked) else acked) + rng.uniform(0, 1e-3)
        stamps = start + np.cumsum(rng.uniform(1e-4, 5e-3, size=8))
        done = stamps[-1] + rng.uniform(0, 1e-4)
        ops.append(Op(index=i, session=0, due=due, started=due,
                      acked=acked, done=done))
        client_spans.append(
            _span("client_request", f"c{i}", None, start, stamps[-1], op=i)
        )
        server_spans.append(
            _span("request", f"r{i}", f"c{i}", stamps[0], stamps[-2])
        )
        for k, stage in enumerate(measure.SERVER_STAGES):
            lo, hi = stamps[0], stamps[-2]
            edges = np.linspace(lo, hi, len(measure.SERVER_STAGES) + 1)
            server_spans.append(
                _span(stage, f"s{i}{k}", f"r{i}", edges[k], edges[k + 1])
            )
    stages = {"search.gated_walk": {"total_seconds": 0.3}}
    table = measure.budget(ops, client_spans, server_spans, stages, 1.0)
    assert table.count == 20
    total = sum(value for _, value in table.rows) + table.remainder
    assert total == pytest.approx(table.total, rel=1e-12)
    assert table.total == pytest.approx(np.mean([o.done - o.due for o in ops]))
    assert table.remainder > 0
    names = [name for name, _ in table.rows]
    assert names[:3] == ["append", "client", "ingress"]
    assert names[-1] == "egress"
    kernel = dict(table.rows)["kernel"]
    assert sum(v for _, v in table.kernel) == pytest.approx(kernel)
    assert dict(table.kernel)["search.gated_walk"] == pytest.approx(0.3 * kernel)
    assert "unattributed" in measure.render_budget("t", table)


class _RecordingClient:
    """Answers appends after a delay and logs the order of events."""

    def __init__(self):
        self.log = []

    async def mutate_session(self, name, mutation):
        self.log.append(("append", name))
        await asyncio.sleep(0.003)
        self.log.append(("acked", name))

    async def attend_many(self, name, queries):
        self.log.append(("attend", name))
        await asyncio.sleep(0.001)
        self.log.append(("answered", name))
        return np.zeros((1, queries.shape[1]))


def test_decode_stream_attends_only_after_the_append_is_acknowledged():
    plan = make_plan("decode", seed=2, seconds=0.6)
    names = session_names("decode")
    client = _RecordingClient()
    start = now()
    streams = {}
    for i in range(len(plan)):
        op = Op(index=i, session=int(plan.session[i]),
                due=start + float(plan.due[i]) / 20)
        streams.setdefault(op.session, []).append(op)

    async def run():
        await asyncio.gather(*(
            decode_stream(client, plan, names, ops) for ops in streams.values()
        ))

    asyncio.run(run())
    for s, ops in streams.items():
        events = [kind for kind, name in client.log if name == names[s]]
        assert events == ["append", "acked", "attend", "answered"] * len(ops)
        for op in ops:
            assert op.ok and op.due <= op.started <= op.acked <= op.done


def test_benchmark_json_names_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert listed == measure.END_TO_END
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == measure.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(SPECS)
