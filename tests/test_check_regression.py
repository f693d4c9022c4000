"""Unit tests for the CI benchmark-regression gate and its runner's pairing.

The load-bearing tests halve one cell of a copy of the committed
baseline at a time and assert the gate fails naming only that cell — so
a CI job wired to ``check_regression.py`` demonstrably catches a
regression in every gated cell rather than green-lighting everything.
A fake clock pins how ``run_kernels.paired_ratio`` interleaves and
reports its rounds.
"""

import copy
import itertools
import json
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import check_regression as cr  # noqa: E402
import run_kernels  # noqa: E402

REPO = Path(__file__).resolve().parents[1]

#: Every cell the committed baseline must carry, each gated.
KERNEL_CELLS = [
    f"kernels/{config}/batch{batch}/vectorized_speedup_vs_reference"
    for config in ("conservative", "aggressive")
    for batch in (16, 64, 320)
]
SERVE_CELLS = [
    "serve/batched_speedup_vs_serial",
    "serve/quality_aggressive_speedup_vs_conservative",
    "serve/quality_aggressive_speedup_vs_exact",
    "serve/many_tenant_fused_speedup_vs_unfused",
    "serve/streaming_append_speedup_vs_reprepare",
    "serve/spill_promote_speedup_vs_reprepare",
]
GATED_CELLS = KERNEL_CELLS + SERVE_CELLS


@pytest.fixture(scope="module")
def report():
    with open(REPO / "BENCH_kernels.json") as handle:
        return json.load(handle)


def _cell(report, name):
    return next(cell for cell in report["cells"] if cell["name"] == name)


def _failing(rows):
    return [row.name for row in rows if row.status == "REGRESSION"]


def _gated(report, prefix):
    return sorted(
        (m.name, m.value)
        for m in cr.extract_metrics(report)
        if m.gated and m.name.startswith(prefix)
    )


class TestExtraction:
    def test_kernel_metrics_extracted_and_gated(self, report):
        expected = sorted((n, _cell(report, n)["ratio"]) for n in KERNEL_CELLS)
        assert _gated(report, "kernels/") == expected
        for metric in cr.extract_metrics(report):
            assert metric.gated or metric.name.endswith("_seconds")

    def test_serve_metrics_extracted(self, report):
        """The serving properties ride the same report, each gated."""
        expected = sorted((n, _cell(report, n)["ratio"]) for n in SERVE_CELLS)
        assert _gated(report, "serve/") == expected

    def test_streaming_metric_extracted_and_gated(self, report):
        """The append-speedup cell is dimensionless, so it is gated from
        any machine; its absolute timings ride along ungated."""
        name = "serve/streaming_append_speedup_vs_reprepare"
        metrics = {m.name: m for m in cr.extract_metrics(report)}
        assert metrics[name].gated
        assert metrics[name].value == _cell(report, name)["ratio"]
        for side in ("reprepare", "splice"):
            assert not metrics[f"{name}/{side}_seconds"].gated

    def test_cells_keep_their_rounds(self, report):
        """Each cell's ratio is the median of its per-round ratios."""
        for cell in report["cells"]:
            assert len(cell["per_round"]) == report["rounds"]
            assert cell["ratio"] == statistics.median(cell["per_round"])

    def test_report_without_streaming_cell_skips(self, report):
        """A cell missing from the baseline shows as skipped, never
        failing."""
        name = "serve/streaming_append_speedup_vs_reprepare"
        old = copy.deepcopy(report)
        old["cells"] = [cell for cell in old["cells"] if cell["name"] != name]
        rows = cr.compare(cr.extract_metrics(old), cr.extract_metrics(report))
        by_name = {row.name: row for row in rows}
        assert by_name[name].status == "skipped"
        assert by_name[name].baseline is None
        assert not cr.has_regressions(rows)

    def test_unknown_report_rejected(self):
        with pytest.raises(ValueError):
            cr.extract_metrics({"benchmark": "mystery"})


class TestComparison:
    def test_identical_reports_pass(self, report):
        metrics = cr.extract_metrics(report)
        rows = cr.compare(metrics, metrics)
        assert not cr.has_regressions(rows)
        assert {row.status for row in rows} == {"ok", "info"}

    def test_small_jitter_passes(self, report):
        baseline = cr.extract_metrics(report)
        jittered = [cr.Metric(m.name, m.value * 0.8, m.gated) for m in baseline]
        assert not cr.has_regressions(cr.compare(baseline, jittered))

    def test_injected_slowdown_fails(self, report):
        """Halving every ratio trips the gate on every cell."""
        slowed = copy.deepcopy(report)
        for cell in slowed["cells"]:
            cell["ratio"] *= 0.5
        rows = cr.compare(cr.extract_metrics(report), cr.extract_metrics(slowed))
        assert sorted(_failing(rows)) == sorted(GATED_CELLS)

    @pytest.mark.parametrize("name", GATED_CELLS)
    def test_halving_one_cell_fails_naming_only_it(self, report, name):
        slowed = copy.deepcopy(report)
        _cell(slowed, name)["ratio"] *= 0.5
        rows = cr.compare(cr.extract_metrics(report), cr.extract_metrics(slowed))
        assert _failing(rows) == [name]

    def test_ungated_metrics_never_fail(self, report):
        for factor in (100.0, 0.01):
            moved = copy.deepcopy(report)
            for cell in moved["cells"]:
                for side in cell["seconds"]:
                    cell["seconds"][side] *= factor
            rows = cr.compare(cr.extract_metrics(report), cr.extract_metrics(moved))
            assert not cr.has_regressions(rows)
            assert {row.status for row in rows if not row.gated} == {"info"}

    def test_one_sided_metric_skips_not_fails(self):
        baseline = [cr.Metric("only/in/baseline", 2.0, True)]
        current = [cr.Metric("only/in/current", 2.0, True)]
        rows = cr.compare(baseline, current)
        assert {row.status for row in rows} == {"skipped"}
        assert not cr.has_regressions(rows)

    def test_improvement_reported_not_failed(self):
        baseline = [cr.Metric("m", 1.0, True)]
        current = [cr.Metric("m", 3.0, True)]
        rows = cr.compare(baseline, current)
        assert rows[0].status == "improved"
        assert not cr.has_regressions(rows)


class TestEndToEnd:
    def test_main_exits_nonzero_on_regression(self, tmp_path, report):
        slowed = copy.deepcopy(report)
        for cell in slowed["cells"]:
            cell["ratio"] *= 0.4
        baseline_path = tmp_path / "baseline.json"
        current_path = tmp_path / "current.json"
        baseline_path.write_text(json.dumps(report))
        current_path.write_text(json.dumps(slowed))
        assert cr.main([f"{baseline_path}={current_path}"]) == 1
        assert cr.main([f"{baseline_path}={baseline_path}"]) == 0

    def test_table_renders_every_row(self, report):
        metrics = cr.extract_metrics(report)
        rows = cr.compare(metrics, metrics)
        table = cr.render_table(rows, 0.3)
        for row in rows:
            assert row.name in table


class _FakeTimeline:
    """A clock that moves only while a side runs, logging every clock
    read and every call in order."""

    def __init__(self, costs: dict[str, list[float]]):
        self.now = 0.0
        self.events: list[tuple[str, object]] = []
        self._costs = {side: itertools.cycle(c) for side, c in costs.items()}

    def clock(self) -> float:
        self.events.append(("read", self.now))
        return self.now

    def side(self, name: str):
        def call():
            self.events.append(("call", name))
            self.now += next(self._costs[name])

        return call

    def blocks(self) -> list[tuple[str, int, float]]:
        """``(side, calls, duration)`` per timed block.  A block opens
        with a clock read and reads the clock after each call, so the
        read that follows another read opens the next block."""
        reads = [i for i, (kind, _) in enumerate(self.events) if kind == "read"]
        blocks, start = [], reads[0]
        for prev, cur in zip(reads, [*reads[1:], None]):
            if cur is not None and cur != prev + 1:
                continue
            calls = [v for kind, v in self.events[start:prev] if kind == "call"]
            assert len(set(calls)) == 1, "a block runs one side"
            duration = self.events[prev][1] - self.events[start][1]
            blocks.append((calls[0], len(calls), duration))
            start = cur
        return blocks


class TestPairing:
    def test_rounds_alternate_and_the_ratio_is_their_median(self):
        timeline = _FakeTimeline(
            {"slow": [3.0, 5.0, 2.0], "fast": [1.0, 0.5, 2.5, 1.5]}
        )
        rounds, minimum = 6, 10.0
        ratio, per_round, _ = run_kernels.paired_ratio(
            timeline.side("slow"),
            timeline.side("fast"),
            rounds,
            min_seconds=minimum,
            clock=timeline.clock,
        )
        # One untimed warm-up call per side, then the timed blocks.
        first_read = next(
            i for i, (kind, _) in enumerate(timeline.events) if kind == "read"
        )
        assert timeline.events[:first_read] == [("call", "slow"), ("call", "fast")]
        blocks = timeline.blocks()
        order = [side for side, _, _ in blocks]
        assert order == ["slow", "fast", "fast", "slow"] * (rounds // 2)
        assert all(duration >= minimum for _, _, duration in blocks)
        per_call = [duration / calls for _, calls, duration in blocks]
        expected = []
        for r in range(rounds):
            first, second = per_call[2 * r], per_call[2 * r + 1]
            slow, fast = (first, second) if r % 2 == 0 else (second, first)
            expected.append(slow / fast)
        assert per_round == pytest.approx(expected)
        assert len(set(per_round)) > 1
        assert ratio == statistics.median(per_round)
        assert ratio != pytest.approx(statistics.mean(per_round))
