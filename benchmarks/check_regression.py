"""CI benchmark-regression gate over the committed ``BENCH_kernels.json``.

Compares a freshly measured report against the baseline committed in
the repo and fails (exit 1) when a gated metric regressed by more than
the threshold (default 30%).  Usage::

    PYTHONPATH=src python benchmarks/run_kernels.py -o ci_kernels.json
    python benchmarks/check_regression.py BENCH_kernels.json=ci_kernels.json

Each positional argument is one ``baseline=current`` pair; a markdown
table of every comparison goes to stdout and, when running inside
GitHub Actions, to the job summary (``$GITHUB_STEP_SUMMARY``).

**What is gated.**  Every cell of the report is a dimensionless ratio
that ``run_kernels.py`` measures as interleaved pairs in one process
(the median of its per-round ratios), and every cell's ratio is gated:
all of them are higher-is-better speedups.  Each side's per-call
seconds appear as informational rows: absolute times depend on the
runner's hardware, so a baseline committed on one machine would fail a
slower one.  A cell present in only one of the two reports shows as
skipped, never failing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

DEFAULT_THRESHOLD = 0.30
REPORT_ID = "kernels/paired_ratios"


@dataclass(frozen=True)
class Metric:
    """One extracted benchmark signal."""

    name: str
    value: float
    gated: bool


def extract_metrics(report: dict) -> list[Metric]:
    """Pull the comparable signals out of one ``run_kernels.py`` report."""
    benchmark = report.get("benchmark", "")
    if benchmark != REPORT_ID:
        raise ValueError(f"unknown benchmark report {benchmark!r}")
    metrics = []
    for cell in report["cells"]:
        metrics.append(Metric(cell["name"], float(cell["ratio"]), True))
        for side, seconds in cell["seconds"].items():
            metrics.append(
                Metric(f"{cell['name']}/{side}_seconds", float(seconds), False)
            )
    return metrics


@dataclass(frozen=True)
class Row:
    """One baseline/current comparison in the report table."""

    name: str
    baseline: float | None
    current: float | None
    gated: bool
    status: str  # "ok" | "improved" | "REGRESSION" | "skipped" | "info"

    @property
    def change(self) -> float | None:
        if not self.baseline or self.current is None:
            return None
        return self.current / self.baseline - 1.0


def compare(
    baseline: list[Metric],
    current: list[Metric],
    threshold: float = DEFAULT_THRESHOLD,
) -> list[Row]:
    """Pair up metrics by name and classify each comparison.

    A gated metric present on both sides fails when the current value
    drops more than ``threshold`` below the baseline (all gated metrics
    are higher-is-better speedups).  A gated metric present on only one
    side — a cell added or removed since the baseline was taken — is
    reported as skipped, never failed.
    """
    baseline_by_name = {metric.name: metric for metric in baseline}
    current_by_name = {metric.name: metric for metric in current}
    rows = []
    for name in sorted(baseline_by_name | current_by_name):
        base = baseline_by_name.get(name)
        cur = current_by_name.get(name)
        gated = (base or cur).gated and (cur or base).gated
        if base is None or cur is None:
            base_value = base.value if base else None
            current_value = cur.value if cur else None
            rows.append(Row(name, base_value, current_value, gated, "skipped"))
            continue
        if not gated:
            rows.append(Row(name, base.value, cur.value, False, "info"))
            continue
        if base.value <= 0:
            rows.append(Row(name, base.value, cur.value, True, "skipped"))
            continue
        drop = 1.0 - cur.value / base.value
        if drop > threshold:
            status = "REGRESSION"
        elif drop < -threshold:
            status = "improved"
        else:
            status = "ok"
        rows.append(Row(name, base.value, cur.value, True, status))
    return rows


def has_regressions(rows: list[Row]) -> bool:
    return any(row.status == "REGRESSION" for row in rows)


def render_table(rows: list[Row], threshold: float) -> str:
    lines = [
        f"### Benchmark regression gate (threshold {threshold:.0%})",
        "",
        "| metric | baseline | current | change | gate |",
        "|---|---:|---:|---:|---|",
    ]
    for row in rows:
        baseline = "—" if row.baseline is None else f"{row.baseline:.3g}"
        current = "—" if row.current is None else f"{row.current:.3g}"
        change = "—" if row.change is None else f"{row.change:+.1%}"
        lines.append(
            f"| {row.name} | {baseline} | {current} | {change} | {row.status} |"
        )
    return "\n".join(lines)


def check_pair(baseline_path: str, current_path: str, threshold: float) -> list[Row]:
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    with open(current_path) as handle:
        current = json.load(handle)
    return compare(extract_metrics(baseline), extract_metrics(current), threshold)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "pairs",
        nargs="+",
        metavar="BASELINE=CURRENT",
        help="committed baseline JSON and freshly measured JSON",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="fractional drop in a gated metric that fails the job "
        f"(default {DEFAULT_THRESHOLD})",
    )
    args = parser.parse_args(argv)
    rows: list[Row] = []
    for pair in args.pairs:
        baseline_path, sep, current_path = pair.partition("=")
        if not sep:
            parser.error(f"expected BASELINE=CURRENT, got {pair!r}")
        rows.extend(check_pair(baseline_path, current_path, args.threshold))
    table = render_table(rows, args.threshold)
    print(table)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as handle:
            handle.write(table + "\n")
    if has_regressions(rows):
        failing = [row.name for row in rows if row.status == "REGRESSION"]
        print(
            f"\nFAIL: {len(failing)} metric(s) regressed beyond "
            f"{args.threshold:.0%}: {', '.join(failing)}",
            file=sys.stderr,
        )
        return 1
    print("\nOK: no gated metric regressed beyond the threshold.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
