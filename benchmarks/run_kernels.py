"""Standalone kernel benchmark runner emitting ``BENCH_kernels.json``.

Times the same attend-batch grid as ``bench_kernels.py`` (three engines x
batch sizes x the paper's two named operating points at n=320, d=64)
without requiring pytest, and writes a JSON report so each PR's
performance trajectory can be diffed against the last:

    PYTHONPATH=src python benchmarks/run_kernels.py [-o BENCH_kernels.json]

Each grid cell reports the best-of-``repeats`` wall time; the vectorized
engine's speedup over the per-query reference loop is computed per cell.

BLAS runs on one thread unless the environment already says otherwise:
the committed baseline comes from a 1-core container, and a threaded
BLAS moves the batch-64/320 cells by itself.  The report records the
thread settings in effect and the core count.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Before NumPy loads its BLAS, which reads them once.
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from repro.core.approximate import ENGINES, ApproximateAttention  # noqa: E402
from repro.core.config import aggressive, conservative  # noqa: E402
from repro.core.efficient_search import PreprocessedKey  # noqa: E402

N, D = 320, 64
BATCH_SIZES = (1, 16, 64, 320)
CONFIGS = {"conservative": conservative, "aggressive": aggressive}


def _best_seconds(fn, repeats: int) -> float:
    fn()  # warm-up
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def run(repeats: int = 7) -> dict:
    rng = np.random.default_rng(0)
    key = rng.normal(size=(N, D))
    value = rng.normal(size=(N, D))
    queries = rng.normal(size=(max(BATCH_SIZES), D))

    report: dict = {
        "benchmark": "kernels/attend_many",
        "n": N,
        "d": D,
        "repeats": repeats,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "preprocess_seconds": _best_seconds(
            lambda: PreprocessedKey.build(key), repeats
        ),
        "cells": [],
    }
    for config_name, config in CONFIGS.items():
        for batch in BATCH_SIZES:
            batch_queries = queries[:batch]
            timings = {}
            for engine in ENGINES:
                approx = ApproximateAttention(config(), engine=engine)
                approx.preprocess(key)
                scaled_repeats = max(2, repeats if batch < 320 else repeats // 2)
                timings[engine] = _best_seconds(
                    lambda a=approx: a.attend_many(value, batch_queries),
                    scaled_repeats,
                )
            report["cells"].append(
                {
                    "config": config_name,
                    "batch": batch,
                    "seconds": timings,
                    "vectorized_speedup_vs_reference": (
                        timings["reference"] / timings["vectorized"]
                    ),
                    "vectorized_speedup_vs_efficient": (
                        timings["efficient"] / timings["vectorized"]
                    ),
                }
            )
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "-o", "--output", default="BENCH_kernels.json",
        help="output path (default: BENCH_kernels.json)",
    )
    parser.add_argument(
        "--repeats", type=int, default=7,
        help="timing repeats per cell (best-of is reported)",
    )
    args = parser.parse_args()
    report = run(repeats=args.repeats)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"wrote {args.output}")
    for cell in report["cells"]:
        print(
            f"  {cell['config']:>12} batch {cell['batch']:>4}: "
            f"ref {cell['seconds']['reference'] * 1e3:8.2f} ms  "
            f"eff {cell['seconds']['efficient'] * 1e3:8.2f} ms  "
            f"vec {cell['seconds']['vectorized'] * 1e3:8.2f} ms  "
            f"({cell['vectorized_speedup_vs_reference']:.2f}x vs reference)"
        )


if __name__ == "__main__":
    main()
