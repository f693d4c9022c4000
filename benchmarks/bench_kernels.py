"""Microbenchmarks of the software attention kernels.

These time the library primitives themselves (not the paper experiments):
exact attention, key preprocessing, all three candidate-search engines,
the combined approximate path (single-query and batched), and the
fixed-point pipeline — at the paper's largest operating point
(n=320, d=64).

The batched benchmarks sweep batch sizes 1/16/64/320 across the
``reference`` (per-query loop), ``efficient`` (heap-and-pointer), and
``vectorized`` (whole-batch NumPy) engines.  The gated numbers come from
``benchmarks/run_kernels.py``, which measures the vectorized engine
against the reference loop (and the serving ratios) as paired,
interleaved ratios and emits ``BENCH_kernels.json``.
"""

import numpy as np
import pytest

from repro.core.approximate import ENGINES, ApproximateAttention
from repro.core.attention import attention
from repro.core.batched_search import batched_candidate_search
from repro.core.candidate_search import greedy_candidate_search
from repro.core.config import aggressive, conservative
from repro.core.efficient_search import PreprocessedKey, efficient_candidate_search
from repro.fixedpoint.fixed_attention import QuantizedAttention

N, D = 320, 64
BATCH_SIZES = (1, 16, 64, 320)


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(0)
    key = rng.normal(size=(N, D))
    value = rng.normal(size=(N, D))
    query = rng.normal(size=D)
    return key, value, query


@pytest.fixture(scope="module")
def batch_queries():
    rng = np.random.default_rng(1)
    return rng.normal(size=(max(BATCH_SIZES), D))


def test_exact_attention(benchmark, inputs):
    key, value, query = inputs
    out = benchmark(attention, key, value, query)
    assert out.shape == (D,)


def test_preprocess_key(benchmark, inputs):
    key, _, _ = inputs
    pre = benchmark(PreprocessedKey.build, key)
    assert pre.n == N


def test_candidate_search_reference_engine(benchmark, inputs):
    key, _, query = inputs
    result = benchmark(greedy_candidate_search, key, query, N // 2)
    assert result.num_candidates >= 1


def test_candidate_search_efficient_engine(benchmark, inputs):
    key, _, query = inputs
    pre = PreprocessedKey.build(key)
    result = benchmark(efficient_candidate_search, pre, query, N // 2)
    assert result.num_candidates >= 1


def test_approximate_attention_conservative(benchmark, inputs):
    key, value, query = inputs
    approx = ApproximateAttention(conservative())
    approx.preprocess(key)
    out, trace = benchmark(approx.attend, value, query)
    assert trace.num_candidates <= N


def test_approximate_attention_aggressive(benchmark, inputs):
    key, value, query = inputs
    approx = ApproximateAttention(aggressive())
    approx.preprocess(key)
    out, trace = benchmark(approx.attend, value, query)
    assert trace.num_kept <= trace.num_candidates


def test_quantized_attention(benchmark, inputs):
    key, value, query = inputs
    qa = QuantizedAttention(i=4, f=4, n=N, d=D)
    result = benchmark(qa.attend, key, value, query)
    assert result.output.shape == (D,)


def test_batched_candidate_search(benchmark, inputs, batch_queries):
    key, _, _ = inputs
    pre = PreprocessedKey.build(key)
    result = benchmark(batched_candidate_search, pre, batch_queries[:64], N // 2)
    assert result.batch == 64


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_attend_many_conservative(benchmark, inputs, batch_queries, engine, batch):
    """The multi-query hot path: one preprocessed key, many queries.

    The acceptance comparison is vectorized vs reference at each batch
    size; the preprocessing is outside the timed region (amortized, as
    in the BERT usage pattern).
    """
    key, value, _ = inputs
    approx = ApproximateAttention(conservative(), engine=engine)
    approx.preprocess(key)
    queries = batch_queries[:batch]
    outputs, traces = benchmark(approx.attend_many, value, queries)
    assert outputs.shape == (batch, D)
    assert len(traces) == batch


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_attend_many_aggressive(benchmark, inputs, batch_queries, engine, batch):
    key, value, _ = inputs
    approx = ApproximateAttention(aggressive(), engine=engine)
    approx.preprocess(key)
    queries = batch_queries[:batch]
    outputs, traces = benchmark(approx.attend_many, value, queries)
    assert outputs.shape == (batch, D)
    assert len(traces) == batch
