"""Core-level tests of the one vectorized pipeline,
:func:`repro.core.batched_search.attend_many_ragged`.

Four contracts: every malformed slab is rejected up front; every
segment of a fused slab is bit-identical to its own one-segment
dispatch (including shapes the serving layer never produces — empty
segments, ``M > n * d``, selection-disabled segments, equal-shape fuse
groups beside lone segments, and groups on both sides of the walk's
row cutoff); the per-row Python walk and the lockstep NumPy walk agree
bit for bit; and the profiled stage timers tile the call exactly,
checked with a counting clock instead of wall time.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import batched_search
from repro.core.batched_search import attend_many_ragged, batched_candidate_search
from repro.core.config import conservative
from repro.core.efficient_search import PreprocessedKey
from repro.core.profiling import StageProfiler
from repro.errors import ShapeError

GAP = conservative().score_gap()
SEARCH_STAGES = (
    "search.boundary_estimate",
    "search.stream_extraction",
    "search.gated_walk",
    "search.accumulate",
    "search.finalize",
)
ATTEND_STAGES = (
    "attend.candidate_search",
    "attend.score_gemm",
    "attend.post_scoring",
    "attend.softmax_scatter",
)


def _slab(rng, shapes, d=4):
    """``shapes`` = [(n, q, m), ...] → (pres, values, queries, offsets, ms)."""
    pres = [PreprocessedKey.build(rng.normal(size=(n, d))) for n, _, _ in shapes]
    values = [rng.normal(size=(n, 3)) for n, _, _ in shapes]
    offsets = np.cumsum([0] + [q for _, q, _ in shapes])
    queries = rng.normal(size=(int(offsets[-1]), d))
    return pres, values, queries, offsets, [m for _, _, m in shapes]


class TestRejectsMalformedSlabs:
    @pytest.fixture
    def slab(self, rng):
        return _slab(rng, [(10, 2, 5), (6, 1, 3)])

    def _call(self, pres, values, queries, offsets, ms):
        return attend_many_ragged(pres, values, queries, offsets, ms, score_gap=GAP)

    def test_well_formed_slab_runs(self, slab):
        result = self._call(*slab)
        assert [out.shape for out in result.outputs] == [(2, 3), (1, 3)]

    @pytest.mark.parametrize(
        "offsets",
        [
            [0, 3],  # shape: one boundary short
            [0, 2, 3, 3],  # shape: one boundary too many
            [1, 2, 3],  # must start at 0
            [0, 3, 2],  # must not decrease
            [0, 2, 4],  # must end at Q
            [0, 2, 2],  # must end at Q (short)
        ],
    )
    def test_bad_seg_offsets(self, slab, offsets):
        pres, values, queries, _, ms = slab
        with pytest.raises(ShapeError):
            self._call(pres, values, queries, np.array(offsets), ms)

    def test_key_width_mismatch(self, slab, rng):
        pres, values, queries, offsets, ms = slab
        pres = [pres[0], PreprocessedKey.build(rng.normal(size=(6, 5)))]
        with pytest.raises(ShapeError):
            self._call(pres, values, queries, offsets, ms)

    def test_value_rows_mismatch(self, slab, rng):
        pres, values, queries, offsets, ms = slab
        with pytest.raises(ShapeError):
            self._call(pres, [values[0], rng.normal(size=(7, 3))], queries, offsets, ms)
        with pytest.raises(ShapeError):
            self._call(pres, [values[0], rng.normal(size=6)], queries, offsets, ms)

    def test_negative_iteration_count(self, slab):
        pres, values, queries, offsets, _ = slab
        with pytest.raises(ValueError):
            self._call(pres, values, queries, offsets, [5, -1])

    def test_list_length_mismatch(self, slab):
        pres, values, queries, offsets, ms = slab
        with pytest.raises(ShapeError):
            self._call(pres, values[:1], queries, offsets, ms)
        with pytest.raises(ShapeError):
            self._call(pres, values, queries, offsets, ms + [1])

    def test_queries_must_be_2d(self, slab):
        pres, values, queries, offsets, ms = slab
        with pytest.raises(ShapeError):
            self._call(pres, values, queries.ravel(), offsets, ms)

    def test_empty_slab(self, slab):
        pres, values, queries, _, ms = slab
        result = self._call(pres, values, queries[:0], np.zeros(3, dtype=int), ms)
        assert [out.shape for out in result.outputs] == [(0, 3), (0, 3)]
        assert result.flat_rows.size == 0


@st.composite
def fused_slabs(draw):
    """Mixed slabs: equal-shape fuse groups beside lone segments, empty
    segments, ``M > n * d`` and selection-disabled (``M = 0``) segments.
    Two in three segments share one ``(n, M)`` shape with a
    multi-step walk, so a slab's largest fuse group often passes
    ``_SCALAR_WALK_MAX_ROWS`` and the fused-equals-solo check compares
    the lockstep walk (fused) with the per-row walk (solo)."""
    d = draw(st.sampled_from([1, 3, 8]))
    shared_n = draw(st.integers(1, 16))
    shared_m = draw(st.sampled_from(["half", "beyond"]))
    shapes = []
    for _ in range(draw(st.integers(1, 10))):
        if draw(st.integers(0, 2)):  # two in three segments share
            n, m = shared_n, shared_m
        else:
            n = draw(st.integers(1, 16))
            m = draw(st.sampled_from(["off", "one", "half", "beyond"]))
        q = draw(st.integers(0, 10))
        m = {
            "off": 0,
            "one": 1,
            "half": max(1, n // 2),
            "beyond": n * d + draw(st.integers(1, 4)),
        }[m]
        shapes.append((n, q, m))
    return (
        d,
        shapes,
        draw(st.integers(0, 2**32 - 1)),
        draw(st.sampled_from([None, 0.5, GAP])),
        draw(st.booleans()),
    )


@given(fused_slabs())
@settings(max_examples=150, deadline=None)
def test_every_segment_matches_its_one_segment_dispatch(inputs):
    d, shapes, seed, gap, heuristic = inputs
    pres, values, queries, offsets, ms = _slab(
        np.random.default_rng(seed), shapes, d=d
    )
    kwargs = dict(score_gap=gap, min_skip_heuristic=heuristic)
    fused = attend_many_ragged(pres, values, queries, offsets, ms, **kwargs)
    for s in range(len(pres)):
        lo, hi = int(offsets[s]), int(offsets[s + 1])
        solo = attend_many_ragged(
            [pres[s]], [values[s]], queries[lo:hi], [0, hi - lo], [ms[s]],
            **kwargs,
        )
        assert fused.outputs[s].tobytes() == solo.outputs[0].tobytes()
        assert fused.outputs[s].shape == (hi - lo, 3)
        sel = slice(int(fused.offsets[lo]), int(fused.offsets[hi]))
        np.testing.assert_array_equal(fused.flat_query[sel] - lo, solo.flat_query)
        np.testing.assert_array_equal(fused.flat_rows[sel], solo.flat_rows)
        np.testing.assert_array_equal(fused.keep[sel], solo.keep)
        assert fused.weights[sel].tobytes() == solo.weights.tobytes()
        for name in ("num_candidates", "kept_counts", "iterations", "used_fallback"):
            np.testing.assert_array_equal(
                getattr(fused, name)[lo:hi], getattr(solo, name)
            )
        if ms[s] == 0:
            assert (fused.num_candidates[lo:hi] == pres[s].n).all()


@st.composite
def walk_streams(draw):
    """``(max_vals, min_vals, m, m_eff)`` for :func:`_stream_walk`:
    values with ties, zeros of both signs and mixed signs, as sorted
    streams or in arbitrary order, and ``m > m_eff`` tails."""
    q = draw(st.integers(1, 40))
    m = draw(st.integers(1, 600))
    m_eff = max(1, m - draw(st.sampled_from([0, 0, 1, 7, 64])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["palette", "normal", "sparse"]))
    if kind == "palette":  # heavy ties, zeros of both signs
        palette = np.array([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0])
        pair = rng.choice(palette, size=(2, q, m_eff))
    else:
        pair = rng.normal(size=(2, q, m_eff))
        if kind == "sparse":  # exact zeros among continuous values
            pair[rng.random(pair.shape) < 0.3] = 0.0
    max_vals, min_vals = pair
    if draw(st.booleans()):  # stream order: max falls, min rises
        max_vals = -np.sort(-max_vals, axis=1)
        min_vals = np.sort(min_vals, axis=1)
    return max_vals, min_vals, m, m_eff


def _consumed(min_iter, min_pos):
    return min_iter[np.arange(min_iter.shape[1]) < min_pos[:, np.newaxis]]


@given(walk_streams())
@settings(max_examples=100, deadline=None)
def test_scalar_walk_equals_lockstep_walk(streams):
    max_vals, min_vals, m, m_eff = streams
    lock_pos, lock_iter, lock_running = batched_search._gated_walk(
        max_vals, min_vals, m_eff
    )
    pos, iters, running = batched_search._scalar_walk(max_vals, min_vals, m_eff)
    np.testing.assert_array_equal(pos, lock_pos)
    np.testing.assert_array_equal(_consumed(iters, pos), _consumed(lock_iter, pos))
    assert running.tobytes() == lock_running.tobytes()
    # Through _stream_walk, with the row cutoff forcing each path, so the
    # m > m_eff tail runs on both walks' state.
    walks = []
    for cutoff in (0, max_vals.shape[0]):
        with mock.patch.object(batched_search, "_SCALAR_WALK_MAX_ROWS", cutoff):
            walks.append(
                batched_search._stream_walk(max_vals, min_vals, m, m_eff, True)
            )
    (lock_pos, lock_iter, lock_its, lock_skip), (pos, iters, its, skip) = walks
    np.testing.assert_array_equal(pos, lock_pos)
    np.testing.assert_array_equal(_consumed(iters, pos), _consumed(lock_iter, pos))
    np.testing.assert_array_equal(its, lock_its)
    np.testing.assert_array_equal(skip, lock_skip)


class _CountingClock:
    """Stands in for ``perf_counter``: returns 0, 1, 2, ... so every
    recorded stage is an exact small integer."""

    def __init__(self):
        self.readings = []

    def __call__(self):
        self.readings.append(float(len(self.readings)))
        return self.readings[-1]


@pytest.mark.parametrize(
    "shapes",
    [
        [(40, 3, 20)],  # one segment
        [(12, 2, 6), (12, 1, 6), (9, 2, 4), (7, 1, 0), (12, 0, 6)],  # fused
    ],
    ids=["one-segment", "multi-segment"],
)
def test_stage_timers_tile_the_call(rng, monkeypatch, shapes):
    clock = _CountingClock()
    monkeypatch.setattr(batched_search, "perf_counter", clock)
    pres, values, queries, offsets, ms = _slab(rng, shapes)
    with StageProfiler() as prof:
        attend_many_ragged(pres, values, queries, offsets, ms, score_gap=GAP)
    summary = prof.summary()
    total = {stage: row["total_seconds"] for stage, row in summary.items()}
    assert set(total) == set(SEARCH_STAGES) | set(ATTEND_STAGES)
    assert sum(total[s] for s in SEARCH_STAGES) == total["attend.candidate_search"]
    whole = clock.readings[-1] - clock.readings[0]
    assert sum(total[s] for s in ATTEND_STAGES) == whole
    groups = len({(pre.n, m) for pre, m, (_, q, _) in zip(pres, ms, shapes) if m and q})
    assert summary["search.gated_walk"]["calls"] == groups
    assert summary["search.accumulate"]["calls"] == 1


def test_candidate_search_stages_tile_the_call(rng, monkeypatch):
    clock = _CountingClock()
    monkeypatch.setattr(batched_search, "perf_counter", clock)
    with StageProfiler() as prof:
        batched_candidate_search(rng.normal(size=(30, 4)), rng.normal(size=(5, 4)), 12)
    summary = prof.summary()
    assert set(summary) == set(SEARCH_STAGES)
    whole = clock.readings[-1] - clock.readings[0]
    assert sum(row["total_seconds"] for row in summary.values()) == whole
