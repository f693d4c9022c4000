"""Unit tests for the pluggable attention backends."""

import numpy as np
import pytest

from repro.core.attention import attention, self_attention
from repro.core.backends import (
    ApproximateBackend,
    BackendStats,
    ExactBackend,
    KeyFingerprint,
    QuantizedBackend,
    SerialBackend,
)
from repro.core.config import aggressive, conservative


class TestExactBackend:
    def test_matches_reference(self, attention_inputs):
        key, value, query = attention_inputs
        backend = ExactBackend()
        np.testing.assert_allclose(
            backend.attend(key, value, query), attention(key, value, query)
        )

    def test_stats_record_full_selection(self, attention_inputs):
        key, value, query = attention_inputs
        backend = ExactBackend()
        backend.attend(key, value, query)
        backend.attend(key, value, query)
        assert backend.stats.calls == 2
        assert backend.stats.candidate_fraction == 1.0
        assert backend.stats.kept_fraction == 1.0


class TestApproximateBackend:
    def test_reprepares_on_new_key(self, rng):
        backend = ApproximateBackend(conservative())
        key1 = rng.normal(size=(10, 4))
        key2 = rng.normal(size=(10, 4))
        value = rng.normal(size=(10, 4))
        backend.attend(key1, value, rng.normal(size=4))
        backend.attend(key2, value, rng.normal(size=4))
        assert backend.stats.calls == 2

    def test_reuses_preparation_for_same_key(self, rng):
        backend = ApproximateBackend(conservative())
        key = rng.normal(size=(10, 4))
        value = rng.normal(size=(10, 4))
        backend.prepare(key)
        pre = backend._attention.preprocessed
        backend.attend(key, value, rng.normal(size=4))
        assert backend._attention.preprocessed is pre

    def test_aggressive_keeps_fewer(self, rng):
        key = rng.normal(size=(64, 8))
        value = rng.normal(size=(64, 8))
        queries = rng.normal(size=(10, 8))
        cons = ApproximateBackend(conservative())
        aggr = ApproximateBackend(aggressive())
        for q in queries:
            cons.attend(key, value, q)
            aggr.attend(key, value, q)
        assert aggr.stats.candidate_fraction <= cons.stats.candidate_fraction

    def test_track_topk_records_retention(self, rng):
        key = rng.normal(size=(32, 8))
        value = rng.normal(size=(32, 8))
        backend = ApproximateBackend(conservative(), track_topk=3)
        backend.attend(key, value, rng.normal(size=8))
        assert backend.stats.topk_total == 3
        assert 0 <= backend.stats.topk_retention <= 1.0

    def test_track_topk_full_with_exact_like_config(self, rng):
        from repro.core.config import ApproximationConfig

        key = rng.normal(size=(16, 4))
        value = rng.normal(size=(16, 4))
        config = ApproximationConfig(
            m_absolute=16 * 4, t_percent=1e-6, min_skip_heuristic=False
        )
        backend = ApproximateBackend(config, track_topk=2)
        for _ in range(5):
            backend.attend(key, value, rng.normal(size=4))
        # With effectively-exact settings the true top-2 always survives.
        assert backend.stats.topk_retention == pytest.approx(1.0)


class TestQuantizedBackend:
    def test_close_to_exact(self, rng):
        key = rng.normal(size=(20, 16))
        value = rng.normal(size=(20, 16))
        query = rng.normal(size=16)
        backend = QuantizedBackend(i=4, f=6, max_n=64, d=16)
        out = backend.attend(key, value, query)
        reference = attention(key, value, query)
        assert np.max(np.abs(out - reference)) < 0.2

    def test_more_fraction_bits_reduce_error(self, rng):
        key = rng.normal(size=(20, 8))
        value = rng.normal(size=(20, 8))
        queries = rng.normal(size=(10, 8))
        errors = {}
        for f in (2, 4, 8):
            backend = QuantizedBackend(i=4, f=f, max_n=32, d=8)
            err = 0.0
            for q in queries:
                out = backend.attend(key, value, q)
                err = max(err, np.max(np.abs(out - attention(key, value, q))))
            errors[f] = err
        assert errors[8] < errors[2]

    def test_caches_pipelines_per_dim(self, rng):
        backend = QuantizedBackend(max_n=32)
        backend.attend(rng.normal(size=(4, 8)), rng.normal(size=(4, 8)), rng.normal(size=8))
        backend.attend(rng.normal(size=(4, 16)), rng.normal(size=(4, 16)), rng.normal(size=16))
        assert set(backend._pipelines) == {8, 16}


class TestKeyFingerprint:
    def test_matches_same_contents(self, rng):
        key = rng.normal(size=(20, 8))
        assert KeyFingerprint.of(key).matches(key.copy())

    def test_detects_content_change(self, rng):
        key = rng.normal(size=(20, 8))
        fingerprint = KeyFingerprint.of(key)
        other = key.copy()
        other[0, 0] += 1.0
        assert not fingerprint.matches(other)

    def test_detects_single_element_edit_anywhere(self, rng):
        key = rng.normal(size=(20, 8))
        fingerprint = KeyFingerprint.of(key)
        for row, col in [(1, 3), (7, 5), (13, 1), (19, 7)]:
            other = key.copy()
            other[row, col] += 1e-6
            assert not fingerprint.matches(other), (row, col)

    def test_detects_row_permutation(self, rng):
        """A row swap preserves the plain sum; the weighted component
        must still catch it."""
        key = rng.normal(size=(20, 8))
        fingerprint = KeyFingerprint.of(key)
        swapped = key.copy()
        swapped[[0, 5]] = swapped[[5, 0]]
        assert not fingerprint.matches(swapped)

    def test_detects_shape_change(self, rng):
        key = rng.normal(size=(20, 8))
        assert not KeyFingerprint.of(key).matches(key[:10])

    def test_growing_keys_share_one_ramp(self, rng, monkeypatch):
        """A key streamed one row at a time fingerprints a new size per
        append; one grow-only ramp must serve them all (no per-size
        cache to leak) with exactly the per-size seeded weights."""
        from repro.core import backends

        monkeypatch.setattr(backends, "_FINGERPRINT_RAMP", np.empty(0))
        d = 7
        for rows in range(1, 200):
            key = rng.normal(size=(rows, d))
            weights = np.random.default_rng(0x5EED).normal(size=rows * d)
            assert KeyFingerprint.of(key).weighted == float(
                key.ravel() @ weights
            )
        ramp = backends._FINGERPRINT_RAMP
        assert isinstance(ramp, np.ndarray)
        assert 199 * d <= ramp.size < 2 * 199 * d

    def test_recycled_storage_never_reuses_stale_sort(self, rng):
        """The id-reuse hazard the fingerprint contract fixes: mutating
        the same buffer (same object id) must trigger re-preparation."""
        backend = ApproximateBackend(conservative())
        key = rng.normal(size=(12, 4))
        value = rng.normal(size=(12, 4))
        query = rng.normal(size=4)
        backend.prepare(key)
        stale = backend._attention.preprocessed
        key[:] = rng.normal(size=(12, 4))  # same id, new contents
        backend.attend(key, value, query)
        assert backend._attention.preprocessed is not stale
        np.testing.assert_array_equal(
            backend._attention.preprocessed.key, key
        )

    def test_equal_read_only_key_is_content_checked_once(
        self, rng, monkeypatch
    ):
        """A read-only key equal to the prepared one (a promoted spill's
        session key, say) passes one content check and then becomes the
        prepared key, so later attends pass by identity."""
        backend = ApproximateBackend(conservative(), engine="vectorized")
        key = rng.normal(size=(12, 4))
        value = rng.normal(size=(12, 4))
        backend.prepare(key)
        pre = backend._attention.preprocessed
        same = key.copy()
        same.flags.writeable = False
        calls = []
        fingerprint = KeyFingerprint.of.__func__

        def counted(cls, array):
            calls.append(np.shape(array))
            return fingerprint(cls, array)

        monkeypatch.setattr(KeyFingerprint, "of", classmethod(counted))
        for _ in range(3):
            backend.attend(same, value, rng.normal(size=4))
        assert len(calls) == 1
        assert backend._attention.preprocessed.key is same
        assert backend._attention.preprocessed.sorted_values is pre.sorted_values


class TestAttendMany:
    @pytest.mark.parametrize("engine", ["reference", "efficient", "vectorized"])
    def test_matches_per_query_attend(self, rng, engine):
        key = rng.normal(size=(32, 8))
        value = rng.normal(size=(32, 8))
        queries = rng.normal(size=(6, 8))
        batched = ApproximateBackend(conservative(), engine=engine)
        single = ApproximateBackend(conservative(), engine=engine)
        outputs = batched.attend_many(key, value, queries)
        for i, query in enumerate(queries):
            np.testing.assert_allclose(
                outputs[i], single.attend(key, value, query), atol=1e-12
            )

    def test_records_one_call_per_query(self, rng):
        key = rng.normal(size=(32, 8))
        value = rng.normal(size=(32, 8))
        queries = rng.normal(size=(7, 8))
        backend = ApproximateBackend(conservative(), engine="vectorized")
        backend.attend_many(key, value, queries)
        assert backend.stats.calls == 7
        assert len(backend.stats.traces) == 7

    def test_track_topk_batched(self, rng):
        key = rng.normal(size=(32, 8))
        value = rng.normal(size=(32, 8))
        queries = rng.normal(size=(5, 8))
        backend = ApproximateBackend(
            conservative(), engine="vectorized", track_topk=3
        )
        backend.attend_many(key, value, queries)
        assert backend.stats.topk_total == 15
        assert 0 <= backend.stats.topk_retention <= 1.0

    def test_exact_backend_batched(self, rng):
        key = rng.normal(size=(16, 4))
        value = rng.normal(size=(16, 4))
        queries = rng.normal(size=(3, 4))
        backend = ExactBackend()
        outputs = backend.attend_many(key, value, queries)
        np.testing.assert_allclose(
            outputs, self_attention(key, value, queries)
        )
        assert backend.stats.calls == 3

    def test_quantized_backend_batched(self, rng):
        key = rng.normal(size=(16, 8))
        value = rng.normal(size=(16, 8))
        queries = rng.normal(size=(3, 8))
        backend = QuantizedBackend(i=4, f=6, max_n=32, d=8)
        outputs = backend.attend_many(key, value, queries)
        assert outputs.shape == (3, 8)
        assert backend.stats.calls == 3

    def test_serial_backend_forces_per_query_calls(self, rng):
        key = rng.normal(size=(16, 4))
        value = rng.normal(size=(16, 4))
        queries = rng.normal(size=(4, 4))
        inner = ExactBackend()
        serial = SerialBackend(inner)
        outputs = serial.attend_many(key, value, queries)
        assert serial.name == "exact"
        assert serial.stats is inner.stats
        for i, query in enumerate(queries):
            np.testing.assert_allclose(
                outputs[i], attention(key, value, query)
            )


class TestBackendStats:
    def test_reset(self):
        stats = BackendStats()
        stats.record_topk(2, 3)
        stats.reset()
        assert stats.topk_included == 0
        assert stats.topk_retention == 1.0  # vacuous

    def test_fractions_empty(self):
        stats = BackendStats()
        assert stats.candidate_fraction == 0.0
        assert stats.kept_fraction == 0.0

    def test_max_traces_caps_memory(self, rng):
        backend = ApproximateBackend(conservative())
        backend.stats.max_traces = 4
        key = rng.normal(size=(12, 4))
        value = rng.normal(size=(12, 4))
        with pytest.warns(RuntimeWarning, match="max_traces"):
            for _ in range(7):
                backend.attend(key, value, rng.normal(size=4))
        assert len(backend.stats.traces) == 4
        assert backend.stats.dropped_traces == 3
        assert backend.stats.calls == 7  # counters keep aggregating

    def test_reset_clears_dropped_counter(self):
        from repro.core.approximate import AttentionTrace

        stats = BackendStats(max_traces=1)
        trace = AttentionTrace(
            n=2,
            m=1,
            num_candidates=1,
            num_kept=1,
            candidates=np.array([0]),
            kept_rows=np.array([0]),
            weights=np.array([1.0]),
            used_fallback=False,
        )
        stats.record(trace)
        with pytest.warns(RuntimeWarning, match="max_traces"):
            stats.record(trace)
        assert stats.dropped_traces == 1
        stats.reset()
        assert stats.dropped_traces == 0
        assert stats.traces == []

    def test_unbounded_when_cap_disabled(self):
        from repro.core.approximate import AttentionTrace

        stats = BackendStats(max_traces=None)
        trace = AttentionTrace(
            n=2,
            m=1,
            num_candidates=1,
            num_kept=1,
            candidates=np.array([0]),
            kept_rows=np.array([0]),
            weights=np.array([1.0]),
            used_fallback=False,
        )
        for _ in range(10):
            stats.record(trace)
        assert len(stats.traces) == 10
        assert stats.dropped_traces == 0

    def test_first_trace_drop_warns_once(self):
        import warnings

        from repro.core.approximate import AttentionTrace

        stats = BackendStats(max_traces=1)
        trace = AttentionTrace(
            n=2,
            m=1,
            num_candidates=1,
            num_kept=1,
            candidates=np.array([0]),
            kept_rows=np.array([0]),
            weights=np.array([1.0]),
            used_fallback=False,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stats.record(trace)  # fits: no warning
            stats.record(trace)  # first drop: warn
            stats.record(trace)  # later drops: silent
        assert len(caught) == 1
        assert issubclass(caught[0].category, RuntimeWarning)
        assert "max_traces" in str(caught[0].message)
        assert stats.dropped_traces == 2

    def test_merge_folds_counters_and_traces(self):
        from repro.core.approximate import AttentionTrace

        trace = AttentionTrace(
            n=4,
            m=2,
            num_candidates=2,
            num_kept=1,
            candidates=np.array([0, 1]),
            kept_rows=np.array([0]),
            weights=np.array([1.0]),
            used_fallback=False,
        )
        a = BackendStats()
        b = BackendStats()
        a.record(trace)
        b.record(trace)
        b.record(trace)
        b.record_topk(1, 2)
        a.merge(b)
        assert a.calls == 3
        assert a.total_rows == 12
        assert a.total_candidates == 6
        assert a.total_kept == 3
        assert a.topk_total == 2
        assert len(a.traces) == 3

    def test_merge_respects_trace_cap(self):
        from repro.core.approximate import AttentionTrace

        trace = AttentionTrace(
            n=2,
            m=1,
            num_candidates=1,
            num_kept=1,
            candidates=np.array([0]),
            kept_rows=np.array([0]),
            weights=np.array([1.0]),
            used_fallback=False,
        )
        a = BackendStats(max_traces=2)
        b = BackendStats()
        a.record(trace)
        for _ in range(3):
            b.record(trace)
        a.merge(b)
        assert len(a.traces) == 2
        assert a.dropped_traces == 2
        # With room to spare, nothing is counted as dropped.
        roomy = BackendStats()
        roomy.merge(b)
        assert roomy.dropped_traces == 0
        assert len(roomy.traces) == 3
        # A keep_traces=False target merges counters only; disabled
        # retention is not truncation, so dropped_traces stays 0
        # (mirroring record() on a keep_traces=False stats).
        c = BackendStats(keep_traces=False)
        c.merge(b)
        assert c.calls == 3
        assert c.traces == []
        assert c.dropped_traces == 0


    def test_count_takes_arrays_or_ints(self):
        stats = BackendStats(keep_traces=False)
        stats.count(10, np.array([3, 5]), np.array([1, 2]))
        stats.count(4, 4, 4)
        assert (stats.calls, stats.total_rows) == (3, 24)
        assert (stats.total_candidates, stats.total_kept) == (12, 7)
        assert stats.traces == []

    def test_concurrent_counts_into_one_record_are_exact(self):
        """Backends on different threads may count into one shared
        record (a served session's evicted-while-pinned entry and its
        successor): no add may be lost."""
        import sys
        import threading

        stats = BackendStats(keep_traces=False)
        candidates, kept = np.array([3, 5]), np.array([1, 2])
        rounds, workers = 2000, 8

        def count():
            for _ in range(rounds):
                stats.count(10, candidates, kept)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=count) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        total = rounds * workers
        assert (stats.calls, stats.total_rows) == (2 * total, 20 * total)
        assert (stats.total_candidates, stats.total_kept) == (8 * total, 3 * total)


class TestPreparedNbytes:
    def test_approximate_backend_reports_artifact_size(self, rng):
        backend = ApproximateBackend(conservative())
        key = rng.normal(size=(10, 4))
        assert backend.prepared_nbytes(key) == 3 * 10 * 4 * 8
