"""Unit tests for sessions and the prepared-key LRU cache."""

import numpy as np
import pytest

from repro.core.backends import ApproximateBackend, attend_many_ragged
from repro.core.config import conservative
from repro.errors import ShapeError
from repro.serve import KeyCacheManager, UnknownSessionError
from repro.serve.mutator import AppendRowsMutation


def _manager(capacity_bytes=None):
    return KeyCacheManager(
        lambda: ApproximateBackend(conservative(), engine="vectorized"),
        capacity_bytes=capacity_bytes,
    )


def _register(manager, session_id, n=16, d=8, seed=0):
    rng = np.random.default_rng(seed)
    return manager.register(
        session_id, rng.normal(size=(n, d)), rng.normal(size=(n, d))
    )


class TestRegistry:
    def test_register_and_get(self):
        manager = _manager()
        session = _register(manager, "a")
        assert manager.get("a") is session
        assert session.n == 16 and session.d == 8

    def test_unknown_session_raises(self):
        with pytest.raises(UnknownSessionError):
            _manager().get("nope")

    def test_registration_copies_arrays(self):
        manager = _manager()
        rng = np.random.default_rng(0)
        key = rng.normal(size=(8, 4))
        session = manager.register("a", key, rng.normal(size=(8, 4)))
        key[0, 0] = 1e9  # caller-side mutation must not leak in
        assert session.key[0, 0] != 1e9
        assert session.fingerprint.matches(session.key)

    def test_rejects_bad_shapes(self):
        manager = _manager()
        rng = np.random.default_rng(0)
        with pytest.raises(ShapeError):
            manager.register("a", rng.normal(size=8), rng.normal(size=(8, 4)))
        with pytest.raises(ShapeError):
            manager.register(
                "a", rng.normal(size=(8, 4)), rng.normal(size=(9, 4))
            )

    def test_close_forgets_session(self):
        manager = _manager()
        _register(manager, "a")
        manager.release(manager.checkout("a"))
        manager.close("a")
        assert manager.session_ids == []
        assert manager.bytes_in_use == 0
        with pytest.raises(UnknownSessionError):
            manager.checkout("a")


class TestPreparedCache:
    def test_checkout_hit_reuses_backend(self):
        manager = _manager()
        _register(manager, "a")
        first = manager.checkout("a")
        second = manager.checkout("a")
        assert first is second
        manager.release(first)
        manager.release(second)
        assert manager.stats.misses == 1
        assert manager.stats.hits == 1
        assert manager.stats.hit_rate == 0.5

    def test_capacity_accounting_matches_backend_hook(self):
        manager = _manager()
        _register(manager, "a", n=16, d=8)
        entry = manager.checkout("a")
        manager.release(entry)
        assert entry.nbytes == 3 * 16 * 8 * 8  # sorted + row ids + key copy
        assert manager.bytes_in_use == entry.nbytes

    def test_lru_eviction_order(self):
        per_entry = 3 * 16 * 8 * 8
        manager = _manager(capacity_bytes=2 * per_entry)
        for sid in ("a", "b", "c"):
            _register(manager, sid)
        manager.release(manager.checkout("a"))
        manager.release(manager.checkout("b"))
        manager.release(manager.checkout("a"))  # refresh a → b is now LRU
        manager.release(manager.checkout("c"))  # over capacity → evicts b
        assert manager.cached_session_ids == ["a", "c"]
        assert manager.stats.evictions == 1
        assert manager.bytes_in_use == 2 * per_entry

    def test_evicted_session_reprepares_as_miss(self):
        per_entry = 3 * 16 * 8 * 8
        manager = _manager(capacity_bytes=per_entry)
        _register(manager, "a")
        _register(manager, "b")
        manager.release(manager.checkout("a"))
        manager.release(manager.checkout("b"))  # evicts a
        assert manager.stats.evictions == 1
        manager.release(manager.checkout("a"))  # rebuilt: a miss, not an error
        assert manager.stats.misses == 3
        assert manager.stats.hits == 0

    def test_oversized_entry_still_admitted(self):
        manager = _manager(capacity_bytes=10)  # smaller than any entry
        _register(manager, "a")
        entry = manager.checkout("a")
        manager.release(entry)
        assert manager.cached_session_ids == ["a"]
        assert entry.nbytes > 10

    def test_unbounded_capacity_never_evicts(self):
        manager = _manager(capacity_bytes=None)
        for i in range(8):
            _register(manager, f"s{i}")
            manager.release(manager.checkout(f"s{i}"))
        assert manager.stats.evictions == 0
        assert len(manager.cached_session_ids) == 8


class TestCheckoutRaces:
    def test_release_after_eviction_folds_inflight_stats(self):
        """An entry evicted while pinned still counts into its session's
        record — the in-flight batch is never lost."""
        per_entry = 3 * 16 * 8 * 8
        manager = _manager(capacity_bytes=per_entry)
        rng = np.random.default_rng(1)
        _register(manager, "a")
        _register(manager, "b")
        entry = manager.checkout("a")
        manager.checkout("b")  # evicts a while it is still pinned
        assert manager.cached_session_ids == ["b"]
        # The dispatch that held the checkout only records now...
        entry.backend.attend_many(
            entry.session.key, entry.session.value, rng.normal(size=(5, 8))
        )
        # ...and the stats are visible both before and after the release.
        assert manager.session_stats("a").calls == 5
        manager.release(entry)
        assert manager.session_stats("a").calls == 5
        assert entry.session.stats.calls == 5

    def test_register_during_prepare_does_not_cache_stale_entry(self):
        """A session replaced while its first checkout is mid-prepare must
        not leave the old memory cached (checkout identity guard)."""
        import threading

        gate = threading.Event()
        started = threading.Event()

        class SlowBackend(ApproximateBackend):
            def prepare(self, key):
                started.set()
                gate.wait(5.0)
                super().prepare(key)

        manager = KeyCacheManager(
            lambda: SlowBackend(conservative(), engine="vectorized"),
            capacity_bytes=None,
        )
        rng = np.random.default_rng(0)
        old_key = rng.normal(size=(8, 4))
        new_key = rng.normal(size=(8, 4))
        manager.register("a", old_key, np.zeros((8, 4)))
        stale = []
        thread = threading.Thread(
            target=lambda: stale.append(manager.checkout("a"))
        )
        thread.start()
        assert started.wait(5.0)
        replacement = manager.register("a", new_key, np.zeros((8, 4)))
        gate.set()
        thread.join(5.0)
        # The mid-prepare checkout got the old memory for its one
        # dispatch, but nothing stale was cached:
        np.testing.assert_array_equal(stale[0].session.key, old_key)
        fresh = manager.checkout("a")
        assert fresh.session is replacement
        np.testing.assert_array_equal(fresh.session.key, new_key)
        # Releasing the orphan finalizes it; nothing lingers in retirement.
        manager.release(stale[0])
        manager.release(fresh)
        assert not stale[0].retired

    def test_cold_checkout_is_single_flight(self):
        """Concurrent cold checkouts run prepare() once; the second
        caller waits and reuses the first's artifact."""
        import threading

        prepares = []
        gate = threading.Event()

        class SlowBackend(ApproximateBackend):
            def prepare(self, key):
                prepares.append(1)
                gate.wait(5.0)
                super().prepare(key)

        manager = KeyCacheManager(
            lambda: SlowBackend(conservative(), engine="vectorized"),
            capacity_bytes=None,
        )
        rng = np.random.default_rng(0)
        manager.register("a", rng.normal(size=(8, 4)), np.zeros((8, 4)))
        got = []
        threads = [
            threading.Thread(target=lambda: got.append(manager.checkout("a")))
            for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        while not prepares:  # first caller reached prepare
            pass
        gate.set()
        for thread in threads:
            thread.join(5.0)
        assert len(prepares) == 1
        assert len({id(entry) for entry in got}) == 1
        assert manager.stats.misses == 1
        assert manager.stats.hits == 2
        for entry in got:
            manager.release(entry)


class TestByteAccountingOnReRegistration:
    """Regression guard on prepared-byte accounting: re-registering a
    session with a different key must subtract the old entry's
    ``prepared_nbytes`` before (not after, not never) the new one is
    added, and the running total must always equal the sum over live
    entries — a stale-bytes leak would otherwise shrink the effective
    capacity until the cache evicts everything."""

    @staticmethod
    def _audit(manager):
        with manager._lock:
            assert manager._bytes_in_use == sum(
                entry.nbytes for entry in manager._entries.values()
            )

    def test_reregistration_with_different_key_size_reaccounts(self):
        manager = _manager(capacity_bytes=None)
        _register(manager, "a", n=32, d=8)
        manager.release(manager.checkout("a"))
        assert manager.bytes_in_use == 3 * 32 * 8 * 8
        _register(manager, "a", n=8, d=8, seed=1)  # different fingerprint
        assert manager.bytes_in_use == 0  # old entry's bytes subtracted
        manager.release(manager.checkout("a"))
        assert manager.bytes_in_use == 3 * 8 * 8 * 8
        self._audit(manager)

    def test_reregistration_while_pinned_leaks_no_bytes(self):
        manager = _manager(capacity_bytes=None)
        _register(manager, "a", n=16, d=8)
        pinned = manager.checkout("a")  # dispatch in flight
        _register(manager, "a", n=16, d=8, seed=2)
        assert manager.bytes_in_use == 0  # dropped even though pinned
        manager.release(manager.checkout("a"))
        assert manager.bytes_in_use == 3 * 16 * 8 * 8
        manager.release(pinned)  # late release must not double-subtract
        assert manager.bytes_in_use == 3 * 16 * 8 * 8
        self._audit(manager)

    def test_repeated_reregistration_never_exceeds_capacity(self):
        per_entry = 3 * 16 * 8 * 8
        manager = _manager(capacity_bytes=2 * per_entry)
        rng = np.random.default_rng(0)
        for round_ in range(12):
            sid = f"s{round_ % 3}"
            manager.register(
                sid, rng.normal(size=(16, 8)), rng.normal(size=(16, 8))
            )
            manager.release(manager.checkout(sid))
            assert manager.bytes_in_use <= 2 * per_entry
            self._audit(manager)

    def test_random_op_soak_keeps_accounting_exact(self):
        """Random register/checkout/release/close interleavings with
        varying key sizes: the byte total equals the live entries' sum
        after every operation."""
        per_entry = 3 * 16 * 8 * 8
        manager = _manager(capacity_bytes=3 * per_entry)
        rng = np.random.default_rng(7)
        pins = []
        for _ in range(200):
            op = rng.integers(4)
            sid = f"s{rng.integers(4)}"
            if op == 0:
                n = int(rng.integers(4, 40))
                manager.register(
                    sid, rng.normal(size=(n, 8)), rng.normal(size=(n, 8))
                )
            elif op == 1 and sid in manager.session_ids:
                pins.append(manager.checkout(sid))
            elif op == 2 and pins:
                manager.release(pins.pop(int(rng.integers(len(pins)))))
            elif op == 3:
                manager.close(sid)
            self._audit(manager)
        for entry in pins:
            manager.release(entry)
        self._audit(manager)


class TestStatsCarryover:
    def test_eviction_preserves_session_stats(self):
        per_entry = 3 * 16 * 8 * 8
        manager = _manager(capacity_bytes=per_entry)
        rng = np.random.default_rng(1)
        _register(manager, "a")
        _register(manager, "b")
        entry = manager.checkout("a")
        entry.backend.attend_many(
            entry.session.key, entry.session.value, rng.normal(size=(4, 8))
        )
        manager.release(entry)
        manager.release(manager.checkout("b"))  # evicts a, finalizing it
        stats = manager.session_stats("a")
        assert stats.calls == 4
        assert not entry.retired

    def test_one_record_per_session(self, tmp_path):
        """Every backend built for a session counts into the session's
        one record: an entry evicted while pinned and its successor
        (one fused dispatch over both), then a spilled, promoted and
        appended-to entry."""
        per_entry = 3 * 16 * 8 * 8
        manager = KeyCacheManager(
            lambda: ApproximateBackend(conservative(), engine="vectorized"),
            capacity_bytes=per_entry,
            disk_capacity_bytes=16 * per_entry,
            spill_dir=str(tmp_path),
        )
        rng = np.random.default_rng(2)
        session = _register(manager, "a")
        _register(manager, "b", seed=1)
        evicted = manager.checkout("a")
        manager.release(manager.checkout("b"))  # evicts a while pinned
        successor = manager.checkout("a")
        assert successor is not evicted and evicted.retired
        key, value = session.memory
        attend_many_ragged(
            [evicted.backend, successor.backend],
            [key, key],
            [value, value],
            rng.normal(size=(7, 8)),
            np.array([0, 3, 7]),
        )
        assert manager.session_stats("a").calls == 7
        assert manager.merged_backend_stats().calls == 7
        manager.release(evicted)
        manager.release(successor)
        manager.release(manager.checkout("b"))  # evicts a: it spills
        assert "a" in manager.spilled_session_ids
        promotes = manager.stats.promotes
        promoted = manager.checkout("a")
        assert manager.stats.promotes == promotes + 1
        manager.mutate(
            "a",
            AppendRowsMutation(rng.normal(size=(1, 8)), rng.normal(size=(1, 8))),
        )
        key, value = session.memory
        promoted.backend.attend_many(key, value, rng.normal(size=(1, 8)))
        manager.release(promoted)
        stats = manager.session_stats("a")
        assert stats.calls == 8
        assert stats.total_rows == 7 * 16 + 17
        merged = manager.merged_backend_stats()
        assert (merged.calls, merged.total_rows) == (8, 7 * 16 + 17)

    def test_merged_backend_stats_spans_sessions(self):
        manager = _manager()
        rng = np.random.default_rng(1)
        for sid in ("a", "b"):
            _register(manager, sid)
            entry = manager.checkout(sid)
            entry.backend.attend_many(
                entry.session.key, entry.session.value,
                rng.normal(size=(3, 8)),
            )
            manager.release(entry)
        merged = manager.merged_backend_stats()
        assert merged.calls == 6
        assert 0.0 < merged.candidate_fraction <= 1.0


class TestCacheStatsConvention:
    """The idle-cache convention: no lookups → hit rate 0.0, not 1.0.

    Regression for the bug where a server that had served nothing
    reported a perfect cache (hits/(hits+misses) defaulted to 1.0 on
    the empty sum), on the manager, in the server snapshot, and in the
    cluster-pooled snapshot.
    """

    def test_idle_manager_reports_zero_hit_rate(self):
        manager = _manager()
        assert manager.stats.lookups == 0
        assert manager.stats.hit_rate == 0.0

    def test_lookups_counts_hits_and_misses(self):
        manager = _manager()
        _register(manager, "a")
        manager.release(manager.checkout("a"))
        manager.release(manager.checkout("a"))
        assert manager.stats.lookups == 2
        assert manager.stats.hit_rate == 0.5

    def test_idle_server_snapshot_reports_zero_hit_rate(self):
        from repro.serve import AttentionServer

        snapshot = AttentionServer().snapshot()
        assert snapshot["cache"]["hit_rate"] == 0.0

    def test_idle_cluster_snapshot_reports_zero_hit_rate(self):
        from repro.serve import ClusterConfig, ShardedAttentionServer

        cluster = ShardedAttentionServer(ClusterConfig(num_shards=2))
        snapshot = cluster.snapshot()["cluster"]
        assert snapshot["cache"] == {
            "hits": 0, "misses": 0, "evictions": 0, "hit_rate": 0.0,
            "spills": 0, "promotes": 0, "prepare_seconds": 0.0,
            "spill_reaps": 0,
        }
