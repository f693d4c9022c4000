"""Two-tier prepared-key cache: spill on eviction, promote by mmap,
per-tier byte accounting, and pinned-entry semantics across tiers."""

import os

import numpy as np
import pytest

from repro.core.backends import ApproximateBackend, KeyFingerprint
from repro.core.config import conservative
from repro.core.efficient_search import PreprocessedKey
from repro.serve import KeyCacheManager
from repro.serve.mutator import AppendRowsMutation

N, D = 16, 8
ENTRY_NBYTES = 3 * N * D * 8  # the vectorized backend's prepared_nbytes


def _manager(tmp_path, capacity_bytes=ENTRY_NBYTES, disk_capacity_bytes=None):
    return KeyCacheManager(
        lambda: ApproximateBackend(conservative(), engine="vectorized"),
        capacity_bytes=capacity_bytes,
        disk_capacity_bytes=disk_capacity_bytes,
        spill_dir=str(tmp_path),
    )


def _tiered(tmp_path, disk_capacity_bytes=64 * ENTRY_NBYTES):
    return _manager(tmp_path, disk_capacity_bytes=disk_capacity_bytes)


def _register(manager, session_id, seed=0):
    rng = np.random.default_rng(seed)
    return manager.register(
        session_id, rng.normal(size=(N, D)), rng.normal(size=(N, D))
    )


def _touch(manager, session_id):
    manager.release(manager.checkout(session_id))


def _spill_files(tmp_path):
    return sorted(p for p in os.listdir(tmp_path) if p.endswith(".art"))


class TestSpillOnEviction:
    def test_eviction_spills_instead_of_dropping(self, tmp_path):
        manager = _tiered(tmp_path)
        _register(manager, "a", seed=1)
        _register(manager, "b", seed=2)
        _touch(manager, "a")
        _touch(manager, "b")  # evicts "a" (capacity = one entry)
        assert manager.stats.evictions == 1
        assert manager.stats.spills == 1
        assert manager.spilled_session_ids == ["a"]
        assert manager.cached_session_ids == ["b"]
        assert len(_spill_files(tmp_path)) == 1
        assert manager.disk_bytes_in_use > 0

    def test_disk_tier_off_keeps_legacy_behavior(self, tmp_path):
        manager = _manager(tmp_path)  # disk_capacity_bytes=None
        _register(manager, "a", seed=1)
        _register(manager, "b", seed=2)
        _touch(manager, "a")
        _touch(manager, "b")
        assert manager.stats.evictions == 1
        assert manager.stats.spills == 0
        assert manager.spilled_session_ids == []
        assert _spill_files(tmp_path) == []
        assert manager.disk_bytes_in_use == 0

    def test_close_drops_spilled_artifact(self, tmp_path):
        manager = _tiered(tmp_path)
        _register(manager, "a", seed=1)
        _register(manager, "b", seed=2)
        _touch(manager, "a")
        _touch(manager, "b")
        manager.close("a")
        assert manager.spilled_session_ids == []
        assert manager.disk_bytes_in_use == 0
        assert _spill_files(tmp_path) == []

    def test_reregistration_drops_stale_spill(self, tmp_path):
        manager = _tiered(tmp_path)
        _register(manager, "a", seed=1)
        _register(manager, "b", seed=2)
        _touch(manager, "a")
        _touch(manager, "b")
        _register(manager, "a", seed=9)  # new memory: old spill is junk
        assert manager.spilled_session_ids == []
        _touch(manager, "a")
        assert manager.stats.promotes == 0

    def test_oldest_spills_reaped_for_disk_capacity(self, tmp_path):
        manager = _tiered(tmp_path, disk_capacity_bytes=ENTRY_NBYTES + 64)
        for i, sid in enumerate(["a", "b", "c"]):
            _register(manager, sid, seed=i)
            _touch(manager, sid)
        # "a" then "b" spilled; the disk tier holds one, so "a" was
        # reaped when "b" arrived.
        assert manager.stats.spills == 2
        assert manager.stats.spill_reaps == 1
        assert manager.spilled_session_ids == ["b"]
        assert len(_spill_files(tmp_path)) == 1
        assert manager.disk_bytes_in_use <= ENTRY_NBYTES + 64


class TestPromoteByMmap:
    def test_miss_promotes_spilled_artifact(self, tmp_path):
        manager = _tiered(tmp_path)
        _register(manager, "a", seed=1)
        _register(manager, "b", seed=2)
        _touch(manager, "a")
        _touch(manager, "b")
        _touch(manager, "a")  # miss → promote, not re-sort
        assert manager.stats.misses == 3
        assert manager.stats.promotes == 1
        # Promotion consumed "a"'s spill record (the file is unlinked
        # eagerly; the live mapping keeps the pages) and the promoted
        # entry displaced "b", which spilled in turn.
        assert manager.spilled_session_ids == ["b"]
        assert manager.stats.spills == 2

    def test_promoted_state_bit_identical_to_fresh_build(self, tmp_path):
        manager = _tiered(tmp_path)
        session = _register(manager, "a", seed=3)
        _register(manager, "b", seed=4)
        _touch(manager, "a")
        _touch(manager, "b")
        entry = manager.checkout("a")
        try:
            assert manager.stats.promotes == 1
            pre = entry.backend._attention.preprocessed
            fresh = PreprocessedKey.build(session.key)
            for plane in ("sorted_values", "row_ids", "key"):
                np.testing.assert_array_equal(
                    getattr(pre, plane), getattr(fresh, plane)
                )
        finally:
            manager.release(entry)

    def test_promoted_outputs_bit_identical(self, tmp_path):
        manager = _tiered(tmp_path)
        session = _register(manager, "a", seed=5)
        _register(manager, "b", seed=6)
        _touch(manager, "a")
        _touch(manager, "b")
        rng = np.random.default_rng(7)
        queries = rng.normal(size=(4, D))
        entry = manager.checkout("a")
        try:
            out = entry.backend.attend_many(
                session.key, session.value, queries
            )
        finally:
            manager.release(entry)
        fresh = ApproximateBackend(conservative(), engine="vectorized")
        fresh.prepare(session.key)
        expected = fresh.attend_many(session.key, session.value, queries)
        np.testing.assert_array_equal(out, expected)

    def test_mutation_invalidates_spill(self, tmp_path):
        manager = _tiered(tmp_path)
        _register(manager, "a", seed=1)
        _register(manager, "b", seed=2)
        _touch(manager, "a")
        _touch(manager, "b")  # "a" spilled
        rng = np.random.default_rng(8)
        manager.mutate(
            "a",
            AppendRowsMutation(
                rng.normal(size=(2, D)), rng.normal(size=(2, D))
            ),
        )
        assert manager.spilled_session_ids == []
        _touch(manager, "a")  # prepares the *mutated* key fresh
        assert manager.stats.promotes == 0

    def test_promoted_then_mutated_matches_fresh_prepare(self, tmp_path):
        manager = _tiered(tmp_path)
        _register(manager, "a", seed=11)
        _register(manager, "b", seed=12)
        _touch(manager, "a")
        _touch(manager, "b")
        _touch(manager, "a")  # promote
        rng = np.random.default_rng(13)
        session = manager.mutate(
            "a",
            AppendRowsMutation(
                rng.normal(size=(3, D)), rng.normal(size=(3, D))
            ),
        )
        entry = manager.checkout("a")
        try:
            pre = entry.backend._attention.preprocessed
            fresh = PreprocessedKey.build(session.key)
            for plane in ("sorted_values", "row_ids", "key"):
                np.testing.assert_array_equal(
                    getattr(pre, plane), getattr(fresh, plane)
                )
        finally:
            manager.release(entry)


class TestPinnedEvictionAcrossTiers:
    def test_pinned_eviction_parks_then_spills_once(self, tmp_path):
        manager = _tiered(tmp_path)
        _register(manager, "a", seed=1)
        _register(manager, "b", seed=2)
        pinned = manager.checkout("a")
        _touch(manager, "b")  # evicts "a" while pinned → parked
        assert manager.stats.evictions == 1
        assert manager.stats.spills == 0, "a pinned entry must not spill yet"
        assert manager.spilled_session_ids == []
        manager.release(pinned)  # last pin: spill happens now, once
        assert manager.stats.spills == 1
        assert manager.spilled_session_ids == ["a"]
        assert len(_spill_files(tmp_path)) == 1

    def test_parked_entry_of_closed_session_never_spills(self, tmp_path):
        manager = _tiered(tmp_path)
        _register(manager, "a", seed=1)
        _register(manager, "b", seed=2)
        pinned = manager.checkout("a")
        _touch(manager, "b")  # parks "a"
        manager.close("a")
        manager.release(pinned)
        assert manager.stats.spills == 0
        assert _spill_files(tmp_path) == []

    def test_stale_parked_backend_never_pairs_with_new_fingerprint(
        self, tmp_path
    ):
        """A parked entry can lag the session (a cold-path mutation
        advanced the memory while it was parked); its spill must be
        discarded, never recorded under the newer fingerprint."""
        manager = _tiered(tmp_path)
        _register(manager, "a", seed=1)
        _register(manager, "b", seed=2)
        pinned = manager.checkout("a")
        _touch(manager, "b")  # parks "a"
        rng = np.random.default_rng(3)
        manager.mutate(  # cold path: no live entry for "a"
            "a",
            AppendRowsMutation(
                rng.normal(size=(2, D)), rng.normal(size=(2, D))
            ),
        )
        manager.release(pinned)  # parked spill attempt → stale → dropped
        assert manager.stats.spills == 0
        assert manager.spilled_session_ids == []
        assert _spill_files(tmp_path) == []


class TestByteAccounting:
    def _ram_total(self, manager):
        with manager._lock:
            return sum(e.nbytes for e in manager._entries.values())

    def _disk_total(self, manager):
        with manager._lock:
            return sum(r.nbytes for r in manager._spilled.values())

    def _assert_consistent(self, manager, tmp_path):
        assert manager.bytes_in_use == self._ram_total(manager)
        assert manager.disk_bytes_in_use == self._disk_total(manager)
        on_disk = sum(
            os.path.getsize(os.path.join(tmp_path, f))
            for f in _spill_files(tmp_path)
        )
        assert manager.disk_bytes_in_use == on_disk

    def test_accounting_through_spill_promote_mutate_cycles(self, tmp_path):
        manager = _tiered(tmp_path)
        rng = np.random.default_rng(21)
        for i in range(4):
            _register(manager, f"s{i}", seed=i)
        for _ in range(3):
            for i in range(4):
                _touch(manager, f"s{i}")
                self._assert_consistent(manager, tmp_path)
            manager.mutate(
                "s1",
                AppendRowsMutation(
                    rng.normal(size=(2, D)), rng.normal(size=(2, D))
                ),
            )
            self._assert_consistent(manager, tmp_path)
        assert manager.stats.spills > 0
        assert manager.stats.promotes > 0
        manager.close("s0")
        manager.close("s1")
        self._assert_consistent(manager, tmp_path)

    def test_pinned_cycle_keeps_tiers_consistent(self, tmp_path):
        manager = _tiered(tmp_path)
        for i in range(3):
            _register(manager, f"s{i}", seed=i)
        pinned = manager.checkout("s0")
        _touch(manager, "s1")
        _touch(manager, "s2")
        self._assert_consistent(manager, tmp_path)
        manager.release(pinned)
        self._assert_consistent(manager, tmp_path)


class TestSnapshotCounters:
    def test_spill_counters_reach_metrics(self, tmp_path):
        from repro.serve.observability import MetricsRegistry
        from repro.serve.service import TelemetryResult

        manager = _tiered(tmp_path)
        _register(manager, "a", seed=1)
        _register(manager, "b", seed=2)
        _touch(manager, "a")
        _touch(manager, "b")
        _touch(manager, "a")
        registry = MetricsRegistry()
        TelemetryResult(
            cache=manager.stats, occupancy=manager.occupancy()
        ).publish_metrics(registry)
        samples = {
            name: value for name, _, value in registry.samples()
        }
        # Two spills: "a" on eviction, then "b" displaced by the promote.
        assert samples["repro_serve_cache_spills_total"] == 2
        assert samples["repro_serve_cache_promotes_total"] == 1
        assert "repro_serve_cache_disk_bytes" in samples


@pytest.mark.parametrize("disk", [None, 64 * ENTRY_NBYTES])
def test_single_tier_and_two_tier_serve_identical_outputs(tmp_path, disk):
    """The disk tier is a pure performance feature: responses are
    bit-identical with it on or off."""
    rng = np.random.default_rng(31)
    queries = rng.normal(size=(3, D))
    outputs = []
    manager = _manager(tmp_path / str(bool(disk)), disk_capacity_bytes=disk)
    sessions = {}
    for i in range(3):
        sessions[f"s{i}"] = _register(manager, f"s{i}", seed=i)
    for _ in range(2):
        for sid, session in sessions.items():
            entry = manager.checkout(sid)
            try:
                outputs.append(
                    entry.backend.attend_many(
                        session.key, session.value, queries
                    )
                )
            finally:
                manager.release(entry)
    baseline = []
    for _ in range(2):
        for sid, session in sessions.items():
            backend = ApproximateBackend(conservative(), engine="vectorized")
            backend.prepare(session.key)
            baseline.append(
                backend.attend_many(session.key, session.value, queries)
            )
    for got, want in zip(outputs, baseline):
        np.testing.assert_array_equal(got, want)


class TestMutationClosesAdoptedArtifact:
    """The first splice leaves the backend's planes private, so the
    entry stops pinning the shm segment or spill file it adopted; its
    answers stay those of a fresh build, bit for bit."""

    def _append_and_check(self, manager, session_id, seed):
        rng = np.random.default_rng(seed)
        manager.mutate(
            session_id,
            AppendRowsMutation(rng.normal(size=(1, D)), rng.normal(size=(1, D))),
        )
        session = manager.get(session_id)
        queries = rng.normal(size=(4, D))
        entry = manager.checkout(session_id)
        try:
            assert entry.artifact is None
            out = entry.backend.attend_many(session.key, session.value, queries)
        finally:
            manager.release(entry)
        fresh = ApproximateBackend(conservative(), engine="vectorized")
        fresh.prepare(session.key)
        np.testing.assert_array_equal(
            out, fresh.attend_many(session.key, session.value, queries)
        )

    def test_adopted_shm_segment(self, tmp_path):
        rng = np.random.default_rng(12)
        key, value = rng.normal(size=(N, D)), rng.normal(size=(N, D))
        packer = ApproximateBackend(conservative(), engine="vectorized")
        packer.prepare(key)
        artifact = packer.export_artifact(value, storage="shm")
        try:
            manager = _tiered(tmp_path)
            manager.register_prepared("s", artifact, KeyFingerprint.of(key))
            self._append_and_check(manager, "s", seed=13)
        finally:
            artifact.unlink()

    def test_promoted_spill(self, tmp_path):
        manager = _tiered(tmp_path)
        _register(manager, "a", seed=14)
        _register(manager, "b", seed=15)
        _touch(manager, "a")
        _touch(manager, "b")
        _touch(manager, "a")  # miss → promote
        assert manager.stats.promotes == 1
        self._append_and_check(manager, "a", seed=16)
