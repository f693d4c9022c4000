"""Mutable-session tests across the serving stack.

The acceptance property: any sequence of append/delete/replace
mutations applied through :class:`~repro.serve.SessionMutator` yields
attention outputs **bit-identical** to a freshly prepared backend on
the equivalent final key — on a single server and on a 2-shard cluster
in both thread and spawn modes.  Plus the cache-accounting contract of
in-place mutation (stats carryover, byte re-accounting, no cold miss)
and mutation/rebalance consistency.
"""

import os
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backends import ApproximateBackend, KeyFingerprint
from repro.core.config import conservative
from repro.core.efficient_search import PreprocessedKey
from repro.errors import InvalidInputError, ShapeError
from repro.serve import (
    AppendRowsMutation,
    AttentionServer,
    BatchPolicy,
    ClusterConfig,
    DeleteRowsMutation,
    ReplaceKeyMutation,
    ServerConfig,
    ShardedAttentionServer,
    UnknownSessionError,
)
from repro.serve.sessions import KeyCacheManager

D = 6

# Mutation sequences encoded as (op, payload_seed) pairs; arrays and
# indices derive from seeded rngs so hypothesis shrinks a compact space
# while the values stay tie-heavy (integer grid) — the adversarial case
# for splice tie order.
mutation_steps = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2**16)),
    min_size=1,
    max_size=6,
)


def _tie_heavy(rng, shape):
    return rng.integers(-3, 4, size=shape).astype(np.float64)


def _apply_through_mutator(mutator, key, value, op, rng):
    """Apply one step through the serving stack and mirror it locally."""
    n = key.shape[0]
    if op == 0:  # append
        k = int(rng.integers(1, 4))
        key_rows = _tie_heavy(rng, (k, D))
        value_rows = rng.normal(size=(k, D))
        mutator.append_rows(key_rows, value_rows)
        return (
            np.concatenate([key, key_rows]),
            np.concatenate([value, value_rows]),
        )
    if op == 1 and n > 1:  # delete
        count = int(rng.integers(1, min(n, 4)))
        rows = rng.choice(n, size=count, replace=False)
        mutator.delete_rows(rows)
        keep = np.ones(n, dtype=bool)
        keep[rows] = False
        return key[keep], value[keep]
    row = int(rng.integers(n))  # replace
    key_row = _tie_heavy(rng, D)
    value_row = rng.normal(size=D)
    mutator.replace_key(row, key_row, value_row)
    key, value = key.copy(), value.copy()
    key[row] = key_row
    value[row] = value_row
    return key, value


def _assert_served_matches_fresh(server, session_id, key, value, seed):
    """Served outputs on the mutated session == fresh backend on the
    equivalent final key, bit for bit."""
    rng = np.random.default_rng(seed)
    queries = rng.normal(size=(4, D))
    served = server.attend_many(session_id, queries, timeout=30.0)
    fresh = ApproximateBackend(conservative(), engine="vectorized")
    fresh.prepare(key)
    np.testing.assert_array_equal(
        served, fresh.attend_many(key, value, queries)
    )


def _run_sequence(server, session_id, seed, mutations):
    rng = np.random.default_rng(seed)
    key = _tie_heavy(rng, (int(rng.integers(2, 10)), D))
    value = rng.normal(size=(key.shape[0], D))
    server.register_session(session_id, key, value)
    mutator = server.mutator(session_id)
    for op, payload in mutations:
        key, value = _apply_through_mutator(
            mutator, key, value, op, np.random.default_rng(payload)
        )
    _assert_served_matches_fresh(server, session_id, key, value, seed + 1)
    server.close_session(session_id)


def _server_config(**kw):
    return ServerConfig(
        batch=BatchPolicy(max_batch_size=16, max_wait_seconds=0.05),
        num_workers=1,
        **kw,
    )


@pytest.fixture(scope="module")
def running_server():
    server = AttentionServer(_server_config())
    with server:
        yield server


@pytest.fixture(scope="module")
def thread_cluster():
    cluster = ShardedAttentionServer(
        ClusterConfig(num_shards=2, shard=_server_config())
    )
    with cluster:
        yield cluster


@pytest.fixture(scope="module")
def spawn_cluster():
    cluster = ShardedAttentionServer(
        ClusterConfig(num_shards=2, spawn=True, shard=_server_config())
    )
    with cluster:
        yield cluster


class TestMutatedOutputsBitIdentical:
    _counter = iter(range(10**6))

    @given(seed=st.integers(0, 2**16), mutations=mutation_steps)
    @settings(max_examples=25, deadline=None)
    def test_single_server(self, running_server, seed, mutations):
        sid = f"mut-server-{next(self._counter)}"
        _run_sequence(running_server, sid, seed, mutations)

    @given(seed=st.integers(0, 2**16), mutations=mutation_steps)
    @settings(max_examples=15, deadline=None)
    def test_two_shard_thread_cluster(self, thread_cluster, seed, mutations):
        sid = f"mut-thread-{next(self._counter)}"
        _run_sequence(thread_cluster, sid, seed, mutations)

    @given(seed=st.integers(0, 2**16), mutations=mutation_steps)
    @settings(max_examples=5, deadline=None)
    def test_two_shard_spawn_cluster(self, spawn_cluster, seed, mutations):
        sid = f"mut-spawn-{next(self._counter)}"
        _run_sequence(spawn_cluster, sid, seed, mutations)


class TestMutationOrdering:
    def test_read_your_writes(self, running_server):
        """A request submitted after a mutation returns observes the
        mutated memory (the session record reflects it immediately)."""
        rng = np.random.default_rng(0)
        sid = "ordering-ryw"
        running_server.register_session(
            sid, rng.normal(size=(4, D)), rng.normal(size=(4, D))
        )
        mutator = running_server.mutator(sid)
        session = mutator.append_rows(
            rng.normal(size=(3, D)), rng.normal(size=(3, D))
        )
        assert session.n == 7
        assert running_server.cache.get(sid).n == 7
        out = running_server.attend(sid, rng.normal(size=D))
        assert out.shape == (D,)
        running_server.close_session(sid)

    def test_mutations_serialize_per_session(self, running_server):
        """Concurrent appends interleave atomically: the final row count
        is exact and every memory state ever observed is consistent."""
        rng = np.random.default_rng(1)
        sid = "ordering-serial"
        running_server.register_session(
            sid, rng.normal(size=(2, D)), rng.normal(size=(2, D))
        )
        mutator = running_server.mutator(sid)
        errors = []

        def appender(seed):
            thread_rng = np.random.default_rng(seed)
            try:
                for _ in range(8):
                    mutator.append_rows(
                        thread_rng.normal(size=(1, D)),
                        thread_rng.normal(size=(1, D)),
                    )
            except Exception as exc:  # surfaced after the join
                errors.append(exc)

        threads = [
            threading.Thread(target=appender, args=(s,)) for s in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        session = running_server.cache.get(sid)
        assert session.n == 2 + 4 * 8
        key, value = session.memory
        assert key.shape == value.shape == (2 + 4 * 8, D)
        assert session.fingerprint.matches(key)
        running_server.close_session(sid)

    def test_mutation_during_traffic_never_tears(self, running_server):
        """Attends racing a stream of mutations always see a coherent
        (key, value) snapshot — no shape errors, no failed batches."""
        rng = np.random.default_rng(2)
        sid = "ordering-race"
        running_server.register_session(
            sid, rng.normal(size=(8, D)), rng.normal(size=(8, D))
        )
        mutator = running_server.mutator(sid)
        errors = []
        done = threading.Event()

        def attender():
            attender_rng = np.random.default_rng(3)
            try:
                while not done.is_set():
                    out = running_server.attend(
                        sid, attender_rng.normal(size=D)
                    )
                    assert out.shape == (D,)
            except Exception as exc:
                errors.append(exc)

        thread = threading.Thread(target=attender)
        thread.start()
        try:
            mut_rng = np.random.default_rng(4)
            for i in range(20):
                if i % 3 == 2:
                    mutator.delete_rows([0])
                else:
                    mutator.append_rows(
                        mut_rng.normal(size=(2, D)),
                        mut_rng.normal(size=(2, D)),
                    )
        finally:
            done.set()
            thread.join(30.0)
        assert errors == []
        running_server.close_session(sid)

    def test_validation_failures_leave_session_untouched(self, running_server):
        rng = np.random.default_rng(5)
        key, value = rng.normal(size=(4, D)), rng.normal(size=(4, D))
        sid = "ordering-validate"
        running_server.register_session(sid, key, value)
        mutator = running_server.mutator(sid)
        with pytest.raises(ShapeError):
            mutator.append_rows(rng.normal(size=(2, D + 1)), rng.normal(size=(2, D)))
        with pytest.raises(ShapeError):
            mutator.delete_rows([0, 1, 2, 3])
        with pytest.raises(ShapeError):
            mutator.replace_key(9, rng.normal(size=D))
        session = running_server.cache.get(sid)
        assert session.n == 4
        np.testing.assert_array_equal(session.key, key)
        running_server.close_session(sid)

    def test_mutator_for_unknown_session_fails_fast(self, running_server):
        with pytest.raises(UnknownSessionError):
            running_server.mutator("ghost")


class TestMutationCacheAccounting:
    def _manager_server(self):
        return AttentionServer(_server_config(cache_capacity_bytes=None))

    def test_mutation_preserves_prepared_entry_and_stats(self):
        """In-place mutation must not evict: no new cache miss, and the
        backend's accumulated selection stats carry over."""
        rng = np.random.default_rng(0)
        server = self._manager_server()
        server.register_session(
            "a", rng.normal(size=(16, D)), rng.normal(size=(16, D))
        )
        with server:
            for _ in range(3):
                server.attend("a", rng.normal(size=D))
            assert server.cache.session_stats("a").calls == 3
            misses_before = server.cache.stats.misses
            server.mutator("a").append_rows(
                rng.normal(size=(4, D)), rng.normal(size=(4, D))
            )
            server.attend("a", rng.normal(size=D))
            assert server.cache.stats.misses == misses_before  # no re-prepare
            assert server.cache.session_stats("a").calls == 4

    def test_mutation_reaccounts_prepared_bytes(self):
        rng = np.random.default_rng(1)
        server = self._manager_server()
        cache = server.cache
        server.register_session(
            "a", rng.normal(size=(16, D)), rng.normal(size=(16, D))
        )
        cache.release(cache.checkout("a"))
        assert cache.bytes_in_use == 3 * 16 * D * 8
        server.mutate_session(
            "a",
            AppendRowsMutation(rng.normal(size=(8, D)), rng.normal(size=(8, D))),
        )
        assert cache.bytes_in_use == 3 * 24 * D * 8  # grown in place
        server.mutate_session("a", DeleteRowsMutation(tuple(range(20))))
        assert cache.bytes_in_use == 3 * 4 * D * 8  # shrunk in place
        server.mutate_session(
            "a", ReplaceKeyMutation(0, rng.normal(size=D))
        )
        assert cache.bytes_in_use == 3 * 4 * D * 8
        # The invariant the accounting satellite pins down: bytes in
        # use always equal the sum over live entries.
        assert cache.bytes_in_use == sum(
            e.nbytes for e in cache._entries.values()
        )

    def test_growth_mutation_can_trigger_eviction(self):
        """A mutation that grows a session past capacity evicts LRU
        peers, exactly like an oversized registration would."""
        rng = np.random.default_rng(2)
        per_entry = 3 * 16 * D * 8
        server = AttentionServer(
            _server_config(cache_capacity_bytes=2 * per_entry)
        )
        cache = server.cache
        for sid in ("a", "b"):
            server.register_session(
                sid, rng.normal(size=(16, D)), rng.normal(size=(16, D))
            )
            cache.release(cache.checkout(sid))
        assert sorted(cache.cached_session_ids) == ["a", "b"]
        server.mutate_session(
            "b",
            AppendRowsMutation(
                rng.normal(size=(20, D)), rng.normal(size=(20, D))
            ),
        )
        assert cache.cached_session_ids == ["b"]  # a evicted by b's growth
        assert cache.stats.evictions == 1
        assert cache.bytes_in_use == 3 * 36 * D * 8


class TestMutationRacingColdPrepare:
    def test_mutation_during_first_checkout_is_not_lost(self):
        """A mutation landing while the session's first (cold) prepare
        is in flight must wait for the install and splice it — never
        let pre-mutation prepared state (and its byte count) be cached
        as current."""
        from repro.core.backends import ApproximateBackend as RealBackend
        from repro.serve.sessions import KeyCacheManager

        rng = np.random.default_rng(0)
        gate = threading.Event()
        started = threading.Event()

        class SlowPrepareBackend(RealBackend):
            def prepare(self, key):
                started.set()
                gate.wait(10.0)
                super().prepare(key)

        manager = KeyCacheManager(
            lambda: SlowPrepareBackend(conservative(), engine="vectorized"),
            capacity_bytes=None,
        )
        key = rng.normal(size=(16, D))
        value = rng.normal(size=(16, D))
        manager.register("a", key, value)
        entries = []
        checkout = threading.Thread(
            target=lambda: entries.append(manager.checkout("a"))
        )
        checkout.start()
        assert started.wait(10.0)  # prepare(old key) is now in flight

        mutation = AppendRowsMutation(
            rng.normal(size=(4, D)), rng.normal(size=(4, D))
        )
        mutated = threading.Thread(
            target=lambda: manager.mutate("a", mutation)
        )
        mutated.start()
        mutated.join(0.2)
        assert mutated.is_alive()  # blocked behind the in-flight prepare
        gate.set()
        checkout.join(10.0)
        mutated.join(10.0)
        assert not mutated.is_alive()
        entry = entries[0]
        session = manager.get("a")
        assert session.n == 20
        # The cached entry reflects the mutation: spliced prepared
        # state over the final key, re-accounted bytes.
        assert entry.nbytes == 3 * 20 * D * 8
        assert manager.bytes_in_use == 3 * 20 * D * 8
        np.testing.assert_array_equal(
            entry.backend.export_artifact().view().key, session.key
        )
        manager.release(entry)


class TestClusterMutationConsistency:
    def test_rebalance_ships_mutated_memory(self):
        """A session moved by add_shard arrives with every mutation
        applied — its new shard serves bit-identical outputs."""
        rng = np.random.default_rng(0)
        cluster = ShardedAttentionServer(
            ClusterConfig(num_shards=2, shard=_server_config())
        )
        memories = {}
        with cluster:
            for i in range(8):
                sid = f"reb-{i}"
                key = _tie_heavy(rng, (6, D))
                value = rng.normal(size=(6, D))
                cluster.register_session(sid, key, value)
                key_rows = _tie_heavy(rng, (2, D))
                value_rows = rng.normal(size=(2, D))
                cluster.mutator(sid).append_rows(key_rows, value_rows)
                memories[sid] = (
                    np.concatenate([key, key_rows]),
                    np.concatenate([value, value_rows]),
                )
            _, moved = cluster.add_shard()
            for sid, (key, value) in memories.items():
                _assert_served_matches_fresh(cluster, sid, key, value, 42)
            # Mutations issued after the move land on the new home.
            for sid in moved:
                key, value = memories[sid]
                cluster.mutator(sid).delete_rows([0])
                _assert_served_matches_fresh(
                    cluster, sid, key[1:], value[1:], 43
                )

    def test_mutations_during_rebalance_stay_consistent(self):
        """Routing while a rebalance is in flight against a mutated
        session: concurrent mutators + attends + add/remove_shard never
        lose a mutation or serve a stale copy."""
        rng = np.random.default_rng(1)
        cluster = ShardedAttentionServer(
            ClusterConfig(num_shards=2, shard=_server_config())
        )
        sids = [f"flux-{i}" for i in range(6)]
        state = {}
        for sid in sids:
            key = _tie_heavy(rng, (4, D))
            value = rng.normal(size=(4, D))
            cluster.register_session(sid, key, value)
            state[sid] = (key, value)
        errors = []
        state_lock = threading.Lock()

        def mutate_and_attend(sid, seed):
            thread_rng = np.random.default_rng(seed)
            try:
                mutator = cluster.mutator(sid)
                for _ in range(6):
                    key_rows = _tie_heavy(thread_rng, (1, D))
                    value_rows = thread_rng.normal(size=(1, D))
                    mutator.append_rows(key_rows, value_rows)
                    with state_lock:
                        key, value = state[sid]
                        state[sid] = (
                            np.concatenate([key, key_rows]),
                            np.concatenate([value, value_rows]),
                        )
                    out = cluster.attend(sid, thread_rng.normal(size=D))
                    assert out.shape == (D,)
            except Exception as exc:
                errors.append(exc)

        with cluster:
            threads = [
                threading.Thread(target=mutate_and_attend, args=(sid, 10 + i))
                for i, sid in enumerate(sids)
            ]
            for thread in threads:
                thread.start()
            new_shard, _ = cluster.add_shard()
            cluster.remove_shard(new_shard)
            for thread in threads:
                thread.join(60.0)
            assert errors == []
            # Quiesced: every session now serves its fully mutated
            # memory, bit-identical to a fresh prepare.
            for sid in sids:
                key, value = state[sid]
                assert cluster.cache.get(sid).n == key.shape[0]
                _assert_served_matches_fresh(cluster, sid, key, value, 99)

    def test_spawned_shard_applies_mutations(self, spawn_cluster):
        rng = np.random.default_rng(2)
        sid = "spawn-direct"
        key = _tie_heavy(rng, (5, D))
        value = rng.normal(size=(5, D))
        spawn_cluster.register_session(sid, key, value)
        mutator = spawn_cluster.mutator(sid)
        mutator.replace_key(2, _tie_heavy(rng, D) * 1.0, rng.normal(size=D))
        session = spawn_cluster.cache.get(sid)
        _assert_served_matches_fresh(
            spawn_cluster, sid, session.key, session.value, 7
        )
        spawn_cluster.close_session(sid)


class TestNonFiniteKeys:
    """A NaN has no place in a sorted column: registration, append and
    replace refuse it with a typed invalid-input error."""

    def test_register_append_and_replace_refuse_nan(self, running_server):
        rng = np.random.default_rng(11)
        sid = "non-finite"
        key, value = _tie_heavy(rng, (6, D)), rng.normal(size=(6, D))
        bad = key.copy()
        bad[2, 3] = np.nan
        with pytest.raises(InvalidInputError):
            running_server.register_session(sid, bad, value)
        running_server.register_session(sid, key, value)
        mutator = running_server.mutator(sid)
        nan_row = _tie_heavy(rng, (1, D))
        nan_row[0, 0] = np.nan
        with pytest.raises(InvalidInputError):
            mutator.append_rows(nan_row, rng.normal(size=(1, D)))
        with pytest.raises(InvalidInputError):
            mutator.replace_key(1, nan_row[0])
        np.testing.assert_array_equal(running_server.cache.get(sid).key, key)
        _assert_served_matches_fresh(running_server, sid, key, value, 12)
        running_server.close_session(sid)


class TestServingPathTakesNoFingerprint:
    def test_appends_and_attends_take_no_fingerprint(self, monkeypatch):
        """After registration and a first attend, one-row appends each
        followed by an attend never fingerprint the key: the prepared
        state holds the session's own read-only key view, so every key
        guard passes by identity."""
        rng = np.random.default_rng(13)
        key, value = _tie_heavy(rng, (16, D)), rng.normal(size=(16, D))
        with AttentionServer(_server_config()) as server:
            server.register_session("s", key, value)
            server.attend("s", rng.normal(size=D))
            calls = []
            fingerprint = KeyFingerprint.of.__func__

            def counted(cls, array):
                calls.append(np.shape(array))
                return fingerprint(cls, array)

            monkeypatch.setattr(KeyFingerprint, "of", classmethod(counted))
            mutator = server.mutator("s")
            for _ in range(50):
                key_row = _tie_heavy(rng, (1, D))
                value_row = rng.normal(size=(1, D))
                mutator.append_rows(key_row, value_row)
                key = np.concatenate([key, key_row])
                value = np.concatenate([value, value_row])
                server.attend("s", rng.normal(size=D))
            assert calls == []
            monkeypatch.undo()
            _assert_served_matches_fresh(server, "s", key, value, 14)


_GROW_STEPS = st.lists(
    st.sampled_from(["append", "append", "append", "block", "delete", "replace"]),
    max_size=6,
)


def _planes(artifact):
    pre = artifact.view()
    return (pre.sorted_values, pre.row_ids, pre.key, artifact.value_view())


class TestGrowOnlyMemory:
    """Session memory grows in place past every published view; the
    property holds across capacity doublings, deletes and replaces,
    from a registration or from an adopted heap or mmap artifact."""

    @given(
        seed=st.integers(0, 2**16),
        start=st.sampled_from(["register", "heap", "mmap"]),
        prefix=_GROW_STEPS,
        suffix=_GROW_STEPS,
    )
    @settings(max_examples=40, deadline=None)
    def test_mutation_sequences_keep_every_snapshot(
        self, seed, start, prefix, suffix
    ):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        memory = [_tie_heavy(rng, (n, D)), rng.normal(size=(n, D))]
        manager = KeyCacheManager(
            lambda: ApproximateBackend(conservative(), engine="vectorized"),
            capacity_bytes=None,
        )
        with tempfile.TemporaryDirectory(prefix="repro-grow-") as tmp:
            adopted = mapped = None
            if start == "register":
                manager.register("s", *memory)
                manager.release(manager.checkout("s"))
            else:
                packer = ApproximateBackend(conservative(), engine="vectorized")
                packer.prepare(memory[0])
                artifact = packer.export_artifact(
                    memory[1],
                    storage=start,
                    path=os.path.join(tmp, "s.art") if start == "mmap" else None,
                )
                # Views of the artifact's storage outlive the handle,
                # which the cache closes at the first mutation.
                mapped = _planes(artifact)
                adopted = [plane.copy() for plane in mapped]
                manager.register_prepared(
                    "s", artifact, KeyFingerprint.of(memory[0])
                )

            def step(op):
                key, value = memory
                n = key.shape[0]
                if op in ("append", "block"):
                    k = 1 if op == "append" else int(rng.integers(2, 5))
                    key_rows = _tie_heavy(rng, (k, D))
                    value_rows = rng.normal(size=(k, D))
                    mutation = AppendRowsMutation(key_rows, value_rows)
                elif op == "delete" and n > 1:
                    rows = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
                    mutation = DeleteRowsMutation(tuple(int(r) for r in rows))
                else:
                    row = int(rng.integers(n))
                    mutation = ReplaceKeyMutation(
                        row, _tie_heavy(rng, D), rng.normal(size=D)
                    )
                memory[:] = mutation.apply(key, value)
                snapshot = manager.get("s").memory
                copies = [array.copy() for array in snapshot]
                manager.mutate("s", mutation)
                for array, copy in zip(snapshot, copies):
                    np.testing.assert_array_equal(array, copy)
                session = manager.get("s")
                np.testing.assert_array_equal(session.key, memory[0])
                np.testing.assert_array_equal(session.value, memory[1])
                entry = manager.checkout("s")
                try:
                    pre = entry.backend._attention.preprocessed
                    fresh = PreprocessedKey.build(memory[0])
                    np.testing.assert_array_equal(
                        pre.sorted_values, fresh.sorted_values
                    )
                    np.testing.assert_array_equal(pre.row_ids, fresh.row_ids)
                    assert pre.key is session.key  # one key array
                    if adopted is not None:
                        for plane, original in zip(mapped, adopted):
                            np.testing.assert_array_equal(plane, original)
                finally:
                    manager.release(entry)

            for op in prefix:
                step(op)
            # Enough one-row appends to fill whatever storage the prefix
            # left and overflow it: at least one capacity doubling.
            for _ in range(memory[0].shape[0] + 3):
                step("append")
            for op in suffix:
                step(op)
            manager.close("s")

