"""Fault-tolerance tests: replication, failure detection, failover.

Thread-mode tests drive every failure path deterministically through
the :class:`~repro.serve.FaultInjector` seam (no real processes die, no
wall-clock heartbeats — the monitor's ``probe_once`` is called by
hand); one spawn-mode regression covers the real child-death path of
:class:`~repro.serve.ProcessShard`.  The load-bearing claims:

* writes fan out to the session's R preference shards, reads come from
  the primary;
* a dead shard loses **no requests and no session state** — survivors
  promote, redundancy is rebuilt by seeding new replicas from the
  cluster's own session record, and the answers stay bit-identical
  (deterministic backends + the splice == fresh-build property);
* only :class:`~repro.serve.ShardUnavailableError` is retried; a fatal
  :class:`~repro.serve.ShardError` propagates without burning replicas;
* a SIGKILLed child resolves (never leaks) its pending futures.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.serve import (
    AppendRowsMutation,
    AttendOp,
    AttentionServer,
    BatchPolicy,
    ClusterConfig,
    DeleteRowsMutation,
    HeartbeatMonitor,
    ProcessShard,
    RegisterSessionOp,
    ReplaceKeyMutation,
    ServerConfig,
    ShardError,
    ShardUnavailableError,
    ShardedAttentionServer,
)

N, D = 48, 12


def _cluster(shards=3, replication=2, spawn=False, **kw):
    return ShardedAttentionServer(
        ClusterConfig(
            num_shards=shards,
            replication=replication,
            spawn=spawn,
            failover_backoff_seconds=0.0,
            shard=ServerConfig(
                batch=BatchPolicy(max_batch_size=8, max_wait_seconds=0.002),
                num_workers=1,
            ),
            **kw,
        )
    )


def _memory(seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(N, D)), rng.normal(size=(N, D))


def _register_many(cluster, count):
    memories = {}
    for i in range(count):
        sid = f"s{i}"
        key, value = _memory(i)
        memories[sid] = (key, value)
        cluster.register_session(sid, key, value)
    return memories


class TestReplication:
    def test_writes_land_on_r_distinct_shards(self):
        cluster = _cluster(shards=3, replication=2)
        _register_many(cluster, 10)
        for sid in cluster.session_ids:
            replicas = cluster.session_replicas(sid)
            assert len(replicas) == 2
            assert len(set(replicas)) == 2
            assert replicas == cluster.router.preference_list(sid, 2)
            # Every replica shard really holds the session (thread mode
            # lets us look inside).
            for shard_id in replicas:
                shard = cluster._shards[shard_id]
                assert sid in shard.server.cache.session_ids

    def test_primary_is_the_route_and_replication_one_is_single_homed(self):
        cluster = _cluster(shards=3, replication=1)
        _register_many(cluster, 8)
        for sid in cluster.session_ids:
            assert cluster.session_replicas(sid) == [
                cluster.router.route(sid)
            ]

    def test_replication_beyond_live_shards_degrades_to_all(self):
        cluster = _cluster(shards=2, replication=5)
        _register_many(cluster, 4)
        for sid in cluster.session_ids:
            assert sorted(cluster.session_replicas(sid)) == [
                "shard-0",
                "shard-1",
            ]

    def test_mutations_fan_out_to_every_replica(self):
        cluster = _cluster(shards=3, replication=2)
        key, value = _memory(0)
        cluster.register_session("s", key, value)
        rng = np.random.default_rng(99)
        rows_k = rng.normal(size=(4, D))
        rows_v = rng.normal(size=(4, D))
        cluster.mutate_session("s", AppendRowsMutation(rows_k, rows_v))
        expected = np.concatenate([key, rows_k])
        for shard_id in cluster.session_replicas("s"):
            held = cluster._shards[shard_id].server.cache.get("s")
            np.testing.assert_array_equal(held.key, expected)

    def test_bad_replication_config_rejected(self):
        with pytest.raises(ConfigError):
            ClusterConfig(replication=0)
        with pytest.raises(ConfigError):
            ClusterConfig(failover_attempts=0)


class TestInjectedFailover:
    def test_primary_death_is_lossless_and_bit_identical(self):
        cluster = _cluster(shards=3, replication=2)
        memories = _register_many(cluster, 10)
        rng = np.random.default_rng(7)
        queries = {sid: rng.normal(size=D) for sid in memories}
        with cluster:
            before = {
                sid: cluster.attend(sid, queries[sid]) for sid in memories
            }
            victim = cluster.session_shard("s0")
            cluster.kill_shard(victim)
            # Every session still answers — s0's primary died, the rest
            # ride along — and every answer is bit-identical.
            after = {
                sid: cluster.attend(sid, queries[sid]) for sid in memories
            }
        for sid in memories:
            np.testing.assert_array_equal(after[sid], before[sid])
        assert victim not in cluster.shard_ids
        assert cluster.session_shard("s0") != victim
        snap = cluster.snapshot()["cluster"]
        assert snap["failover"]["failovers"] == 1
        assert snap["failover"]["down_shards"] == [victim]
        assert snap["failover"]["replica_retries"] >= 1
        assert snap["liveness"][victim] is False
        assert all(
            snap["liveness"][s] for s in snap["liveness"] if s != victim
        )
        assert cluster.down_shards == {victim: "request dispatch failed"}

    def test_failover_promotes_the_surviving_replica_in_order(self):
        cluster = _cluster(shards=3, replication=2)
        _register_many(cluster, 10)
        with cluster:
            sid = cluster.session_ids[0]
            primary, secondary = cluster.session_replicas(sid)
            cluster.fault_injector.kill(primary)
            cluster.report_shard_failure(primary, reason="test")
            assert cluster.session_shard(sid) == secondary
            # Redundancy rebuilt: back to two live replicas.
            assert len(cluster.session_replicas(sid)) == 2

    def test_mutated_session_survives_primary_death_bit_identically(self):
        """Kill the primary *after* a mutation: the promoted replica
        (which got the fan-out) and the re-seeded replica must both
        serve the mutated memory — compared against a fresh cluster
        registered directly with the final memory."""
        cluster = _cluster(shards=3, replication=2)
        key, value = _memory(3)
        rng = np.random.default_rng(11)
        rows_k = rng.normal(size=(6, D))
        rows_v = rng.normal(size=(6, D))
        query = rng.normal(size=D)
        with cluster:
            cluster.register_session("s", key, value)
            cluster.mutate_session("s", AppendRowsMutation(rows_k, rows_v))
            cluster.kill_shard(cluster.session_shard("s"))
            survived = cluster.attend("s", query)
            # Force a read off the re-seeded copy too: kill the
            # promoted primary as well (failover rebuilt redundancy
            # from the session record, so a second death is still
            # lossless).
            cluster.kill_shard(cluster.session_shard("s"))
            replayed = cluster.attend("s", query)
        fresh = _cluster(shards=3, replication=1)
        with fresh:
            fresh.register_session(
                "s",
                np.concatenate([key, rows_k]),
                np.concatenate([value, rows_v]),
            )
            expected = fresh.attend("s", query)
        np.testing.assert_array_equal(survived, expected)
        np.testing.assert_array_equal(replayed, expected)

    def test_replication_one_recovers_by_replay_alone(self):
        """Even without redundancy, a shard death is lossless: the
        session is re-seeded on a survivor from the cluster's record."""
        cluster = _cluster(shards=3, replication=1)
        memories = _register_many(cluster, 10)
        rng = np.random.default_rng(13)
        query = rng.normal(size=D)
        with cluster:
            before = {sid: cluster.attend(sid, query) for sid in memories}
            victim = cluster.session_shard("s0")
            cluster.kill_shard(victim)
            after = {sid: cluster.attend(sid, query) for sid in memories}
        for sid in memories:
            np.testing.assert_array_equal(after[sid], before[sid])
        snap = cluster.snapshot()["cluster"]
        assert snap["failover"]["replayed_sessions"] >= 1

    def test_killing_every_shard_fails_loudly(self):
        cluster = _cluster(shards=2, replication=2)
        cluster.register_session("s", *_memory(0))
        with cluster:
            for shard_id in list(cluster.shard_ids):
                cluster.fault_injector.kill(shard_id)
            with pytest.raises(ShardUnavailableError):
                cluster.attend("s", np.zeros(D))
        assert cluster.shard_ids == []

    def test_registration_on_a_dead_cluster_registers_nothing(self):
        """With every shard dead the fan-out restarts until no live
        shard is left, then fails: it never reports success with zero
        replicas."""
        cluster = _cluster(shards=3, replication=2)
        with cluster:
            for shard_id in cluster.shard_ids:
                cluster.fault_injector.kill(shard_id)
            with pytest.raises(ShardUnavailableError):
                cluster.register_session("s", *_memory(0))
            assert cluster.session_ids == []

    def test_re_registration_past_a_dead_replica_seeds_once(self):
        """Re-registering a session whose secondary died: the inline
        failover must not re-seed the memory being replaced, and the
        restarted fan-out must not re-seed shards it already reached —
        every seed carries the new rows, each shard at most once."""
        cluster = _cluster(shards=3, replication=2)
        cluster.register_session("s", *_memory(0))
        rng = np.random.default_rng(19)
        key = rng.normal(size=(64, D))
        value = rng.normal(size=(64, D))
        query = rng.normal(size=D)
        seeds = []
        seed = cluster._seed_session

        def recording_seed(handle, session):
            shard_id = next(
                s for s, h in cluster._shards.items() if h is handle
            )
            seeds.append((shard_id, session.memory[0].shape[0]))
            return seed(handle, session)

        cluster._seed_session = recording_seed
        with cluster:
            _, secondary = cluster.session_replicas("s")
            cluster.fault_injector.kill(secondary)
            cluster.register_session("s", key, value)
            got = cluster.attend("s", query)
            assert secondary not in cluster.shard_ids
            assert len(cluster.session_replicas("s")) == 2
        assert [rows for _, rows in seeds] == [64] * len(seeds)
        shards = [shard_id for shard_id, _ in seeds]
        assert len(shards) == len(set(shards)) == 3
        snap = cluster.snapshot()["cluster"]
        assert snap["failover"]["replayed_sessions"] == 0
        fresh = AttentionServer(cluster.config.shard)
        fresh.register_session("s", key, value)
        with fresh:
            np.testing.assert_array_equal(got, fresh.attend("s", query))

    def test_fatal_shard_error_is_not_retried(self):
        """A backend-poisoned request fails identically everywhere;
        retrying it would burn healthy replicas.  Plain ShardError must
        propagate with no failover and no retry counted."""
        cluster = _cluster(shards=3, replication=2)
        cluster.register_session("s", *_memory(0))
        with cluster:
            primary = cluster.session_shard("s")
            handle = cluster._shards[primary]

            def poisoned(*args, **kwargs):
                raise ShardError("backend rejected the request")

            handle.submit_attend = poisoned
            with pytest.raises(ShardError) as excinfo:
                cluster.attend("s", np.zeros(D))
            assert not isinstance(excinfo.value, ShardUnavailableError)
            assert primary in cluster.shard_ids  # no failover
        snap = cluster.snapshot()["cluster"]
        assert snap["failover"]["failovers"] == 0
        assert snap["failover"]["replica_retries"] == 0

    def test_register_and_mutate_survive_replica_death_mid_fanout(self):
        cluster = _cluster(shards=3, replication=2)
        memories = _register_many(cluster, 6)
        with cluster:
            sid = cluster.session_ids[0]
            _, secondary = cluster.session_replicas(sid)
            cluster.fault_injector.kill(secondary)
            # The dying secondary is detected by the mutation fan-out
            # itself; the mutation must still apply everywhere.
            rng = np.random.default_rng(17)
            mutation = AppendRowsMutation(
                rng.normal(size=(2, D)), rng.normal(size=(2, D))
            )
            cluster.mutate_session(sid, mutation)
            assert secondary not in cluster.shard_ids
            assert len(cluster.session_replicas(sid)) == 2
            # And a brand-new registration no longer touches the corpse.
            key, value = _memory(50)
            cluster.register_session("fresh", key, value)
            assert secondary not in cluster.session_replicas("fresh")
        parent = cluster.cache.get(sid)
        for shard_id in cluster.session_replicas(sid):
            held = cluster._shards[shard_id].server.cache.get(sid)
            np.testing.assert_array_equal(held.key, parent.key)
            np.testing.assert_array_equal(held.value, parent.value)
        assert len(memories) + 1 == len(cluster.session_ids)

    def test_report_shard_failure_is_idempotent(self):
        cluster = _cluster(shards=3, replication=2)
        _register_many(cluster, 4)
        with cluster:
            assert cluster.report_shard_failure("shard-0", reason="test")
            assert not cluster.report_shard_failure("shard-0", reason="again")
        snap = cluster.snapshot()["cluster"]
        assert snap["failover"]["failovers"] == 1

    def test_idle_cluster_reports_clean_failover_counters(self):
        cluster = _cluster(shards=3, replication=2)
        _register_many(cluster, 4)
        snap = cluster.snapshot()["cluster"]
        assert snap["replication"] == 2
        assert snap["failover"] == {
            "failovers": 0,
            "down_shards": [],
            "replica_retries": 0,
            "replayed_sessions": 0,
        }
        assert snap["liveness"] == {s: True for s in cluster.shard_ids}
        # Primary-only session accounting still sums to the total.
        assert sum(snap["sessions_per_shard"].values()) == snap["sessions"]

    def test_injected_kill_keeps_the_dead_shards_telemetry(self):
        """A thread shard 'crashed' by the injector still banks its
        counters: the cluster's completed total must not shrink."""
        cluster = _cluster(shards=3, replication=2)
        _register_many(cluster, 6)
        rng = np.random.default_rng(23)
        with cluster:
            for sid in cluster.session_ids:
                cluster.attend(sid, rng.normal(size=D))
            completed_before = cluster.snapshot()["cluster"]["completed"]
            victim = cluster.shard_ids[0]
            cluster.kill_shard(victim)
            cluster.report_shard_failure(victim, reason="test")
            completed_after = cluster.snapshot()["cluster"]["completed"]
        assert completed_after >= completed_before

    def test_session_stats_fails_over_to_a_surviving_replica(self):
        """The telemetry read path retries like the request path: a
        dead, not-yet-reported primary must not leak
        ShardUnavailableError to a session_stats caller (the exact
        race evaluate_served hits when a shard dies between the last
        answer and the stats merge).  Spawn mode: thread shards
        deliberately keep answering telemetry reads after an injected
        kill (the counters must stay bankable), so only a real child
        death exercises this path."""
        cluster = _cluster(shards=3, replication=2, spawn=True)
        _register_many(cluster, 4)
        rng = np.random.default_rng(31)
        with cluster:
            sid = cluster.session_ids[0]
            for _ in range(3):
                cluster.attend(sid, rng.normal(size=D))
            primary = cluster.session_shard(sid)
            cluster.kill_shard(primary)  # SIGKILL, not yet reported
            stats = cluster.session_stats(sid)
            assert stats is not None
            assert primary in cluster.down_shards
            assert cluster.session_shard(sid) != primary
            # The cache view rides the same retry.
            cluster.cache.session_stats(sid)


# Mutation sequences as (kind, payload seed) pairs; each mutation is
# built against the row count the session has when it applies.
mutation_steps = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2**16)),
    min_size=1,
    max_size=6,
)


def _mutation(kind, rng, n):
    """An append, delete or replace on a session of ``n`` rows, with
    tie-heavy key rows (the adversarial case for splice tie order)."""
    if kind == 0:
        k = int(rng.integers(1, 4))
        return AppendRowsMutation(
            rng.integers(-3, 4, size=(k, D)).astype(np.float64),
            rng.normal(size=(k, D)),
        )
    if kind == 1:
        rows = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
        return DeleteRowsMutation(tuple(int(row) for row in rows))
    return ReplaceKeyMutation(
        int(rng.integers(n)),
        rng.integers(-3, 4, size=D).astype(np.float64),
        rng.normal(size=D),
    )


class TestReseededReplicas:
    @given(seed=st.integers(0, 2**16), steps=mutation_steps)
    @settings(max_examples=25, deadline=None)
    def test_reseeded_replica_serves_the_final_memory(self, seed, steps):
        """Mixed mutations, then two primary deaths: the read lands on
        a replica seeded from the parent's session record and equals a
        fresh single server registered with the final memory, bit for
        bit.  Every live replica holds exactly the parent's memory."""
        key, value = _memory(seed)
        cluster = _cluster(shards=3, replication=2)
        with cluster:
            cluster.register_session("s", key, value)
            for kind, payload in steps:
                mutation = _mutation(
                    kind, np.random.default_rng(payload), key.shape[0]
                )
                cluster.mutate_session("s", mutation)
                key, value = mutation.apply(key, value)
            parent = cluster.cache.get("s")
            np.testing.assert_array_equal(parent.key, key)
            np.testing.assert_array_equal(parent.value, value)
            original = cluster.session_replicas("s")
            for _ in range(2):
                victim = cluster.session_shard("s")
                cluster.kill_shard(victim)
                cluster.report_shard_failure(victim, reason="test")
                for shard_id in cluster.session_replicas("s"):
                    held = cluster._shards[shard_id].server.cache.get("s")
                    np.testing.assert_array_equal(held.key, parent.key)
                    np.testing.assert_array_equal(held.value, parent.value)
            assert cluster.session_shard("s") not in original
            queries = np.random.default_rng(seed + 1).normal(size=(3, D))
            served = [cluster.attend("s", q) for q in queries]
        with AttentionServer(cluster.config.shard) as fresh:
            fresh.register_session("s", key, value)
            expected = [fresh.attend("s", q) for q in queries]
        np.testing.assert_array_equal(served, expected)


class TestHeartbeatMonitor:
    def test_detects_after_misses_and_fails_over_once(self):
        cluster = _cluster(shards=3, replication=2)
        _register_many(cluster, 6)
        with cluster:
            monitor = HeartbeatMonitor(cluster, misses=3)
            cluster.fault_injector.kill("shard-1")
            assert monitor.probe_once() == []
            assert monitor.probe_once() == []
            events = monitor.probe_once()  # third consecutive miss
            assert [e.shard_id for e in events] == ["shard-1"]
            assert events[0].missed_beats == 3
            assert "shard-1" not in cluster.shard_ids
            # Already reported: no duplicate declarations.
            assert monitor.probe_once() == []
        assert cluster.down_shards == {"shard-1": "3 missed heartbeats"}

    def test_one_slow_or_dropped_beat_never_fails_over(self):
        """Detection is conservative: misses must be *consecutive* — a
        recovered beat resets the counter."""
        cluster = _cluster(shards=3, replication=2)
        with cluster:
            monitor = HeartbeatMonitor(cluster, misses=3)
            for _ in range(2):
                cluster.fault_injector.drop_heartbeats("shard-0")
                assert monitor.probe_once() == []
                assert monitor.probe_once() == []
                cluster.fault_injector.restore("shard-0")
                assert monitor.probe_once() == []  # counter reset
            assert cluster.shard_ids == ["shard-0", "shard-1", "shard-2"]
            assert monitor.events == []

    def test_false_positive_failover_is_still_lossless(self):
        """A healthy shard partitioned from the monitor (heartbeats
        dropped, RPCs fine) gets failed over — wrongly, but safely:
        every session keeps serving bit-identically."""
        cluster = _cluster(shards=3, replication=2)
        memories = _register_many(cluster, 8)
        rng = np.random.default_rng(29)
        query = rng.normal(size=D)
        with cluster:
            before = {sid: cluster.attend(sid, query) for sid in memories}
            monitor = HeartbeatMonitor(cluster, misses=2)
            cluster.fault_injector.drop_heartbeats("shard-2")
            monitor.probe_once()
            events = monitor.probe_once()
            assert [e.shard_id for e in events] == ["shard-2"]
            after = {sid: cluster.attend(sid, query) for sid in memories}
        for sid in memories:
            np.testing.assert_array_equal(after[sid], before[sid])
        snap = cluster.snapshot()["cluster"]
        assert snap["failover"]["failovers"] == 1
        # The healthy-but-partitioned shard's counters were banked in
        # full (thread mode keeps them reachable).
        assert snap["completed"] >= len(memories)

    def test_monitor_thread_lifecycle(self):
        cluster = _cluster(shards=2, replication=2)
        with cluster:
            with cluster.monitor() as monitor:
                assert monitor.running
                assert monitor.interval_seconds == (
                    cluster.config.heartbeat_interval_seconds
                )
                assert monitor.misses == cluster.config.heartbeat_misses
            assert not monitor.running

    def test_bad_monitor_parameters_rejected(self):
        cluster = _cluster(shards=2)
        with pytest.raises(ConfigError):
            HeartbeatMonitor(cluster, interval_seconds=0)
        with pytest.raises(ConfigError):
            HeartbeatMonitor(cluster, misses=0)

    def test_ping_unknown_shard_is_dead_not_an_error(self):
        cluster = _cluster(shards=2)
        assert cluster.ping_shard("no-such-shard") is False
        with pytest.raises(ConfigError):
            cluster.kill_shard("no-such-shard")


class TestProcessShardCrash:
    """The spawn-mode regression: an abruptly killed child must resolve
    every pending parent-side future (no leaked hangs) and stop fast."""

    def test_sigkill_resolves_pending_futures_promptly(self):
        shard = ProcessShard(
            "crashy",
            ServerConfig(
                batch=BatchPolicy(max_batch_size=4, max_wait_seconds=0.05),
                num_workers=1,
            ),
            rpc_timeout=30.0,
        )
        key, value = _memory(0)
        shard.start()
        shard.call(RegisterSessionOp("s", key, value))
        rng = np.random.default_rng(43)
        futures = [
            shard.submit_attend(AttendOp("s", rng.normal(size=(1, D))))
            for _ in range(16)
        ]
        shard.kill()
        # Every future resolves quickly: a result (already answered) or
        # the retryable unavailable error — never a hang, never a
        # generic fatal ShardError.
        outcomes = []
        for future in futures:
            try:
                outcomes.append(future.result(timeout=10.0))
            except ShardUnavailableError:
                outcomes.append("unavailable")
        assert len(outcomes) == len(futures)
        # A post-mortem request fails immediately with the retryable
        # classification, and stop() returns without waiting out the
        # full RPC patience.
        with pytest.raises(ShardUnavailableError):
            shard.submit_attend(
                AttendOp("s", rng.normal(size=(1, D)))
            ).result(5.0)
        import time

        started = time.monotonic()
        shard.stop(timeout=2.0)
        assert time.monotonic() - started < 10.0

    def test_concurrent_requests_during_kill_all_resolve(self):
        shard = ProcessShard(
            "crashy2",
            ServerConfig(
                batch=BatchPolicy(max_batch_size=4, max_wait_seconds=0.02),
                num_workers=1,
            ),
            rpc_timeout=30.0,
        )
        key, value = _memory(1)
        shard.start()
        shard.call(RegisterSessionOp("s", key, value))
        rng = np.random.default_rng(47)
        errors = []
        done = []

        def client():
            q = rng.normal(size=(1, D))
            try:
                shard.submit_attend(AttendOp("s", q)).result(15.0)
                done.append(True)
            except ShardUnavailableError:
                done.append(False)
            except Exception as exc:  # noqa: BLE001 — the regression
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(8)]
        for t in threads:
            t.start()
        shard.kill()
        for t in threads:
            t.join(timeout=20.0)
        assert not any(t.is_alive() for t in threads), "a client hung"
        assert errors == []
        assert len(done) == 8
        shard.stop(timeout=2.0)
