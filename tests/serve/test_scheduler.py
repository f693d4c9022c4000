"""Scheduler dispatch: one kernel call per batch, at the tier's config.

Every batch a server dispatches, whether it holds one session or
several, is one ragged kernel call over per-session segments, and the
tier's config is passed per call, so one prepared key per session
serves every tier.  A segment whose session went away or changed width
while its batch was queued fails alone; the other segments are served
bit-identically to direct evaluation, and each request counts once.
Each batch records the queue depth at its claim, its own requests
included.
"""

import numpy as np
import pytest

from repro.core.backends import ApproximateBackend
from repro.core.config import TIERS, aggressive, conservative, exact
from repro.errors import ShapeError
from repro.serve import (
    AttentionServer,
    BatchPolicy,
    ServerConfig,
    UnknownSessionError,
)
from repro.serve import scheduler as scheduler_mod
from repro.serve import server as server_mod

D = 8

TIER_CONFIGS = {
    "exact": exact(),
    "conservative": conservative(),
    "aggressive": aggressive(),
}


def _queued_server():
    """One worker and no fill wait: requests queued before ``start``
    dispatch in deterministic groups."""
    return AttentionServer(
        ServerConfig(
            batch=BatchPolicy(max_batch_size=32, max_wait_seconds=0.0),
            num_workers=1,
        )
    )


def _memory(rng, n=16):
    return rng.normal(size=(n, D)), rng.normal(size=(n, D))


# ----------------------------------------------------------------------
# tier dispatch: one prepared key, one kernel call per batch
# ----------------------------------------------------------------------


class TestTierDispatch:
    def _serve_each_tier(self, server, seed):
        """Queue four queries per tier on one session; each tier
        dispatches as one batch.  Returns the memory, the queries and
        the stacked outputs per tier."""
        rng = np.random.default_rng(seed)
        key, value = _memory(rng, n=24)
        per_tier = {tier: rng.normal(size=(4, D)) for tier in TIERS}
        server.register_session("s", key, value)
        requests = {
            tier: [server.submit("s", q, tier=tier) for q in per_tier[tier]]
            for tier in TIERS
        }
        with server:
            outputs = {
                tier: np.stack([r.result(10.0) for r in requests[tier]])
                for tier in TIERS
            }
        return key, value, per_tier, outputs

    def test_each_tier_attends_at_its_config_bit_identically(self):
        """The server answers each tier bit-identically to a vectorized
        backend built at that tier's config — the exact tier
        included."""
        server = _queued_server()
        key, value, per_tier, outputs = self._serve_each_tier(server, 21)
        for tier in TIERS:
            direct = ApproximateBackend(TIER_CONFIGS[tier], engine="vectorized")
            direct.prepare(key)
            np.testing.assert_array_equal(
                outputs[tier], direct.attend_many(key, value, per_tier[tier])
            )

    def test_tiers_share_the_sessions_one_prepared_key(self, monkeypatch):
        """Serving every tier builds and prepares one backend for the
        session: no tier prepares its own, and the one cache miss is
        the only one."""
        prepared = []

        class CountingBackend(ApproximateBackend):
            def prepare(self, key):
                prepared.append(self)
                return super().prepare(key)

        monkeypatch.setattr(server_mod, "ApproximateBackend", CountingBackend)
        server = _queued_server()
        self._serve_each_tier(server, 21)
        assert prepared[0].engine == "vectorized"
        assert len(prepared) == 1
        assert server.cache.stats.misses == 1

    def test_every_batch_is_one_ragged_kernel_call(self, monkeypatch):
        """On a default server a one-session batch and a two-session
        batch each make exactly one ``attend_many_ragged`` call through
        the scheduler module, and no ``ApproximateBackend.attend_many``
        call."""
        calls = {"ragged": 0, "attend_many": 0}
        ragged = scheduler_mod.attend_many_ragged
        attend_many = ApproximateBackend.attend_many

        def counted_ragged(*args, **kwargs):
            calls["ragged"] += 1
            return ragged(*args, **kwargs)

        def counted_attend_many(self, *args, **kwargs):
            calls["attend_many"] += 1
            return attend_many(self, *args, **kwargs)

        monkeypatch.setattr(
            scheduler_mod, "attend_many_ragged", counted_ragged
        )
        monkeypatch.setattr(
            ApproximateBackend, "attend_many", counted_attend_many
        )
        rng = np.random.default_rng(23)
        for sessions in (["a"], ["a", "b"]):
            server = _queued_server()
            requests = []
            for sid in sessions:
                server.register_session(sid, *_memory(rng))
                requests += [
                    server.submit(sid, q) for q in rng.normal(size=(3, D))
                ]
            with server:
                for request in requests:
                    request.result(10.0)
            snap = server.snapshot()
            assert snap["batches"] == 1
            assert snap["fused"]["max_segments"] == len(sessions)
        assert calls == {"ragged": 2, "attend_many": 0}


# ----------------------------------------------------------------------
# isolation: a segment whose session changed under its batch fails alone
# ----------------------------------------------------------------------


class TestSegmentIsolation:
    def _queued_fused_batch(self):
        """Sessions ``a`` and ``b`` (n=16, d=8), two requests each,
        queued before a one-worker server starts: one fused batch."""
        server = _queued_server()
        rng = np.random.default_rng(29)
        memories = {sid: _memory(rng) for sid in "ab"}
        queries = {sid: rng.normal(size=(2, D)) for sid in memories}
        requests = {}
        for sid, (key, value) in memories.items():
            server.register_session(sid, key, value)
            requests[sid] = [server.submit(sid, q) for q in queries[sid]]
        return server, memories, queries, requests

    def _serve_expecting_b_to_fail(self, queued, error):
        server, memories, queries, requests = queued
        with server:
            rows = np.stack([r.result(10.0) for r in requests["a"]])
            for request in requests["b"]:
                with pytest.raises(error):
                    request.result(10.0)
        key, value = memories["a"]
        direct = ApproximateBackend(conservative(), engine="vectorized")
        direct.prepare(key)
        np.testing.assert_array_equal(
            rows, direct.attend_many(key, value, queries["a"])
        )
        snap = server.snapshot()
        assert snap["batches"] == 1
        assert snap["fused"]["max_segments"] == 2
        assert (snap["completed"], snap["failed"]) == (2, 2)
        assert snap["tiers"]["conservative"]["completed"] == 2
        assert snap["tiers"]["conservative"]["failed"] == 2

    def test_closed_session_fails_alone(self):
        """``b`` closed while its batch is queued: its requests fail
        with ``UnknownSessionError``, ``a``'s are served bit-identically
        to direct evaluation, and each request and the batch count
        once."""
        queued = self._queued_fused_batch()
        queued[0].close_session("b")
        self._serve_expecting_b_to_fail(queued, UnknownSessionError)

    def test_re_registered_width_fails_alone(self):
        """``b`` re-registered at d=12 while its d=8 queries are
        queued: only ``b``'s segment fails, with ``ShapeError``."""
        queued = self._queued_fused_batch()
        rng = np.random.default_rng(31)
        queued[0].register_session(
            "b", rng.normal(size=(16, 12)), rng.normal(size=(16, 12))
        )
        self._serve_expecting_b_to_fail(queued, ShapeError)

    def test_width_change_between_submits_fails_only_the_stale_request(self):
        """The batch key carries the query width: a request queued
        before its session was re-registered at another width fails
        with ``ShapeError``, while one queued after it is served from
        the new memory."""
        server = _queued_server()
        rng = np.random.default_rng(37)
        server.register_session("s", *_memory(rng))
        stale = server.submit("s", rng.normal(size=D))
        key, value = rng.normal(size=(16, 12)), rng.normal(size=(16, 12))
        server.register_session("s", key, value)
        query = rng.normal(size=12)
        fresh = server.submit("s", query)
        with server:
            row = fresh.result(10.0)
            with pytest.raises(ShapeError):
                stale.result(10.0)
        direct = ApproximateBackend(conservative(), engine="vectorized")
        direct.prepare(key)
        np.testing.assert_array_equal(
            row, direct.attend_many(key, value, query[None])[0]
        )


# ----------------------------------------------------------------------
# queue depth: taken at the claim, the batch's own requests included
# ----------------------------------------------------------------------


class TestQueueDepth:
    def test_depth_counts_the_queue_that_formed_each_batch(self):
        """24 requests queued on one session at ``max_batch_size=8``
        dispatch as three batches claimed at depths 24, 16 and 8."""
        server = AttentionServer(
            ServerConfig(
                batch=BatchPolicy(max_batch_size=8, max_wait_seconds=0.0),
                num_workers=1,
            )
        )
        rng = np.random.default_rng(41)
        server.register_session("s", *_memory(rng))
        requests = [server.submit("s", q) for q in rng.normal(size=(24, D))]
        with server:
            for request in requests:
                request.result(10.0)
        snap = server.snapshot()
        assert snap["batch_size_histogram"] == {"8": 3}
        assert snap["peak_queue_depth"] == 24
        assert snap["mean_queue_depth"] == 16.0
