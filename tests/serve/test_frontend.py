"""End-to-end tests of the network front end and its connection loop.

The acceptance bar: responses served over a localhost socket are
**bit-identical** to in-process ``attend_many`` — on a single server and
on a 2-shard spawn cluster, at every quality tier (the cluster reaches
its spawn shards through the same connection loop).  Around that:
out-of-order correlated responses, the typed-error taxonomy on the
wire, malformed-frame resilience (the connection loop survives
everything except an unsyncable stream), a peer that hangs up without
reading, and the graceful-drain contract of
:meth:`NetworkFrontend.stop` — a client blocked on a response during
shutdown receives a typed answer, never a dead socket.
"""

import asyncio
import contextlib
import gc
import logging
import socket
import threading
import time
from concurrent.futures import CancelledError, ThreadPoolExecutor, wait

import numpy as np
import pytest

from repro.core.artifacts import ArtifactBuffer
from repro.core.backends import KeyFingerprint
from repro.core.efficient_search import PreprocessedKey
from repro.errors import ConfigError
from repro.serve import (
    AsyncAttentionClient,
    AttentionClient,
    AttentionRequest,
    AttentionServer,
    AttentionService,
    BatchPolicy,
    ClusterConfig,
    NetworkFrontend,
    ServerClosedError,
    ServerConfig,
    ServerOverloadedError,
    ShardedAttentionServer,
    ShardUnavailableError,
    Tracer,
    UnknownSessionError,
)
from repro.serve import protocol
from repro.serve.client import parse_address
from repro.serve.frontend import Connection
from repro.serve.service import (
    AdoptSessionOp,
    AttendOp,
    PingOp,
    Pong,
    SessionStatsOp,
    TelemetryOp,
)

N, D = 40, 12
TIERS = ("exact", "conservative", "aggressive")


def _server(max_batch=4, wait=0.002, workers=2, **kw):
    return AttentionServer(
        ServerConfig(
            batch=BatchPolicy(
                max_batch_size=max_batch, max_wait_seconds=wait, **kw
            ),
            num_workers=workers,
        )
    )


def _memory(seed=0, n=N, d=D):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)), rng.normal(size=(n, d))


def _recv_frames(sock, count, timeout=10.0):
    """Collect ``count`` raw frames off one socket."""
    assembler = protocol.FrameAssembler()
    frames = []
    sock.settimeout(timeout)
    while len(frames) < count:
        data = sock.recv(1 << 16)
        if not data:
            break
        frames.extend(assembler.feed(data))
    return frames


@pytest.fixture
def served():
    """A started server behind a started frontend, plus one client."""
    with _server() as server:
        with NetworkFrontend(server) as frontend:
            with AttentionClient(frontend.address) as client:
                yield server, frontend, client


class TestBitIdentity:
    def test_single_server_all_tiers(self):
        """The five rows of each ``attend_many`` form exactly one batch —
        a cap of five and a fill wait far longer than their arrival
        spread — so the wire answer is bit-identical to the in-process
        one (a split batch changes the GEMM shapes and with them the
        roundoff)."""
        with _server(max_batch=5, wait=10.0, workers=1) as server:
            with NetworkFrontend(server) as frontend:
                with AttentionClient(frontend.address) as client:
                    key, value = _memory(3)
                    info = client.register_session("s", key, value)
                    assert (info.n, info.d, info.d_v) == (N, D, D)
                    queries = np.random.default_rng(4).normal(size=(5, D))
                    for tier in TIERS:
                        over_wire = client.attend_many("s", queries, tier=tier)
                        in_process = server.attend_many("s", queries, tier=tier)
                        assert over_wire.dtype == in_process.dtype
                        np.testing.assert_array_equal(over_wire, in_process)
            assert server.snapshot()["batch_size_histogram"] == {"5": 6}

    def test_single_query_submit_matches(self, served):
        server, _, client = served
        key, value = _memory(5)
        client.register_session("s", key, value)
        query = np.random.default_rng(6).normal(size=D)
        row = client.submit("s", query).result(10)
        assert row.shape == (D,)
        np.testing.assert_array_equal(row, server.attend("s", query))

    def test_two_shard_spawn_cluster_all_tiers(self):
        cluster = ShardedAttentionServer(
            ClusterConfig(
                num_shards=2,
                spawn=True,
                shard=ServerConfig(
                    batch=BatchPolicy(
                        max_batch_size=4, max_wait_seconds=0.002
                    ),
                    num_workers=1,
                ),
            )
        )
        with cluster:
            with NetworkFrontend(cluster) as frontend:
                with AttentionClient(frontend.address) as client:
                    rng = np.random.default_rng(7)
                    for sid in ("alpha", "beta", "gamma"):
                        key, value = _memory(hash(sid) % 100, n=24, d=8)
                        client.register_session(sid, key, value)
                        queries = rng.normal(size=(3, 8))
                        for tier in TIERS:
                            over_wire = client.attend_many(
                                sid, queries, tier=tier
                            )
                            in_process = cluster.attend_many(
                                sid, queries, tier=tier
                            )
                            np.testing.assert_array_equal(
                                over_wire, in_process
                            )

    def test_empty_attend_over_wire_leaves_nothing_pending(self, served):
        server, frontend, client = served
        key, value = _memory(9)
        client.register_session("s", key, value[:, :5])
        out = client.attend_many("s", np.empty((0, D)), timeout=5.0)
        assert out.shape == (0, 5)
        with pytest.raises(UnknownSessionError):
            client.attend_many("ghost", np.empty((0, D)), timeout=5.0)
        assert all(not conn.pending for conn in frontend._connections)

    def test_shard_level_ops_over_wire(self, served):
        """Adoption, session stats and telemetry reach a single server
        through any frontend, so adoption keeps verifying the
        fingerprint against the segment's content."""
        server, _, client = served
        key, value = _memory(10)
        artifact = ArtifactBuffer.pack(
            PreprocessedKey.build(key), value, storage="shm"
        )
        try:
            with pytest.raises(ConfigError):
                client.call(
                    AdoptSessionOp("s", artifact.name, KeyFingerprint.of(value))
                )
            info = client.call(
                AdoptSessionOp("s", artifact.name, KeyFingerprint.of(key))
            )
            assert (info.n, info.d, info.d_v) == (N, D, D)
            query = np.random.default_rng(11).normal(size=(1, D))
            np.testing.assert_array_equal(
                client.attend_many("s", query), server.attend_many("s", query)
            )
            assert client.call(SessionStatsOp("s")).calls == 2
            telemetry = client.call(TelemetryOp())
            assert telemetry.snapshot()["completed"] == 2
            assert len(telemetry.stats.latency_samples()) == 2
            client.close_session("s")
        finally:
            artifact.release()

    def test_mutations_and_control_surface_over_wire(self, served):
        server, _, client = served
        key, value = _memory(8)
        client.register_session("s", key, value)
        info = client.mutator("s").append_rows(key[:2], value[:2])
        assert info.n == N + 2
        assert client.mutator("s").delete_rows([0, 1]).n == N
        snapshot = client.snapshot()
        assert snapshot["completed"] >= 0
        assert snapshot["default_tier"] == "conservative"
        assert "# TYPE" in client.metrics_text()
        previous = client.set_default_tier("exact")
        assert previous == "conservative"
        assert client.set_default_tier(previous) == "exact"
        assert client.ping() is True
        client.close_session("s")
        with pytest.raises(UnknownSessionError):
            client.attend_many("s", key[:1])


class TestCorrelation:
    def test_responses_return_in_completion_order(self, served):
        """A ping correlated *after* a queued attend answers first: the
        connection is not head-of-line blocked on the batcher wait."""
        server, frontend, _ = served
        key, value = _memory(9)
        server.register_session("s", key, value)
        slow = _server(wait=0.25, max_batch=64)
        with slow:
            slow.register_session("s", key, value)
            with NetworkFrontend(slow) as slow_front:
                raw = socket.create_connection(slow_front.address)
                try:
                    query = np.random.default_rng(1).normal(size=(1, D))
                    from repro.serve.service import AttendOp

                    raw.sendall(
                        protocol.encode_op(
                            AttendOp(session_id="s", queries=query), 1
                        )
                    )
                    raw.sendall(protocol.encode_op(PingOp(), 2))
                    frames = _recv_frames(raw, 2)
                    assert [f[1] for f in frames] == [2, 1]
                    assert protocol.decode_result(
                        frames[0][0], frames[0][2]
                    ) == Pong()
                    outputs = protocol.decode_result(
                        frames[1][0], frames[1][2]
                    ).outputs
                    np.testing.assert_array_equal(
                        outputs, slow.attend_many("s", query)
                    )
                finally:
                    raw.close()

    def test_many_interleaved_submits_resolve_correctly(self, served):
        server, _, client = served
        rng = np.random.default_rng(11)
        for sid in ("a", "b"):
            key, value = _memory(ord(sid))
            client.register_session(sid, key, value)
        queries = rng.normal(size=(16, D))
        futures = [
            client.submit("a" if i % 2 else "b", queries[i])
            for i in range(16)
        ]
        for i, future in enumerate(futures):
            expected = server.attend("a" if i % 2 else "b", queries[i])
            # Concurrent submits fuse into whatever ragged batches the
            # window catches, so summation order (and the last few ULPs)
            # differ from a serial replay — a *mis-correlated* response
            # would differ at O(1), not O(1e-12).
            np.testing.assert_allclose(
                future.result(10), expected, atol=1e-12
            )

    def test_duplicate_correlation_id_rejected(self, served):
        server, frontend, _ = served
        key, value = _memory(12)
        server.register_session("s", key, value)
        slow = _server(wait=0.2, max_batch=64)
        with slow:
            slow.register_session("s", key, value)
            with NetworkFrontend(slow) as slow_front:
                raw = socket.create_connection(slow_front.address)
                try:
                    from repro.serve.service import AttendOp

                    query = np.zeros((1, D))
                    frame = protocol.encode_op(
                        AttendOp(session_id="s", queries=query), 5
                    )
                    raw.sendall(frame + frame)
                    frames = _recv_frames(raw, 2)
                    # The duplicate is refused immediately; the original
                    # still serves.
                    kinds = sorted(f[0] for f in frames)
                    assert kinds == [
                        protocol.OP_RESULT_ROWS, protocol.OP_ERROR
                    ]
                    error_frame = next(
                        f for f in frames if f[0] == protocol.OP_ERROR
                    )
                    assert error_frame[1] == 5
                    with pytest.raises(
                        protocol.BadFrameError, match="already in flight"
                    ):
                        raise protocol.decode_error(error_frame[2])
                finally:
                    raw.close()


class TestTypedWireErrors:
    def test_unknown_session(self, served):
        _, _, client = served
        with pytest.raises(UnknownSessionError):
            client.attend_many("nobody", np.zeros((1, D)))

    def test_bad_tier_is_config_error(self, served):
        _, _, client = served
        key, value = _memory(13)
        client.register_session("s", key, value)
        with pytest.raises(ConfigError):
            client.attend_many("s", key[:1], tier="psychic")
        with pytest.raises(ConfigError):
            client.set_default_tier("psychic")

    def test_backpressure_reject_is_overload_error(self):
        """Fill the admission queue for real: both workers are parked
        filling long-wait batches for two sessions, a third session's
        request occupies the whole queue (depth 1), so a fourth
        session's attend is refused — and the reject arrives as a typed
        ``ServerOverloadedError`` frame.  Sessions a, b and c attend at
        three different tiers, so their batch groups differ by
        construction: a parked fill window can never absorb c's request
        and empty the queue early."""
        server = _server(
            wait=5.0,
            max_batch=64,
            workers=2,
            max_queue_depth=1,
            overload="reject",
        )
        with server:
            key, value = _memory(14)
            for sid in ("a", "b", "c", "d"):
                server.register_session(sid, key, value)
            with NetworkFrontend(server, drain_timeout_seconds=0.2) as front:
                with AttentionClient(front.address) as client:
                    parked = []
                    for admitted, (sid, tier) in enumerate(
                        zip("ab", TIERS), start=1
                    ):
                        parked.append(client.submit(sid, key[0], tier=tier))
                        # Wait until the request is admitted AND a
                        # worker claimed its group, else the next
                        # submit trips the depth-1 queue early.
                        deadline = time.monotonic() + 5.0
                        while time.monotonic() < deadline:
                            if (
                                server.snapshot()["submitted"] >= admitted
                                and server.batcher.depth == 0
                            ):
                                break
                            time.sleep(0.005)
                        assert server.batcher.depth == 0
                    queued = client.submit("c", key[0], tier=TIERS[2])
                    with pytest.raises(ServerOverloadedError):
                        client.attend("d", key[0], timeout=5)
                    front.stop(timeout=0.2)
                    for future in (*parked, queued):
                        with pytest.raises(ServerClosedError):
                            future.result(10)

    def test_error_does_not_kill_the_connection(self, served):
        _, _, client = served
        key, value = _memory(15)
        client.register_session("s", key, value)
        with pytest.raises(UnknownSessionError):
            client.attend_many("ghost", key[:1])
        np.testing.assert_array_equal(
            client.attend_many("s", key[:1]).shape, (1, D)
        )


class TestMalformedFrames:
    def test_garbage_payload_answers_typed_and_survives(self, served):
        _, frontend, _ = served
        raw = socket.create_connection(frontend.address)
        try:
            raw.sendall(
                protocol.encode_frame(protocol.OP_ATTEND, 9, b"\x00garbage")
            )
            raw.sendall(protocol.encode_op(PingOp(), 10))
            frames = _recv_frames(raw, 2)
            assert frames[0][:2] == (protocol.OP_ERROR, 9)
            assert isinstance(
                protocol.decode_error(frames[0][2]), protocol.BadFrameError
            )
            assert protocol.decode_result(frames[1][0], frames[1][2]) == Pong()
        finally:
            raw.close()

    def test_wrong_version_frame_skipped_and_survives(self, served):
        _, frontend, _ = served
        raw = socket.create_connection(frontend.address)
        try:
            payload = b"\xaa" * 37
            alien = protocol.HEADER.pack(
                protocol.MAGIC, 9, protocol.OP_PING, 21, len(payload)
            )
            raw.sendall(alien + payload)
            raw.sendall(protocol.encode_op(PingOp(), 22))
            frames = _recv_frames(raw, 2)
            assert frames[0][:2] == (protocol.OP_ERROR, 21)
            assert isinstance(
                protocol.decode_error(frames[0][2]),
                protocol.UnsupportedVersionError,
            )
            assert frames[1][1] == 22
        finally:
            raw.close()

    def test_oversized_frame_skipped_and_survives(self):
        with _server() as server:
            front = NetworkFrontend(server, max_payload_bytes=1024)
            with front:
                raw = socket.create_connection(front.address)
                try:
                    raw.sendall(
                        protocol.encode_frame(
                            protocol.OP_ATTEND, 31, bytes(4096)
                        )
                    )
                    raw.sendall(protocol.encode_op(PingOp(), 32))
                    frames = _recv_frames(raw, 2)
                    assert frames[0][:2] == (protocol.OP_ERROR, 31)
                    assert isinstance(
                        protocol.decode_error(frames[0][2]),
                        protocol.FrameTooLargeError,
                    )
                    assert frames[1][1] == 32
                finally:
                    raw.close()

    def test_bad_magic_closes_connection_with_typed_frame(self, served):
        _, frontend, _ = served
        raw = socket.create_connection(frontend.address)
        try:
            raw.sendall(b"GET / HTTP/1.1\r\nHo")  # 18 bytes, wrong magic
            frames = _recv_frames(raw, 1)
            assert frames[0][:2] == (protocol.OP_ERROR, 0)
            assert isinstance(
                protocol.decode_error(frames[0][2]), protocol.BadFrameError
            )
            raw.settimeout(5.0)
            assert raw.recv(1024) == b""  # server hung up
        finally:
            raw.close()


class TestSockets:
    def test_tcp_sockets_disable_nagle(self, served):
        """Both ends of a TCP connection send each small frame at once:
        Nagle would hold it for the peer's delayed ACK."""
        _, frontend, client = served
        assert client.ping()
        nodelay = (socket.IPPROTO_TCP, socket.TCP_NODELAY)
        assert client._sock.getsockopt(*nodelay)
        (conn,) = frontend._connections
        assert conn.sock.getsockopt(*nodelay)

    def test_dead_peer_is_dropped_without_writing_to_it(self, caplog):
        """A client that floods attends, never reads and hangs up costs
        nothing after the hang-up: its connection is gone within the
        drain timeout, its unsent answers are dropped rather than
        written into the dead socket (nothing is logged), and the next
        client is served."""
        caplog.set_level(logging.WARNING)
        rng = np.random.default_rng(22)
        key, value = rng.normal(size=(16, D)), rng.normal(size=(16, 2048))
        with _server(max_batch=64) as server:
            server.register_session("s", key, value)
            with NetworkFrontend(server, drain_timeout_seconds=5.0) as front:
                raw = socket.socket()
                raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                raw.connect(front.address)
                raw.sendall(
                    b"".join(
                        protocol.encode_op(AttendOp("s", key[:1]), corr)
                        for corr in range(1, 801)
                    )
                )
                time.sleep(1.0)
                raw.close()
                deadline = time.monotonic() + front.drain_timeout_seconds
                while front._connections and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert not front._connections
                with AttentionClient(front.address) as client:
                    np.testing.assert_allclose(
                        client.attend_many("s", key[:1]),
                        server.attend_many("s", key[:1]),
                        atol=1e-12,
                    )
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


class _NeverServes:
    """A target whose admitted requests never resolve — the shutdown
    race frozen solid, so the drain contract is the only way out.
    ``admitted`` is set once a request reached it."""

    def __init__(self):
        self.admitted = threading.Event()

    def submit(self, session_id, query, tier=None, trace_ctx=None):
        self.admitted.set()
        return AttentionRequest(session_id=session_id, query=query)


class TestGracefulDrain:
    def test_blocked_client_gets_typed_answer_on_stop(self):
        """The regression mirror of ``test_shutdown``: a client blocked
        on a response when the frontend stops receives a typed
        ``ServerClosedError`` frame — not a reset, not silence.

        The stop waits until the request reached the target: a frame
        still unread in the socket buffer when stop lands is not in
        flight, it is a connection loss (see the sibling test)."""
        target = _NeverServes()
        service = AttentionService(target)
        with NetworkFrontend(service) as front:
            client = AttentionClient(front.address)
            try:
                future = client.submit("s", np.zeros(D))
                assert target.admitted.wait(10)
                blocked = threading.Event()
                answered = []

                def wait():
                    blocked.set()
                    try:
                        future.result(10)
                    except BaseException as exc:  # noqa: BLE001
                        answered.append(exc)
                    else:
                        answered.append(None)

                waiter = threading.Thread(target=wait)
                waiter.start()
                blocked.wait(5)
                front.stop(timeout=0.3)
                waiter.join(10)
                assert not waiter.is_alive()
                assert len(answered) == 1
                assert isinstance(answered[0], ServerClosedError)
            finally:
                client.close()

    def test_in_flight_requests_served_before_close(self):
        """Requests already admitted when stop lands drain with real
        results when the target can still serve them."""
        server = _server(wait=0.15, max_batch=64)
        with server:
            key, value = _memory(16)
            server.register_session("s", key, value)
            front = NetworkFrontend(server)
            with front:
                client = AttentionClient(front.address)
                try:
                    query = np.random.default_rng(2).normal(size=D)
                    future = client.submit("s", query)
                    # Wait until the frontend has correlated the request
                    # (it reached the batcher) — a frame still unread in
                    # the socket buffer when stop lands is not in
                    # flight, it is a connection loss to retry.
                    deadline = time.monotonic() + 5.0
                    while (
                        server.snapshot()["submitted"] < 1
                        and time.monotonic() < deadline
                    ):
                        time.sleep(0.005)
                    # Stop while the batcher is still waiting out its
                    # 150ms window; the drain must let it finish.
                    front.stop(timeout=5.0)
                    np.testing.assert_array_equal(
                        future.result(10), server.attend("s", query)
                    )
                finally:
                    client.close()

    def test_stop_is_idempotent_and_client_fails_closed(self, served):
        _, frontend, client = served
        frontend.stop()
        frontend.stop()
        assert not frontend.running
        with pytest.raises(protocol.ConnectionLostError):
            for _ in range(100):  # the reader notices EOF asynchronously
                try:
                    client.ping(timeout=0.1)
                except TimeoutError:
                    pass
                time.sleep(0.01)


class _BlockingAsyncClient:
    """An :class:`AsyncAttentionClient` behind the sync client's names,
    so one contract test drives either client.  Its event loop runs on
    a thread of its own: a coroutine method blocks for its result, and
    ``submit_attend`` / ``submit`` return the concurrent future of an
    attend task (cancelling it cancels the task)."""

    def __init__(self, sock, **kwargs):
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, daemon=True
        )
        self.thread.start()
        self.tasks = []
        self.client = self.run(self._open(sock, kwargs)).result(10)

    @staticmethod
    async def _open(sock, kwargs):
        return AsyncAttentionClient(sock, **kwargs)

    def run(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop)

    def __getattr__(self, name):
        method = getattr(self.client, name)
        return lambda *args: self.run(method(*args)).result(10)

    def submit_attend(self, op):
        task = self.run(self.client.attend_many(op.session_id, op.queries))
        self.tasks.append(task)
        return task

    def submit(self, session_id, query):
        return self.submit_attend(AttendOp(session_id, query))

    def drain(self, timeout):
        return not wait(self.tasks, timeout).not_done

    def close(self):
        self.run(self.client.aclose()).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


@contextlib.contextmanager
def _served_pair(server):
    """One end of a socket pair whose other end ``server`` answers with
    the connection loop a spawn shard runs."""
    ours, theirs = socket.socketpair()
    with ThreadPoolExecutor(2) as ops:
        serving = threading.Thread(
            target=Connection(theirs, server.service(), ops).serve
        )
        serving.start()
        try:
            yield ours
        finally:
            serving.join(10)


def _errors(caplog):
    gc.collect()  # an unretrieved asyncio failure logs when collected
    return [r for r in caplog.records if r.levelno >= logging.ERROR]


class TestClientOverSocketPair:
    """The client takes over an already-connected socket — how a
    cluster reaches a spawn shard — and owns the local end of the
    contract: oversized requests, its own close, a lost connection, a
    failed send and its callers' cancels.  :class:`TestAsyncClient`
    runs every test here on the async client too."""

    open_client = AttentionClient

    def test_oversized_request_fails_locally(self):
        ours, theirs = socket.socketpair()
        with self.open_client(ours, max_payload_bytes=64) as client:
            key, value = _memory(20)
            with pytest.raises(protocol.FrameTooLargeError):
                client.register_session("s", key, value)
        # Nothing but the goodbye was shipped.
        frames = _recv_frames(theirs, 2)
        assert [opcode for opcode, _, _ in frames] == [protocol.OP_GOODBYE]
        theirs.close()

    def test_close_fails_stranded_requests_as_closed(self):
        """The caller's own close is final: an attend in flight at
        close fails with ``ServerClosedError``, not with a retryable
        connection loss."""
        ours, theirs = socket.socketpair()
        theirs.settimeout(5.0)
        client = self.open_client(ours)
        future = client.submit_attend(AttendOp("s", np.zeros((1, D))))
        # The attend frame reached the peer, so it is in flight.
        assert theirs.recv(1 << 16)
        assert not client.drain(timeout=0.05)  # nobody answers
        client.close()
        with pytest.raises(ServerClosedError):
            future.result(5)
        theirs.close()

    def test_close_returns_while_a_send_is_stalled(self):
        """A large send stalls on a peer that stopped reading; the
        caller's own close neither waits for it nor for the peer, and
        the stalled call fails as closed."""
        ours, theirs = socket.socketpair()
        theirs.settimeout(5.0)
        key = np.zeros((4096, 128))
        client = self.open_client(ours)
        outcome = []

        def register():
            try:
                client.register_session("s", key, key)
            except Exception as exc:  # noqa: BLE001 — the outcome checked
                outcome.append(exc)

        sender = threading.Thread(target=register, daemon=True)
        closer = threading.Thread(target=client.close, daemon=True)
        try:
            sender.start()
            assert theirs.recv(1 << 16)  # the frame is partly on the wire
            closer.start()
            closer.join(1.0)
            assert not closer.is_alive()
            sender.join(5.0)
            assert not sender.is_alive()
            assert len(outcome) == 1
            assert isinstance(outcome[0], ServerClosedError)
        finally:
            theirs.close()  # frees a close that did stall
            closer.join(10.0)

    def test_lost_connection_is_a_retryable_shard_loss(self):
        ours, theirs = socket.socketpair()
        with self.open_client(ours) as client:
            future = client.submit_attend(AttendOp("s", np.zeros((1, D))))
            theirs.close()
            with pytest.raises(protocol.ConnectionLostError) as excinfo:
                future.result(5)
            assert isinstance(excinfo.value, ShardUnavailableError)

    def test_failed_send_is_a_retryable_loss(self, caplog):
        """The peer dies while a large frame is still being written:
        the caller gets the retryable ``ConnectionLostError``, and no
        failed future is left for nobody to retrieve."""
        caplog.set_level(logging.ERROR)
        ours, theirs = socket.socketpair()
        key = np.zeros((4096, 128))
        hang_up = threading.Timer(0.1, theirs.close)
        hang_up.start()
        with self.open_client(ours) as client:
            with pytest.raises(protocol.ConnectionLostError):
                client.register_session("s", key, key)
        hang_up.join()
        assert not _errors(caplog)

    @pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
    def test_cancelled_attends_leave_the_client_serving(self, caplog, traced):
        """Callers cancel attends in flight (perfbench cancels what is
        still pending when a phase ends).  Their answers arrive later
        and are dropped: the client serves on and logs nothing."""
        caplog.set_level(logging.ERROR)
        key, value = _memory(23)
        query = np.random.default_rng(24).normal(size=(1, D))
        tracer = Tracer(sample_rate=1.0) if traced else None
        with _server(wait=0.2) as server:  # attends wait out the window
            server.register_session("s", key, value)
            with _served_pair(server) as ours, self.open_client(
                ours, tracer=tracer
            ) as client:
                cancelled = [
                    client.submit_attend(AttendOp("s", query)),
                    client.submit("s", query[0]),
                ]
                deadline = time.monotonic() + 5.0
                while (
                    server.snapshot()["submitted"] < 2
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.005)
                assert all(future.cancel() for future in cancelled)
                # The second attend is answered after every answer of
                # the cancelled attends' batch.
                for _ in range(2):
                    np.testing.assert_allclose(
                        client.attend_many("s", query),
                        server.attend_many("s", query),
                        atol=1e-12,
                    )
        assert not _errors(caplog)


class TestAsyncClient(TestClientOverSocketPair):
    """The socket-pair contract on the async client, and its surface
    over TCP."""

    open_client = _BlockingAsyncClient

    def test_send_cancelled_mid_frame_ends_the_connection(self, caplog):
        """A cancel that lands while a large frame is half written
        leaves the stream unframeable: the connection ends as lost
        instead of sending the next frame into the middle of it."""
        caplog.set_level(logging.ERROR)
        ours, theirs = socket.socketpair()
        theirs.settimeout(5.0)
        key = np.zeros((4096, 128))
        with self.open_client(ours) as client:
            register = client.run(client.client.register_session("s", key, key))
            assert theirs.recv(1 << 16)  # the frame is partly on the wire
            register.cancel()
            with pytest.raises(CancelledError):
                register.result(5)
            with pytest.raises(protocol.ConnectionLostError):
                client.ping()
            theirs.close()  # lets the goodbye fail fast
        assert not _errors(caplog)

    def test_full_surface(self, served):
        server, frontend, _ = served
        key, value = _memory(17)
        queries = np.random.default_rng(18).normal(size=(3, D))

        async def drive():
            client = await AsyncAttentionClient.connect(frontend.address)
            async with client:
                info = await client.register_session("s2", key, value)
                assert (info.n, info.d) == (N, D)
                outputs = await client.attend_many("s2", queries)
                row = await client.attend("s2", queries[0])
                assert await client.ping() is True
                assert "# TYPE" in await client.metrics_text()
                assert isinstance(await client.snapshot(), dict)
                previous = await client.set_default_tier("exact")
                await client.set_default_tier(previous)
                await client.close_session("s2")
                return outputs, row

        outputs, row = asyncio.run(drive())
        server.register_session("s2", key, value)
        np.testing.assert_array_equal(
            outputs, server.attend_many("s2", queries)
        )
        np.testing.assert_array_equal(row, outputs[0])

    def test_unknown_session_raises_typed(self, served):
        _, frontend, _ = served

        async def drive():
            async with await AsyncAttentionClient.connect(
                frontend.address
            ) as client:
                with pytest.raises(UnknownSessionError):
                    await client.attend_many("ghost", np.zeros((1, D)))

        asyncio.run(drive())

class TestAddressParsing:
    def test_forms(self):
        assert parse_address("h:9") == ("h", 9)
        assert parse_address(("h", 9)) == ("h", 9)
        assert parse_address("h", 9) == ("h", 9)
        assert parse_address(":9") == ("127.0.0.1", 9)
        with pytest.raises(ValueError):
            parse_address("no-port")
