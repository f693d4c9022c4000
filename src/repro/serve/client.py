"""Network clients for the serving front end.

Two clients over the same wire protocol (:mod:`repro.serve.protocol`)
share one private request table — correlation ids, the request bound,
the pending map, the client span and the failure rules — and each
keeps only its socket loop:

* :class:`AttentionClient` — synchronous, thread-safe: a reader thread
  and ``sendall`` under a send lock, on one persistent connection (TCP,
  or an already-connected socket such as one end of a
  ``socket.socketpair()``).  Any number of caller threads can have
  requests in flight; responses resolve out of order.  The surface
  mirrors the in-process servers, so code written against an
  :class:`~repro.serve.server.AttentionServer` runs against a socket
  unchanged (:class:`~repro.serve.mutator.SessionMutator` duck-types
  over it too).  Its op-level surface, ``call(op)`` /
  ``submit_attend(op, trace_ctx)``, is the one an
  :class:`~repro.serve.service.AttentionService` answers, which makes
  it a cluster's handle on a spawn shard.
* :class:`AsyncAttentionClient` — the same surface as coroutines, on a
  connected socket the event loop reads (``loop.add_reader``) and
  callers write (``loop.sock_sendall``): no thread, no asyncio streams.

Both carry the quality **tier** per request and a **trace context**:
give the client a :class:`~repro.serve.tracing.Tracer` and every attend
opens a local ``client_request`` span whose context rides the frame, so
the server-side ``request → submit → …`` span tree parents under the
remote caller's span exactly as it would in-process.  The table ends
the span just before it resolves the answer.

Typed errors arrive as typed exceptions: a backpressure reject raises
:class:`~repro.serve.request.ServerOverloadedError` here, shard loss
raises :class:`~repro.serve.request.ShardUnavailableError`, a dead
socket or a failed send raises
:class:`~repro.serve.protocol.ConnectionLostError` (a retryable shard
loss) for every request it strands, and a request still in flight when
the caller itself closes the client fails with
:class:`~repro.serve.request.ServerClosedError`.  A request its caller
cancelled has its answer dropped; the connection serves on.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
import threading
from concurrent.futures import Future, wait

import numpy as np

from repro.serve import protocol
from repro.serve.mutator import SessionMutation, SessionMutator
from repro.serve.request import ServerClosedError
from repro.serve.service import (
    AttendOp,
    CloseSessionOp,
    MetricsOp,
    MutateSessionOp,
    PingOp,
    RegisterSessionOp,
    SessionInfo,
    SetTierOp,
    SnapshotOp,
)
from repro.serve.tracing import TraceContext, Tracer

__all__ = ["AttentionClient", "AsyncAttentionClient", "parse_address"]

_RECV_CHUNK = 1 << 16
_GOODBYE = protocol.encode_frame(protocol.OP_GOODBYE, 0)


def parse_address(address, port=None) -> tuple[str, int]:
    """Accept ``("host", port)``, ``"host:port"``, or ``host, port``."""
    if port is not None:
        return str(address), int(port)
    if isinstance(address, (tuple, list)) and len(address) == 2:
        return str(address[0]), int(address[1])
    if isinstance(address, str) and ":" in address:
        host, _, raw_port = address.rpartition(":")
        return host or "127.0.0.1", int(raw_port)
    raise ValueError(
        f"address must be 'host:port' or (host, port), got {address!r}"
    )


def _dial(address: tuple[str, int], timeout: float = 10.0) -> socket.socket:
    sock = socket.create_connection(address, timeout=timeout)
    # Pipelined requests are small frames; Nagle would hold each one
    # for the server's delayed ACK.
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class _TraceScope:
    """A sampled ``client_request`` span around one network attend;
    :meth:`start` gives ``None`` when no tracer samples the attend."""

    __slots__ = ("span", "tracer")

    @classmethod
    def start(cls, tracer: Tracer | None, session_id: str):
        if tracer is None or not tracer.sample():
            return None
        scope = cls()
        scope.tracer = tracer
        scope.span = tracer.start_span(
            "client_request",
            attrs={"session_id": session_id, "transport": "tcp"},
        )
        return scope

    def finish(self, error: BaseException | None) -> None:
        if error is not None:
            self.span.attrs["error"] = type(error).__name__
        self.tracer.record(self.span)


def _settle(future, scope, result=None, error=None) -> None:
    """Finish the request's span, then resolve its future (a
    ``concurrent.futures`` or an asyncio one) unless its caller
    cancelled it."""
    if scope is not None:
        scope.finish(error)
    if isinstance(future, Future):
        if not future.set_running_or_notify_cancel():
            return
    elif future.done():
        return
    if error is None:
        future.set_result(result)
    else:
        future.set_exception(error)


class _RequestTable:
    """One connection's requests in flight, whichever client owns it.

    The client sends the frame :meth:`open` returns and calls
    :meth:`read` when the socket has data.  When the stream ends, every
    request in flight fails by the stranded rule: after the caller's
    own close (:attr:`closed`) with :class:`ServerClosedError`, else
    with the retryable ``ConnectionLostError``.
    """

    def __init__(self, sock: socket.socket, max_payload: int):
        self.sock = sock
        self.assembler = protocol.FrameAssembler(max_payload)
        self.pending: dict[int, tuple] = {}  # corr id -> (future, scope)
        self.lock = threading.Lock()
        self.closed = False
        self._corr = itertools.count(1)
        self._broken: Exception | None = None

    def open(self, op, trace_ctx, future, scope=None) -> tuple[int, bytes]:
        """Register ``future`` for ``op``; returns ``(corr_id, frame)``.
        Refuses a payload over the bound (``FrameTooLargeError``) and a
        closed or broken connection before anything is sent."""
        if self.closed:
            raise protocol.ConnectionLostError("client is closed")
        corr_id = next(self._corr)
        if scope is not None:
            trace_ctx = scope.span.context()
        frame = protocol.encode_op(op, corr_id, trace_ctx)
        size = len(frame) - protocol.HEADER.size
        if size > self.assembler.max_payload:
            raise protocol.FrameTooLargeError(
                f"{type(op).__name__} frame carries {size} payload bytes "
                f"(bound is {self.assembler.max_payload})",
                payload_length=size,
            )
        with self.lock:
            # Checked under the lock end() records the break under, so
            # a request racing the end of the stream is either failed
            # there or refused here.
            if self._broken is not None:
                raise protocol.ConnectionLostError(str(self._broken))
            self.pending[corr_id] = (future, scope)
        return corr_id, frame

    def read(self) -> bool:
        """One step of the read loop: receive, reassemble, resolve.
        ``False`` once the stream has ended."""
        try:
            data = self.sock.recv(_RECV_CHUNK)
        except BlockingIOError:
            return True  # the event loop woke us early
        except OSError:
            data = b""
        if not data:
            self.end()
            return False
        try:
            frames = self.assembler.feed(data)
            while frames:
                for opcode, corr_id, payload in frames:
                    try:
                        result = protocol.decode_result(opcode, payload)
                    except Exception as exc:  # noqa: BLE001 — wire error
                        self.settle(corr_id, error=exc)
                    else:
                        self.settle(corr_id, result)
                frames = self.assembler.feed(b"")  # a bad header may follow
        except protocol.ProtocolError as exc:
            # A server that breaks framing toward us is not recoverable
            # client-side: strand everything.
            self.end(exc)
            return False
        return True

    def settle(self, corr_id: int, result=None, error=None) -> None:
        with self.lock:
            entry = self.pending.pop(corr_id, None)
        if entry is not None:  # else the request has already failed
            _settle(*entry, result, error)

    def _stranded(self, reason: str) -> Exception:
        if self.closed:
            return ServerClosedError("client closed with requests in flight")
        return protocol.ConnectionLostError(reason)

    def drop(self, corr_id: int, exc: OSError) -> None:
        """Fail a request whose frame could not be sent, by the stranded
        rule; its caller reads the future."""
        self.settle(corr_id, error=self._stranded(str(exc)))

    def end(self, error: Exception | None = None) -> None:
        """Fail every request in flight, and refuse new ones, with
        ``error`` or else by the stranded rule (see the class)."""
        if error is None:
            error = self._stranded("connection closed with requests in flight")
        with self.lock:
            self._broken = error
            stranded, self.pending = list(self.pending.values()), {}
        for entry in stranded:
            _settle(*entry, error=error)


class AttentionClient:
    """Synchronous client for a :class:`~repro.serve.frontend.NetworkFrontend`.

    A reader thread steps the connection's request table; callers send
    whole frames with ``sendall`` under a send lock.

    Parameters
    ----------
    address / port:
        Where the frontend listens: ``AttentionClient("host:port")``,
        ``AttentionClient(("host", port))``, or
        ``AttentionClient("host", port)`` — or an already-connected
        ``socket.socket`` the client takes over (``address`` is then
        ``None``).
    timeout:
        Default patience for blocking calls (per-call override).
    max_payload_bytes:
        Per-frame payload bound in both directions: a larger response
        breaks the connection, a larger request fails locally with
        :class:`~repro.serve.protocol.FrameTooLargeError`.
    tracer:
        Optional :class:`~repro.serve.tracing.Tracer`; when given,
        attends open a ``client_request`` root span whose context
        travels on the wire.
    """

    def __init__(
        self,
        address,
        port=None,
        *,
        timeout: float = 30.0,
        max_payload_bytes: int = protocol.MAX_PAYLOAD_BYTES,
        tracer: Tracer | None = None,
        connect_timeout: float = 10.0,
    ):
        if isinstance(address, socket.socket):
            self.address = None
            self._sock = address
        else:
            self.address = parse_address(address, port)
            self._sock = _dial(self.address, connect_timeout)
        self._sock.settimeout(None)
        self._table = _RequestTable(self._sock, max_payload_bytes)
        self._send_lock = threading.Lock()
        self.timeout = timeout
        self.tracer = tracer
        self._reader = threading.Thread(
            target=self._read_loop, name="repro-client-reader", daemon=True
        )
        self._reader.start()

    # -- plumbing ------------------------------------------------------
    def _read_loop(self) -> None:
        while self._table.read():
            pass

    def _send_op(self, op, trace_ctx=None, scope=None) -> Future:
        future: Future = Future()
        corr_id, frame = self._table.open(op, trace_ctx, future, scope)
        try:
            with self._send_lock:
                self._sock.sendall(frame)
        except OSError as exc:
            self._table.drop(corr_id, exc)
        return future

    # -- op surface (what an AttentionService answers) -----------------
    def submit_attend(
        self, op: AttendOp, trace_ctx: TraceContext | None = None
    ) -> Future:
        """Send one :class:`AttendOp`; the future resolves to its
        :class:`AttendResult` (or the typed wire error)."""
        return self._send_op(op, trace_ctx)

    def call(self, op, timeout: float | None = None):
        """Send any service op and block for its typed result."""
        return self._send_op(op).result(
            self.timeout if timeout is None else timeout
        )

    def drain(self, timeout: float | None = None) -> bool:
        """Wait until every request in flight has resolved; ``False``
        if some were still unanswered after ``timeout`` seconds."""
        with self._table.lock:
            in_flight = [future for future, _ in self._table.pending.values()]
        return not wait(in_flight, timeout).not_done

    # -- attend surface ------------------------------------------------
    def _attend(self, session_id: str, queries, tier) -> Future:
        """Send one attend, under a ``client_request`` span when the
        tracer samples it."""
        scope = _TraceScope.start(self.tracer, session_id)
        op = AttendOp(session_id=session_id, queries=queries, tier=tier)
        return self._send_op(op, scope=scope)

    def submit(
        self, session_id: str, query, tier: str | None = None
    ) -> Future:
        """Fire one single-query attend; resolves to the ``(d_v,)`` row."""
        inner = self._attend(
            session_id, np.asarray(query, dtype=np.float64), tier
        )
        outer: Future = Future()

        def finish(done: Future) -> None:
            error = done.exception()
            if error is not None:
                _settle(outer, None, error=error)
            else:
                row = done.result().outputs
                _settle(outer, None, row[0] if row.ndim == 2 else row)

        inner.add_done_callback(finish)
        return outer

    def attend(
        self,
        session_id: str,
        query,
        timeout: float | None = None,
        tier: str | None = None,
    ) -> np.ndarray:
        return self.submit(session_id, query, tier=tier).result(
            self.timeout if timeout is None else timeout
        )

    def attend_many(
        self,
        session_id: str,
        queries,
        timeout: float | None = None,
        tier: str | None = None,
    ) -> np.ndarray:
        """Attend a ``(q, d)`` block; returns ``(q, d_v)`` outputs."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        future = self._attend(session_id, queries, tier)
        return future.result(
            self.timeout if timeout is None else timeout
        ).outputs

    # -- session and control surface -----------------------------------
    def register_session(
        self, session_id: str, key, value, timeout: float | None = None
    ) -> SessionInfo:
        return self.call(
            RegisterSessionOp(
                session_id=session_id,
                key=np.asarray(key, dtype=np.float64),
                value=np.asarray(value, dtype=np.float64),
            ),
            timeout,
        )

    def close_session(self, session_id: str, timeout: float | None = None):
        return self.call(CloseSessionOp(session_id=session_id), timeout)

    def mutate_session(
        self,
        session_id: str,
        mutation: SessionMutation,
        timeout: float | None = None,
    ) -> SessionInfo:
        return self.call(
            MutateSessionOp(session_id=session_id, mutation=mutation),
            timeout,
        )

    def mutator(self, session_id: str) -> SessionMutator:
        """Fluent mutation interface over the wire (same as server-side)."""
        return SessionMutator(self, session_id)

    def set_default_tier(self, tier: str, timeout: float | None = None) -> str:
        return self.call(SetTierOp(tier=tier), timeout).previous

    def snapshot(self, timeout: float | None = None) -> dict:
        return self.call(SnapshotOp(), timeout).snapshot

    def metrics_text(self, timeout: float | None = None) -> str:
        return self.call(MetricsOp(), timeout).text

    def ping(self, timeout: float | None = None) -> bool:
        self.call(PingOp(), timeout)
        return True

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Tear the connection down (idempotent), waiting on neither
        another send nor the peer: the goodbye is best effort, and the
        shutdown fails a stalled send's call with ``ServerClosedError``."""
        if self._table.closed:
            return
        self._table.closed = True
        if self._send_lock.acquire(blocking=False):
            try:
                self._sock.send(_GOODBYE, socket.MSG_DONTWAIT)
            except OSError:
                pass
            finally:
                self._send_lock.release()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._reader.join(5.0)

    def __enter__(self) -> "AttentionClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class AsyncAttentionClient:
    """Asyncio counterpart of :class:`AttentionClient`.

    Built inside a running loop on an already-connected socket, as the
    sync client is (:meth:`connect` dials one); every method of the
    sync surface exists as a coroutine.  The loop steps the request
    table when the socket is readable; callers take turns writing whole
    frames.  A caller cancelled partway through a frame leaves the
    stream unframeable, so the connection then ends as lost.
    """

    def __init__(
        self,
        sock: socket.socket,
        *,
        max_payload_bytes: int = protocol.MAX_PAYLOAD_BYTES,
        tracer: Tracer | None = None,
    ):
        sock.setblocking(False)
        self._sock = sock
        self._table = _RequestTable(sock, max_payload_bytes)
        self._send_lock = asyncio.Lock()
        self.tracer = tracer
        self._loop = asyncio.get_running_loop()
        self._loop.add_reader(sock.fileno(), self._on_readable)

    @classmethod
    async def connect(
        cls,
        address,
        port=None,
        *,
        max_payload_bytes: int = protocol.MAX_PAYLOAD_BYTES,
        tracer: Tracer | None = None,
    ) -> "AsyncAttentionClient":
        sock = await asyncio.to_thread(_dial, parse_address(address, port))
        return cls(sock, max_payload_bytes=max_payload_bytes, tracer=tracer)

    def _on_readable(self) -> None:
        if not self._table.read():
            self._loop.remove_reader(self._sock.fileno())

    async def _call(self, op, scope=None):
        future = self._loop.create_future()
        async with self._send_lock:
            corr_id, frame = self._table.open(op, None, future, scope)
            try:
                await self._loop.sock_sendall(self._sock, frame)
            except OSError as exc:
                self._table.drop(corr_id, exc)
            except asyncio.CancelledError:
                # Part of the frame may be on the wire: the stream can
                # no longer be framed.
                future.cancel()
                self._table.end(
                    protocol.ConnectionLostError("send cancelled mid-frame")
                )
                raise
        return await future

    async def attend(
        self, session_id: str, query, tier: str | None = None
    ) -> np.ndarray:
        result = await self.attend_many(session_id, [query], tier=tier)
        return result[0]

    async def attend_many(
        self, session_id: str, queries, tier: str | None = None
    ) -> np.ndarray:
        scope = _TraceScope.start(self.tracer, session_id)
        op = AttendOp(
            session_id=session_id,
            queries=np.atleast_2d(np.asarray(queries, dtype=np.float64)),
            tier=tier,
        )
        return (await self._call(op, scope)).outputs

    async def register_session(
        self, session_id: str, key, value
    ) -> SessionInfo:
        return await self._call(
            RegisterSessionOp(
                session_id=session_id,
                key=np.asarray(key, dtype=np.float64),
                value=np.asarray(value, dtype=np.float64),
            )
        )

    async def close_session(self, session_id: str):
        return await self._call(CloseSessionOp(session_id=session_id))

    async def mutate_session(
        self, session_id: str, mutation: SessionMutation
    ) -> SessionInfo:
        return await self._call(
            MutateSessionOp(session_id=session_id, mutation=mutation)
        )

    async def set_default_tier(self, tier: str) -> str:
        return (await self._call(SetTierOp(tier=tier))).previous

    async def snapshot(self) -> dict:
        return (await self._call(SnapshotOp())).snapshot

    async def metrics_text(self) -> str:
        return (await self._call(MetricsOp())).text

    async def ping(self) -> bool:
        await self._call(PingOp())
        return True

    async def aclose(self) -> None:
        """Tear the connection down (idempotent) as
        :meth:`AttentionClient.close` does; the socket closes once a
        stalled send has failed."""
        if self._table.closed:
            return
        self._table.closed = True
        if not self._send_lock.locked():
            try:
                self._sock.send(_GOODBYE)  # non-blocking: never waits
            except OSError:
                pass
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
            # A stalled sock_sendall fails once the loop sees the shutdown.
            async with self._send_lock:
                pass
        except OSError:
            pass
        finally:
            self._loop.remove_reader(self._sock.fileno())
            self._sock.close()
            self._table.end()

    async def __aenter__(self) -> "AsyncAttentionClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()
