"""Network clients for the serving front end.

Two clients over the same wire protocol (:mod:`repro.serve.protocol`):

* :class:`AttentionClient` — synchronous, thread-safe.  One persistent
  connection (TCP, or an already-connected socket such as one end of a
  ``socket.socketpair()``), a background reader thread, and per-request
  correlation ids, so any number of caller threads can have requests in
  flight concurrently and responses resolve out of order.  The surface
  mirrors the in-process servers — ``attend`` / ``attend_many`` /
  ``submit`` / ``register_session`` / ``close_session`` /
  ``mutate_session`` / ``mutator`` / ``set_default_tier`` /
  ``snapshot`` / ``metrics_text`` — so code written against an
  :class:`~repro.serve.server.AttentionServer` runs against a socket
  unchanged (the :class:`~repro.serve.mutator.SessionMutator` fluent
  interface duck-types over this client too).  Its op-level surface,
  ``call(op)`` / ``submit_attend(op, trace_ctx)``, is the one an
  :class:`~repro.serve.service.AttentionService` answers, which is what
  makes it a cluster's handle on a spawn shard.
* :class:`AsyncAttentionClient` — the same surface as coroutines for
  asyncio callers.

Both carry the quality **tier** per request and a **trace context**:
give the client a :class:`~repro.serve.tracing.Tracer` and every attend
opens a local ``client_request`` span whose context rides the frame, so
the server-side ``request → submit → …`` span tree parents under the
remote caller's span exactly as it would in-process.

Typed errors arrive as typed exceptions: a backpressure reject raises
:class:`~repro.serve.request.ServerOverloadedError` here, shard loss
raises :class:`~repro.serve.request.ShardUnavailableError`, a dead
socket raises :class:`~repro.serve.protocol.ConnectionLostError` (a
retryable shard loss) for every request it strands, and a request still
in flight when the caller itself closes the client fails with
:class:`~repro.serve.request.ServerClosedError`.
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


def _encode_request(op, corr_id, trace_ctx, max_payload: int) -> bytes:
    """Encode one request frame, refusing it before anything is sent
    when its payload exceeds ``max_payload``."""
    frame = protocol.encode_op(op, corr_id, trace_ctx)
    size = len(frame) - protocol.HEADER.size
    if size > max_payload:
        raise protocol.FrameTooLargeError(
            f"{type(op).__name__} frame carries {size} payload bytes "
            f"(bound is {max_payload})",
            payload_length=size,
        )
    return frame


def _stranded_error(closed: bool) -> Exception:
    """What the requests a finished read loop strands fail with: the
    caller's own close is final, anything else a retryable loss."""
    if closed:
        return ServerClosedError("client closed with requests in flight")
    return protocol.ConnectionLostError(
        "connection closed with requests in flight"
    )


class _TraceScope:
    """Optional client-side root span around one network request."""

    __slots__ = ("span", "tracer")

    def __init__(self, tracer: Tracer | None, name: str, attrs: dict):
        self.tracer = tracer
        self.span = None
        if tracer is not None and tracer.sample():
            self.span = tracer.start_span(name, attrs=attrs)

    @property
    def context(self) -> TraceContext | None:
        return self.span.context() if self.span is not None else None

    def finish(self, error: BaseException | None) -> None:
        if self.span is None:
            return
        if error is not None:
            self.span.attrs["error"] = type(error).__name__
        self.tracer.record(self.span)


class AttentionClient:
    """Synchronous client for a :class:`~repro.serve.frontend.NetworkFrontend`.

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
            self._sock = socket.create_connection(
                self.address, timeout=connect_timeout
            )
            # Pipelined requests are small frames; Nagle would hold
            # each one for the server's delayed ACK.
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.timeout = timeout
        self.tracer = tracer
        self._sock.settimeout(None)
        self._assembler = protocol.FrameAssembler(max_payload_bytes)
        self._pending: dict[int, Future] = {}
        self._lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._corr = itertools.count(1)
        self._closed = False
        self._broken: Exception | None = None
        self._reader = threading.Thread(
            target=self._read_loop, name="repro-client-reader", daemon=True
        )
        self._reader.start()

    # -- plumbing ------------------------------------------------------
    def _read_loop(self) -> None:
        try:
            while True:
                data = self._sock.recv(_RECV_CHUNK)
                if not data:
                    break
                try:
                    frames = self._assembler.feed(data)
                except protocol.ProtocolError as exc:
                    # A server that breaks framing toward us is not
                    # recoverable client-side: strand everything.
                    self._fail_pending(exc)
                    return
                for opcode, corr_id, payload in frames:
                    self._dispatch(opcode, corr_id, payload)
        except OSError:
            pass
        finally:
            self._fail_pending(_stranded_error(self._closed))

    def _dispatch(self, opcode: int, corr_id: int, payload: bytes) -> None:
        with self._lock:
            future = self._pending.pop(corr_id, None)
        if future is None:
            return  # late response for an abandoned correlation id
        try:
            future.set_result(protocol.decode_result(opcode, payload))
        except BaseException as exc:  # noqa: BLE001 — typed wire error
            future.set_exception(exc)

    def _fail_pending(self, error: Exception) -> None:
        with self._lock:
            # Recorded under the same lock that registers new requests,
            # so a submit racing the reader's death either lands in
            # ``stranded`` here or sees ``_broken`` and refuses.
            self._broken = error
            stranded = list(self._pending.values())
            self._pending.clear()
        for future in stranded:
            if not future.done():
                try:
                    future.set_exception(error)
                except Exception:  # noqa: BLE001 — racing resolution
                    pass

    def _send_op(self, op, trace_ctx: TraceContext | None = None) -> Future:
        if self._closed:
            raise protocol.ConnectionLostError("client is closed")
        corr_id = next(self._corr)
        frame = _encode_request(
            op, corr_id, trace_ctx, self._assembler.max_payload
        )
        future: Future = Future()
        with self._lock:
            if self._broken is not None:
                raise protocol.ConnectionLostError(str(self._broken))
            self._pending[corr_id] = future
        try:
            with self._send_lock:
                self._sock.sendall(frame)
        except OSError as exc:
            with self._lock:
                self._pending.pop(corr_id, None)
            raise protocol.ConnectionLostError(str(exc)) from exc
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
        with self._lock:
            in_flight = list(self._pending.values())
        return not wait(in_flight, timeout).not_done

    # -- attend surface ------------------------------------------------
    def _traced_attend(
        self, session_id: str, queries, tier, trace_ctx=None
    ) -> Future:
        """Send one attend; without a caller context and with a tracer,
        under a ``client_request`` span recorded before the returned
        future resolves."""
        op = AttendOp(session_id=session_id, queries=queries, tier=tier)
        if trace_ctx is not None or self.tracer is None:
            return self._send_op(op, trace_ctx)
        scope = _TraceScope(
            self.tracer,
            "client_request",
            {"session_id": session_id, "transport": "tcp"},
        )
        inner = self._send_op(op, scope.context)
        outer: Future = Future()

        def finish(done) -> None:
            error = done.exception()
            scope.finish(error)
            if error is not None:
                outer.set_exception(error)
            else:
                outer.set_result(done.result())

        inner.add_done_callback(finish)
        return outer

    def submit(
        self,
        session_id: str,
        query,
        tier: str | None = None,
        trace_ctx: TraceContext | None = None,
    ) -> Future:
        """Fire one single-query attend; resolves to the ``(d_v,)`` row."""
        inner = self._traced_attend(
            session_id, np.asarray(query, dtype=np.float64), tier, trace_ctx
        )
        outer: Future = Future()

        def finish(done) -> None:
            error = done.exception()
            if error is not None:
                outer.set_exception(error)
            else:
                row = done.result().outputs
                outer.set_result(row[0] if row.ndim == 2 else row)

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
        future = self._traced_attend(session_id, queries, tier)
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
        """Say goodbye and tear the connection down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            with self._send_lock:
                self._sock.sendall(
                    protocol.encode_frame(protocol.OP_GOODBYE, 0)
                )
        except OSError:
            pass
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

    Build with :meth:`connect`; every method of the sync surface exists
    as a coroutine.  One connection, one reader task, out-of-order
    correlated responses.  ``max_payload_bytes`` bounds frames in both
    directions, and :meth:`aclose` fails the requests still in flight
    with :class:`~repro.serve.request.ServerClosedError`, as the sync
    client's ``close`` does.
    """

    def __init__(self, reader, writer, *, max_payload_bytes, tracer=None):
        self._reader = reader
        self._writer = writer
        self._assembler = protocol.FrameAssembler(max_payload_bytes)
        self._pending: dict[int, asyncio.Future] = {}
        self._corr = itertools.count(1)
        self._closed = False
        self._broken: Exception | None = None
        self.tracer = tracer
        self._read_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    @classmethod
    async def connect(
        cls,
        address,
        port=None,
        *,
        max_payload_bytes: int = protocol.MAX_PAYLOAD_BYTES,
        tracer: Tracer | None = None,
    ) -> "AsyncAttentionClient":
        host, resolved_port = parse_address(address, port)
        reader, writer = await asyncio.open_connection(host, resolved_port)
        return cls(
            reader,
            writer,
            max_payload_bytes=max_payload_bytes,
            tracer=tracer,
        )

    async def _read_loop(self) -> None:
        try:
            while True:
                data = await self._reader.read(_RECV_CHUNK)
                if not data:
                    break
                try:
                    frames = self._assembler.feed(data)
                except protocol.ProtocolError as exc:
                    self._fail_pending(exc)
                    return
                for opcode, corr_id, payload in frames:
                    future = self._pending.pop(corr_id, None)
                    if future is None or future.done():
                        continue
                    try:
                        future.set_result(
                            protocol.decode_result(opcode, payload)
                        )
                    except BaseException as exc:  # noqa: BLE001
                        future.set_exception(exc)
        except (asyncio.CancelledError, OSError):
            pass
        finally:
            self._fail_pending(_stranded_error(self._closed))

    def _fail_pending(self, error: Exception) -> None:
        self._broken = error
        stranded, self._pending = list(self._pending.values()), {}
        for future in stranded:
            if not future.done():
                future.set_exception(error)

    async def _call(self, op, trace_ctx: TraceContext | None = None):
        if self._closed:
            raise protocol.ConnectionLostError("client is closed")
        if self._broken is not None:
            raise protocol.ConnectionLostError(str(self._broken))
        corr_id = next(self._corr)
        frame = _encode_request(
            op, corr_id, trace_ctx, self._assembler.max_payload
        )
        future = asyncio.get_running_loop().create_future()
        self._pending[corr_id] = future
        self._writer.write(frame)
        await self._writer.drain()
        return await future

    async def attend(
        self, session_id: str, query, tier: str | None = None
    ) -> np.ndarray:
        result = await self.attend_many(session_id, [query], tier=tier)
        return result[0]

    async def attend_many(
        self, session_id: str, queries, tier: str | None = None
    ) -> np.ndarray:
        scope = _TraceScope(
            self.tracer,
            "client_request",
            {"session_id": session_id, "transport": "tcp"},
        ) if self.tracer is not None else None
        op = AttendOp(
            session_id=session_id,
            queries=np.atleast_2d(np.asarray(queries, dtype=np.float64)),
            tier=tier,
        )
        error = None
        try:
            result = await self._call(op, scope.context if scope else None)
            return result.outputs
        except BaseException as exc:
            error = exc
            raise
        finally:
            if scope is not None:
                scope.finish(error)

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
        if self._closed:
            return
        self._closed = True
        try:
            self._writer.write(
                protocol.encode_frame(protocol.OP_GOODBYE, 0)
            )
            await self._writer.drain()
        except (ConnectionError, OSError):
            pass
        self._read_task.cancel()
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "AsyncAttentionClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()
