"""One connection loop for every peer of the wire protocol.

:class:`Connection` serves one peer's :mod:`repro.serve.protocol`
frames against an :class:`~repro.serve.service.AttentionService` with a
blocking reader thread and a writer thread.  It answers network callers
behind a :class:`NetworkFrontend`, and a cluster parent on a spawn
shard's end of its socket pair (:func:`repro.serve.cluster._shard_main`):

* **persistent connections** — one connection carries any number of
  concurrent requests, each stamped with a caller-chosen correlation id;
* **out-of-order responses** — each frame becomes a typed service op
  started at once; responses go out in *completion* order.  Attend ops
  feed the target's existing :class:`~repro.serve.batcher.DynamicBatcher`
  through :meth:`~repro.serve.service.AttentionService.submit_attend`,
  so network traffic batches (and cross-session fuses) with everyone
  else's under the same policy, and a request's
  :class:`~repro.serve.tracing.TraceContext` rides the frame so its
  server-side span tree parents under the remote caller's span;
* **typed wire errors** — backpressure rejects, shutdown, unknown
  sessions, shard loss, invalid inputs, and framing violations each map
  to a distinct :data:`~repro.serve.protocol.OP_ERROR` code.  A frame
  with a bad version or an oversized declaration is answered and
  *skipped* (the connection survives); only an unsyncable stream (bad
  magic) closes the connection;
* **graceful drain** — :meth:`NetworkFrontend.stop` first stops
  accepting, then resolves every in-flight correlated request — served
  if the target can still serve it, a typed
  :class:`~repro.serve.request.ServerClosedError` frame otherwise — and
  only then closes the sockets.  A client blocked on a response during
  shutdown always gets an answer, never a dead socket.
  :meth:`NetworkFrontend.install_signal_handlers` wires
  ``SIGTERM``/``SIGINT`` to that same path.
"""

from __future__ import annotations

import functools
import queue
import signal
import socket
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

from repro.serve import protocol
from repro.serve.request import ServerClosedError
from repro.serve.service import AttendOp, AttentionService, PingOp

__all__ = ["Connection", "NetworkFrontend"]

_RECV_CHUNK = 1 << 16


class Connection:
    """One peer's frames, answered by a reader and a writer thread.

    :meth:`serve` is the reader: it starts each attend with
    ``service.submit_attend`` on its own thread (admission may block
    under ``overload="block"``, stalling this connection alone), answers
    pings at once, and hands every other op to the shared ``executor``:
    control ops block (registration sorts the key), and an inline one
    would stall the attends of the other streams sharing the connection.
    The writer sends answers in completion order and stops at its first
    failed send.  When reading ends (hang-up, goodbye, bad framing or
    :meth:`stop_reading`), requests in flight have until the drain
    deadline to resolve, the rest get typed ``ServerClosedError``
    frames, and the socket closes once the writer is done.
    """

    def __init__(
        self,
        sock: socket.socket,
        service: AttentionService,
        executor: ThreadPoolExecutor,
        *,
        max_payload_bytes: int = protocol.MAX_PAYLOAD_BYTES,
        drain_timeout_seconds: float = 10.0,
    ):
        self.sock = sock
        self.service = service
        self.executor = executor
        self.max_payload_bytes = max_payload_bytes
        self.drain_timeout_seconds = drain_timeout_seconds
        #: correlation id -> in-flight service Future
        self.pending: dict[int, Future] = {}
        # Guards ``pending`` and ``_deadline``; notified as they change.
        self._changed = threading.Condition()
        #: ``time.monotonic()`` by which in-flight requests must resolve;
        #: ``None`` while the connection reads.
        self._deadline: float | None = None
        self._outbox: queue.SimpleQueue = queue.SimpleQueue()
        self._writer = threading.Thread(
            target=self._write_loop, name="repro-conn-writer", daemon=True
        )

    def serve(self) -> None:
        """Read and answer frames until reading ends, then drain and
        close (see the class docstring).  Blocks the calling thread."""
        self._writer.start()
        try:
            self._read_loop()
        finally:
            self._finish()

    def stop_reading(self, deadline: float) -> None:
        """Take no new frames; requests in flight have until
        ``deadline`` (a ``time.monotonic()`` reading) to resolve."""
        with self._changed:
            if self._deadline is None or deadline < self._deadline:
                self._deadline = deadline
            self._changed.notify_all()
        try:
            self.sock.shutdown(socket.SHUT_RD)  # wakes a blocked recv
        except OSError:
            pass

    def _read_loop(self) -> None:
        assembler = protocol.FrameAssembler(self.max_payload_bytes)
        data = b""
        while self._deadline is None:
            try:
                frames = assembler.feed(data)
            except (
                protocol.FrameTooLargeError,
                protocol.UnsupportedVersionError,
            ) as exc:
                # The frame boundary holds: answer, skip, go on.
                self._answer(exc.corr_id, error=exc)
                data = b""
                continue
            except protocol.BadFrameError as exc:
                # Unsyncable: answer with corr id 0 (the protocol's "no
                # correlation") and hang up.
                self._answer(0, error=exc)
                return
            for opcode, corr_id, payload in frames:
                if opcode == protocol.OP_GOODBYE or self._deadline is not None:
                    return
                self._start(corr_id, opcode, payload)
            if frames:
                data = b""  # a rejected header may follow them: feed again
                continue
            try:
                data = self.sock.recv(_RECV_CHUNK)
            except OSError:
                return
            if not data:
                return

    def _start(self, corr_id: int, opcode: int, payload: bytes) -> None:
        # Payload garbage, a duplicate correlation id and an admission
        # reject are each answered with a typed error frame; the frame
        # boundary was sound, so the connection goes on.
        try:
            op, trace_ctx = protocol.decode_op(opcode, payload)
            if corr_id in self.pending:
                raise protocol.BadFrameError(
                    f"correlation id {corr_id} is already in flight"
                )
            if isinstance(op, AttendOp):
                future = self.service.submit_attend(op, trace_ctx=trace_ctx)
            elif isinstance(op, PingOp):
                self._answer(corr_id, self.service.call(op))
                return
            else:
                future = self.executor.submit(self.service.call, op)
        except Exception as exc:  # noqa: BLE001 — answered typed
            self._answer(corr_id, error=exc)
            return
        with self._changed:
            self.pending[corr_id] = future
        future.add_done_callback(functools.partial(self._complete, corr_id))

    def _complete(self, corr_id: int, future: Future) -> None:
        with self._changed:
            if self.pending.pop(corr_id, None) is None:
                return  # already answered by the drain
            error = future.exception()
            result = future.result() if error is None else None
            self._answer(corr_id, result, error)
            self._changed.notify_all()

    def _answer(self, corr_id: int, result=None, error=None) -> None:
        self._outbox.put((corr_id, result, error))

    def _write_loop(self) -> None:
        while (item := self._outbox.get()) is not None:
            corr_id, result, error = item
            try:
                if error is None:
                    frame = protocol.encode_result(result, corr_id)
                else:
                    frame = protocol.encode_error(error, corr_id)
            except Exception as exc:  # noqa: BLE001 — answered typed
                frame = protocol.encode_error(exc, corr_id)
            try:
                self.sock.sendall(frame)
            except OSError:
                # The peer is gone: drop what is left rather than write
                # it into a dead socket, and wake the reader.
                self._hang_up()
                return

    def _hang_up(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def _finish(self) -> None:
        with self._changed:
            if self._deadline is None:  # the peer ended the connection
                self._deadline = time.monotonic() + self.drain_timeout_seconds
            while self.pending:
                left = self._deadline - time.monotonic()
                if left <= 0:
                    break
                self._changed.wait(left)
            # Whatever is still unresolved gets a typed error — the peer
            # is never left holding a correlation id that just goes dark.
            stranded, self.pending = list(self.pending), {}
            for corr_id in stranded:
                self._answer(
                    corr_id,
                    error=ServerClosedError("server stopped before dispatch"),
                )
            self._outbox.put(None)
        # The writer gets the drain's patience again to hand the answers
        # over; a peer that does not read them by then is cut off.
        self._writer.join(self.drain_timeout_seconds)
        if self._writer.is_alive():
            self._hang_up()
            self._writer.join()
        self.sock.close()


class NetworkFrontend:
    """A TCP front door for one serving target.

    A listening socket and an accept thread; each accepted connection is
    a :class:`Connection` served on its own thread, and control ops of
    every connection share one thread pool.

    Parameters
    ----------
    target:
        An :class:`AttentionServer`, :class:`ShardedAttentionServer`,
        or a prebuilt :class:`~repro.serve.service.AttentionService`.
    host / port:
        Bind address; port ``0`` picks a free port (read it back from
        :attr:`address` / :attr:`port` after :meth:`start`).
    max_payload_bytes:
        Per-frame payload bound; larger declarations are answered with
        a typed :class:`~repro.serve.protocol.FrameTooLargeError` and
        skipped.
    drain_timeout_seconds:
        Patience of the drain phase of :meth:`stop` (and of the
        best-effort drain when a client disconnects with requests in
        flight).  In-flight requests still unresolved when it expires
        are answered with typed ``ServerClosedError`` frames.
    own_target:
        When ``True``, :meth:`start`/:meth:`stop` also start/stop the
        wrapped target (stop drains the target first, so queued
        requests resolve with results rather than rejects).
    """

    def __init__(
        self,
        target,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_payload_bytes: int = protocol.MAX_PAYLOAD_BYTES,
        drain_timeout_seconds: float = 10.0,
        own_target: bool = False,
    ):
        if isinstance(target, AttentionService):
            self.service = target
        else:
            self.service = AttentionService(target)
        self._host = host
        self._port = port
        self.max_payload_bytes = max_payload_bytes
        self.drain_timeout_seconds = drain_timeout_seconds
        self.own_target = own_target
        self._listener: socket.socket | None = None
        self._acceptor: threading.Thread | None = None
        #: each open connection -> the thread serving it
        self._connections: dict[Connection, threading.Thread] = {}
        self._executor = ThreadPoolExecutor(
            thread_name_prefix="repro-frontend-op"
        )
        self._bound: tuple[str, int] | None = None
        self._stopped = threading.Event()
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "NetworkFrontend":
        if self._started:
            raise RuntimeError("frontend already started")
        if self.own_target and hasattr(self.service.target, "start"):
            if not getattr(self.service.target, "running", False):
                self.service.target.start()
        family = socket.AF_INET6 if ":" in self._host else socket.AF_INET
        self._listener = socket.create_server(
            (self._host, self._port), family=family
        )
        self._bound = self._listener.getsockname()[:2]
        self._started = True
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="repro-frontend", daemon=True
        )
        self._acceptor.start()
        return self

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (after :meth:`start`)."""
        if self._bound is None:
            raise RuntimeError("frontend is not started")
        return self._bound

    @property
    def port(self) -> int:
        return self.address[1]

    @property
    def running(self) -> bool:
        return self._started and not self._stopped.is_set()

    def stop(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting, drain in-flight requests, close the sockets.

        Every request that was correlated on any connection when the
        stop landed resolves **before its socket closes**: with its
        result if the target serves it (``own_target`` stops drain the
        target first, resolving its whole backlog), with a typed error
        frame otherwise.  ``drain=False`` skips waiting and converts
        all in-flight requests to typed ``ServerClosedError`` frames
        immediately.  Idempotent.
        """
        if not self._started or self._stopped.is_set():
            return
        self._stopped.set()
        patience = (
            self.drain_timeout_seconds if timeout is None else timeout
        )
        try:
            self._listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
        except OSError:
            pass
        self._listener.close()
        self._acceptor.join(10.0)
        deadline = time.monotonic() + (patience if drain else 0.0)
        connections = dict(self._connections)
        for conn in connections:
            conn.stop_reading(deadline)
        if self.own_target and hasattr(self.service.target, "stop"):
            # Stopping the target resolves every admitted request's
            # future (the server's deterministic-shutdown contract), so
            # the drains finish promptly with real answers.
            self.service.target.stop(patience, drain=drain)
        # Each connection's writer gets the drain's patience again after
        # the deadline to hand its answers over.
        closing = deadline + self.drain_timeout_seconds
        for thread in connections.values():
            thread.join(max(0.0, closing - time.monotonic()))
        self._executor.shutdown(wait=False)
        self.service.close()

    def __enter__(self) -> "NetworkFrontend":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def install_signal_handlers(self, signals=(signal.SIGTERM, signal.SIGINT)):
        """Route ``SIGTERM``/``SIGINT`` to a graceful drain-stop.

        Call from the main thread (the only thread allowed to set
        signal handlers).  The handler runs :meth:`stop` on a fresh
        thread — signal context must not block — and restores the
        previous handler so a second signal force-exits.
        """
        previous = {}

        def handle(signum, frame):
            for sig, old in previous.items():
                signal.signal(sig, old)
            threading.Thread(
                target=self.stop, name="repro-frontend-sigstop", daemon=True
            ).start()

        for sig in signals:
            previous[sig] = signal.signal(sig, handle)
        return previous

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # the listener closed: stop() is under way
            # Answers are small frames written as they complete; Nagle
            # would hold each one for the peer's delayed ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = Connection(
                sock,
                self.service,
                self._executor,
                max_payload_bytes=self.max_payload_bytes,
                drain_timeout_seconds=self.drain_timeout_seconds,
            )
            self._connections[conn] = thread = threading.Thread(
                target=self._serve, args=(conn,), name="repro-frontend-conn",
                daemon=True,
            )
            thread.start()

    def _serve(self, conn: Connection) -> None:
        try:
            conn.serve()
        finally:
            self._connections.pop(conn, None)
