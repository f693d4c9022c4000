"""The versioned binary wire protocol of the network serving layer.

Every message on a connection is one **frame**::

    0      4        5      6           14          18
    +------+--------+------+-----------+-----------+----------------+
    | A3RP | version|  op  |  corr id  |  length   |    payload     |
    +------+--------+------+-----------+-----------+----------------+
     magic    u8      u8       u64be       u32be      length bytes

* ``magic`` — ``b"A3RP"``; anything else is a framing error (the
  stream cannot be resynchronized, the connection must close).
* ``version`` — :data:`PROTOCOL_VERSION`.  A mismatched version is a
  typed error (:class:`UnsupportedVersionError`); the frame boundary is
  still trusted (the header layout is the versioned contract), so the
  connection survives.
* ``op`` — one code per service op / result kind (``OP_*`` constants,
  tabled below).
* ``corr id`` — caller-chosen correlation id echoed on the response, so
  any number of requests can be in flight per connection and responses
  return in completion order, not submission order.
* ``length`` — payload byte count, bounded by the decoder's
  ``max_payload`` (:class:`FrameTooLargeError` beyond it — the reader
  may discard the declared length and keep the connection).

Payloads are **typed binary encodings, never pickle** — not just on the
attend hot path but for every op: strings are length-prefixed UTF-8,
ndarrays travel as raw ``dtype/shape/bytes`` planes (bit-exact for NaN
payloads and ``-0.0`` — the bytes are the array), and the structured
ops (:mod:`repro.serve.service` dataclasses) are field-by-field
compositions of those.  Unpickling attacker-controlled bytes is how
serving front ends get owned; this protocol never gives the payload a
code path to ``pickle.loads``.

Errors are **typed frames**: :data:`OP_ERROR` carries a ``u16`` error
code plus a message, and :func:`decode_error` rebuilds the matching
Python exception — backpressure rejects
(:class:`~repro.serve.request.ServerOverloadedError`), shard loss
(:class:`~repro.serve.request.ShardUnavailableError`), unknown
sessions, shutdown, invalid inputs, and the protocol's own framing
errors each map to a distinct code, so remote callers can tell a retryable
condition from a fatal one exactly as in-process callers do.

The same frames carry two kinds of traffic, both answered by one
connection loop (:class:`~repro.serve.frontend.Connection`): network
clients talking to a :class:`~repro.serve.frontend.NetworkFrontend`,
and a sharded cluster talking to its spawn shards over a socket pair
(the shard-level ops — adoption, session stats, telemetry, spans —
serve the latter, but any frontend answers them too).

Opcodes, requests then responses (payload layouts in :func:`encode_op`
and :func:`encode_result`)::

    0x01 attend      0x02 register        0x03 close session  0x04 mutate
    0x05 set tier    0x06 snapshot        0x07 metrics        0x08 ping
    0x09 adopt       0x0A session stats   0x0B telemetry      0x0C spans
    0x0F goodbye
    0x11 rows        0x12 JSON record     0x13 telemetry      0x1F error

A ``0x13`` telemetry answer carries one server's books (a
:class:`~repro.serve.service.TelemetryResult`) with every double in a
raw float64 plane, so reservoirs of any size cross bit-exact::

    plane   latency reservoir
    plane   queue-wait reservoir
    plane   service-time reservoir
    plane   cache prepare seconds (one element)
    u16     tier count, then per tier: tier name, latency-reservoir plane
    JSON    {"stats": integer counters and [key, count] pairs,
             "cache": CacheStats counters, "occupancy", "fill_exits",
             "selection", "default_tier", "spans"}
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict

import numpy as np

from repro.core.backends import BackendStats, KeyFingerprint
from repro.errors import ConfigError, ReproError, ShapeError
from repro.serve.mutator import (
    AppendRowsMutation,
    DeleteRowsMutation,
    ReplaceKeyMutation,
)
from repro.serve.request import (
    ServeError,
    ServerClosedError,
    ServerOverloadedError,
    ShardUnavailableError,
    UnknownSessionError,
)
from repro.serve.service import (
    AdoptSessionOp,
    AttendOp,
    AttendResult,
    CloseSessionOp,
    MetricsOp,
    MetricsResult,
    MutateSessionOp,
    PingOp,
    Pong,
    RegisterSessionOp,
    SessionInfo,
    SessionStatsOp,
    SetTierOp,
    SnapshotOp,
    SnapshotResult,
    SpansOp,
    SpansResult,
    TelemetryOp,
    TelemetryResult,
    TierResult,
)
from repro.serve.sessions import CacheStats
from repro.serve.stats import ServerStats
from repro.serve.tracing import TraceContext

__all__ = [
    "PROTOCOL_VERSION",
    "HEADER",
    "MAGIC",
    "MAX_PAYLOAD_BYTES",
    "ProtocolError",
    "BadFrameError",
    "UnsupportedVersionError",
    "FrameTooLargeError",
    "ConnectionLostError",
    "encode_frame",
    "decode_header",
    "FrameAssembler",
    "encode_op",
    "decode_op",
    "encode_result",
    "decode_result",
    "encode_error",
    "decode_error",
    "error_code_for",
]

MAGIC = b"A3RP"
PROTOCOL_VERSION = 3
HEADER = struct.Struct(">4sBBQI")
#: Default payload bound: generous for key/value registration frames,
#: small enough that a hostile length field cannot balloon memory.
MAX_PAYLOAD_BYTES = 256 * 1024 * 1024
_F64 = struct.Struct(">d")
#: BackendStats counters a session-stats / telemetry answer carries.
_SELECTION_FIELDS = (
    "calls", "total_rows", "total_candidates", "total_kept",
    "topk_included", "topk_total", "dropped_traces",
)

# -- op codes ----------------------------------------------------------
OP_ATTEND = 0x01
OP_REGISTER = 0x02
OP_CLOSE_SESSION = 0x03
OP_MUTATE = 0x04
OP_SET_TIER = 0x05
OP_SNAPSHOT = 0x06
OP_METRICS = 0x07
OP_PING = 0x08
OP_ADOPT = 0x09
OP_SESSION_STATS = 0x0A
OP_TELEMETRY = 0x0B
OP_SPANS = 0x0C
OP_GOODBYE = 0x0F  # client-initiated graceful connection close

OP_RESULT_ROWS = 0x11  # AttendResult: one ndarray plane
OP_RESULT_JSON = 0x12  # structured results (SessionInfo, snapshots, ...)
OP_RESULT_TELEMETRY = 0x13  # TelemetryResult: raw float planes + JSON
OP_ERROR = 0x1F

# -- error codes -------------------------------------------------------
ERR_BAD_FRAME = 1
ERR_UNSUPPORTED_VERSION = 2
ERR_FRAME_TOO_LARGE = 3
ERR_OVERLOADED = 4
ERR_CLOSED = 5
ERR_UNKNOWN_SESSION = 6
ERR_SHARD_UNAVAILABLE = 7
ERR_INVALID = 8
ERR_INTERNAL = 9


class ProtocolError(ServeError):
    """Base class for wire-format violations."""


class BadFrameError(ProtocolError):
    """Garbage where a frame should be: bad magic, truncated header or
    payload, or a payload that does not decode as its op demands."""


class _RejectedFrameError(ProtocolError):
    """A frame refused on its header alone: with its ``corr_id`` and
    ``payload_length`` a reader answers it and skips exactly its
    payload, keeping the connection."""

    def __init__(self, message: str, payload_length: int = 0, corr_id: int = 0):
        super().__init__(message)
        self.payload_length = payload_length
        self.corr_id = corr_id


class UnsupportedVersionError(_RejectedFrameError):
    """The peer speaks a protocol version this build does not."""


class FrameTooLargeError(_RejectedFrameError):
    """A frame declared a payload beyond the decoder's bound."""


class ConnectionLostError(ShardUnavailableError):
    """The transport died with requests still in flight.

    A lost connection is a lost shard: the request may never have been
    read, so it is the retryable :class:`ShardUnavailableError` a
    cluster fails over on.
    """


_ERRORS = {
    ERR_BAD_FRAME: BadFrameError,
    ERR_UNSUPPORTED_VERSION: UnsupportedVersionError,
    ERR_FRAME_TOO_LARGE: FrameTooLargeError,
    ERR_OVERLOADED: ServerOverloadedError,
    ERR_CLOSED: ServerClosedError,
    ERR_UNKNOWN_SESSION: UnknownSessionError,
    ERR_SHARD_UNAVAILABLE: ShardUnavailableError,
    ERR_INVALID: ConfigError,
    ERR_INTERNAL: ServeError,
}


def error_code_for(error: BaseException) -> int:
    """The wire code one exception maps to (most specific class wins)."""
    if isinstance(error, FrameTooLargeError):
        return ERR_FRAME_TOO_LARGE
    if isinstance(error, UnsupportedVersionError):
        return ERR_UNSUPPORTED_VERSION
    if isinstance(error, BadFrameError):
        return ERR_BAD_FRAME
    if isinstance(error, ServerOverloadedError):
        return ERR_OVERLOADED
    if isinstance(error, ServerClosedError):
        return ERR_CLOSED
    if isinstance(error, UnknownSessionError):
        return ERR_UNKNOWN_SESSION
    if isinstance(error, ShardUnavailableError):
        return ERR_SHARD_UNAVAILABLE
    if isinstance(error, (ConfigError, ShapeError, TypeError, ValueError)):
        return ERR_INVALID
    return ERR_INTERNAL


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------


def encode_frame(op: int, corr_id: int, payload: bytes = b"") -> bytes:
    return (
        HEADER.pack(MAGIC, PROTOCOL_VERSION, op, corr_id, len(payload))
        + payload
    )


def decode_header(
    header: bytes, max_payload: int = MAX_PAYLOAD_BYTES
) -> tuple[int, int, int]:
    """Validate one 18-byte header → ``(op, corr_id, payload_length)``.

    Raises :class:`BadFrameError` on bad magic (unsyncable — close the
    connection), :class:`UnsupportedVersionError` on a version mismatch
    and :class:`FrameTooLargeError` on an oversized declaration (both
    recoverable: the boundary is still trustworthy, and the error
    carries the frame's ``corr_id`` and ``payload_length``).
    """
    if len(header) != HEADER.size:
        raise BadFrameError(
            f"truncated header: {len(header)} of {HEADER.size} bytes"
        )
    magic, version, op, corr_id, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise BadFrameError(f"bad magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise UnsupportedVersionError(
            f"protocol version {version} not supported "
            f"(this build speaks {PROTOCOL_VERSION})",
            payload_length=length,
            corr_id=corr_id,
        )
    if length > max_payload:
        raise FrameTooLargeError(
            f"frame declares {length} payload bytes "
            f"(bound is {max_payload})",
            payload_length=length,
            corr_id=corr_id,
        )
    return op, corr_id, length


class FrameAssembler:
    """Incremental frame decoder for stream transports.

    Feed arbitrary byte chunks; complete ``(op, corr_id, payload)``
    triples come out.  Header-level violations raise out of
    :meth:`feed` exactly as :func:`decode_header` classifies them; the
    assembler is then poisoned for :class:`BadFrameError` (the stream
    position is untrustworthy) but continues across version and size
    errors by skipping the declared payload.  Frames completed before
    a bad header come out first and the header raises on the next feed,
    so a reader feeds ``b""`` after any feed that returned frames.
    """

    def __init__(self, max_payload: int = MAX_PAYLOAD_BYTES):
        self.max_payload = max_payload
        self._buffer = bytearray()
        self._skip = 0  # payload bytes of a rejected frame left to discard
        self._error: ProtocolError | None = None  # raised by the next feed
        self._poisoned = False

    def feed(self, data: bytes) -> list[tuple[int, int, bytes]]:
        if self._poisoned and self._error is None:
            raise BadFrameError("stream is unsynchronized; reconnect")
        self._buffer.extend(data)
        if self._error is not None:
            error, self._error = self._error, None
            raise error
        frames: list[tuple[int, int, bytes]] = []
        while True:
            if self._skip:
                drop = min(self._skip, len(self._buffer))
                del self._buffer[:drop]
                self._skip -= drop
                if self._skip:
                    return frames
            if len(self._buffer) < HEADER.size:
                return frames
            try:
                op, corr_id, length = decode_header(
                    bytes(self._buffer[: HEADER.size]), self.max_payload
                )
            except ProtocolError as exc:
                if isinstance(exc, _RejectedFrameError):
                    # The versioned contract covers the header layout,
                    # so the length field is still trusted for resync.
                    del self._buffer[: HEADER.size]
                    self._skip = exc.payload_length
                else:
                    self._poisoned = True
                if frames:
                    self._error = exc
                    return frames
                raise
            if len(self._buffer) < HEADER.size + length:
                return frames
            payload = bytes(
                self._buffer[HEADER.size : HEADER.size + length]
            )
            del self._buffer[: HEADER.size + length]
            frames.append((op, corr_id, payload))


# ----------------------------------------------------------------------
# primitive encodings
# ----------------------------------------------------------------------


def _put_str(out: bytearray, text: str | None) -> None:
    if text is None:
        out.extend((0xFFFF).to_bytes(2, "big"))
        return
    raw = text.encode("utf-8")
    if len(raw) >= 0xFFFF:
        raise ProtocolError(f"string field too long ({len(raw)} bytes)")
    out.extend(len(raw).to_bytes(2, "big"))
    out.extend(raw)


class _Cursor:
    """Bounds-checked reader over one payload."""

    def __init__(self, payload: bytes):
        self.payload = payload
        self.offset = 0

    def take(self, count: int) -> bytes:
        end = self.offset + count
        if count < 0 or end > len(self.payload):
            raise BadFrameError(
                f"payload truncated: wanted {count} bytes at offset "
                f"{self.offset} of {len(self.payload)}"
            )
        chunk = self.payload[self.offset : end]
        self.offset = end
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self.take(2), "big")

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def f64(self) -> float:
        return _F64.unpack(self.take(8))[0]

    def string(self) -> str | None:
        length = self.u16()
        if length == 0xFFFF:
            return None
        raw = self.take(length)
        try:
            return raw.decode("utf-8", errors="strict")
        except UnicodeDecodeError as exc:
            raise BadFrameError(f"undecodable string field: {exc}") from exc

    def done(self) -> None:
        if self.offset != len(self.payload):
            raise BadFrameError(
                f"{len(self.payload) - self.offset} trailing payload bytes"
            )


def _put_array(out: bytearray, array: np.ndarray) -> None:
    """Append one ndarray plane: dtype str, shape, raw little-endian
    C-order bytes.  Bit-exact: NaN payloads and signed zeros survive."""
    array = np.asarray(array)
    if array.dtype.hasobject or array.dtype.kind in "OVU":
        raise ProtocolError(
            f"dtype {array.dtype} is not wire-encodable"
        )
    le = array.dtype.newbyteorder("<")
    data = np.ascontiguousarray(array, dtype=le)
    _put_str(out, data.dtype.str)
    out.append(array.ndim)
    for dim in array.shape:
        out.extend(int(dim).to_bytes(4, "big"))
    out.extend(data.tobytes())


def _take_array(cursor: _Cursor) -> np.ndarray:
    dtype_str = cursor.string()
    if dtype_str is None:
        raise BadFrameError("array plane is missing its dtype")
    try:
        dtype = np.dtype(dtype_str)
    except TypeError as exc:
        raise BadFrameError(f"bad array dtype {dtype_str!r}") from exc
    if dtype.hasobject:
        raise BadFrameError(f"refusing object dtype {dtype_str!r}")
    ndim = cursor.u8()
    if ndim > 8:
        raise BadFrameError(f"array rank {ndim} is implausible")
    shape = tuple(cursor.u32() for _ in range(ndim))
    count = 1
    for dim in shape:
        count *= dim
    nbytes = count * dtype.itemsize
    raw = cursor.take(nbytes)
    try:
        array = np.frombuffer(raw, dtype=dtype).reshape(shape)
        # Native byte order, writable copy: downstream code treats
        # request arrays as ordinary ndarrays it may own.
        return array.astype(dtype.newbyteorder("="), copy=True)
    except (TypeError, ValueError) as exc:
        raise BadFrameError(f"undecodable array plane: {exc}") from exc


def _put_json(out: bytearray, value) -> None:
    out.extend(json.dumps(value, separators=(",", ":")).encode("utf-8"))


def _put_fingerprint(out: bytearray, fingerprint: KeyFingerprint) -> None:
    out.append(len(fingerprint.shape))
    for dim in fingerprint.shape:
        out.extend(int(dim).to_bytes(4, "big"))
    out.extend(_F64.pack(fingerprint.total))
    out.extend(_F64.pack(fingerprint.weighted))


def _take_fingerprint(cursor: _Cursor) -> KeyFingerprint:
    shape = tuple(cursor.u32() for _ in range(cursor.u8()))
    return KeyFingerprint(
        shape=shape, total=cursor.f64(), weighted=cursor.f64()
    )


def _selection_record(stats: BackendStats) -> dict:
    """The selection counters only: per-query traces stay where they
    were recorded."""
    return {name: getattr(stats, name) for name in _SELECTION_FIELDS}


def _selection(record: dict) -> BackendStats:
    return BackendStats(
        keep_traces=False,
        **{name: int(record[name]) for name in _SELECTION_FIELDS},
    )

# ----------------------------------------------------------------------
# op payloads
# ----------------------------------------------------------------------

_MUT_APPEND = 1
_MUT_DELETE = 2
_MUT_REPLACE = 3


def encode_op(
    op, corr_id: int, trace_ctx: TraceContext | None = None
) -> bytes:
    """One service op (:mod:`repro.serve.service`) → a complete frame."""
    out = bytearray()
    if isinstance(op, AttendOp):
        _put_str(out, op.session_id)
        _put_str(out, op.tier)
        _put_str(out, trace_ctx.trace_id if trace_ctx else None)
        _put_str(out, trace_ctx.span_id if trace_ctx else None)
        _put_array(out, np.atleast_2d(np.asarray(op.queries)))
        return encode_frame(OP_ATTEND, corr_id, bytes(out))
    if isinstance(op, RegisterSessionOp):
        _put_str(out, op.session_id)
        _put_array(out, op.key)
        _put_array(out, op.value)
        return encode_frame(OP_REGISTER, corr_id, bytes(out))
    if isinstance(op, AdoptSessionOp):
        _put_str(out, op.session_id)
        _put_str(out, op.segment_name)
        _put_fingerprint(out, op.fingerprint)
        return encode_frame(OP_ADOPT, corr_id, bytes(out))
    if isinstance(op, SessionStatsOp):
        _put_str(out, op.session_id)
        return encode_frame(OP_SESSION_STATS, corr_id, bytes(out))
    if isinstance(op, TelemetryOp):
        return encode_frame(OP_TELEMETRY, corr_id)
    if isinstance(op, SpansOp):
        return encode_frame(OP_SPANS, corr_id)
    if isinstance(op, CloseSessionOp):
        _put_str(out, op.session_id)
        return encode_frame(OP_CLOSE_SESSION, corr_id, bytes(out))
    if isinstance(op, MutateSessionOp):
        _put_str(out, op.session_id)
        mutation = op.mutation
        if isinstance(mutation, AppendRowsMutation):
            out.append(_MUT_APPEND)
            _put_array(out, np.atleast_2d(np.asarray(mutation.key_rows)))
            _put_array(out, np.atleast_2d(np.asarray(mutation.value_rows)))
        elif isinstance(mutation, DeleteRowsMutation):
            out.append(_MUT_DELETE)
            _put_array(out, np.asarray(mutation.rows, dtype=np.int64))
        elif isinstance(mutation, ReplaceKeyMutation):
            out.append(_MUT_REPLACE)
            out.extend(int(mutation.row).to_bytes(4, "big"))
            _put_array(out, np.asarray(mutation.key_row, dtype=np.float64))
            if mutation.value_row is None:
                out.append(0)
            else:
                out.append(1)
                _put_array(
                    out, np.asarray(mutation.value_row, dtype=np.float64)
                )
        else:
            raise ProtocolError(
                f"mutation {type(mutation).__name__} is not wire-encodable"
            )
        return encode_frame(OP_MUTATE, corr_id, bytes(out))
    if isinstance(op, SetTierOp):
        _put_str(out, op.tier)
        return encode_frame(OP_SET_TIER, corr_id, bytes(out))
    if isinstance(op, SnapshotOp):
        return encode_frame(OP_SNAPSHOT, corr_id)
    if isinstance(op, MetricsOp):
        return encode_frame(OP_METRICS, corr_id)
    if isinstance(op, PingOp):
        return encode_frame(OP_PING, corr_id)
    raise ProtocolError(f"op {type(op).__name__} is not wire-encodable")


def decode_op(
    opcode: int, payload: bytes
) -> tuple[object, TraceContext | None]:
    """One request frame → ``(service op, trace context or None)``."""
    cursor = _Cursor(payload)
    if opcode == OP_ATTEND:
        session_id = _require_session(cursor)
        tier = cursor.string()
        trace_id = cursor.string()
        span_id = cursor.string()
        queries = _take_array(cursor)
        cursor.done()
        if queries.ndim != 2:
            raise BadFrameError(
                f"attend queries must be 2-D, got shape {queries.shape}"
            )
        ctx = None
        if trace_id is not None and span_id is not None:
            ctx = TraceContext(trace_id=trace_id, span_id=span_id)
        return AttendOp(session_id=session_id, queries=queries, tier=tier), ctx
    if opcode == OP_REGISTER:
        session_id = _require_session(cursor)
        key = _take_array(cursor)
        value = _take_array(cursor)
        cursor.done()
        return (
            RegisterSessionOp(session_id=session_id, key=key, value=value),
            None,
        )
    if opcode == OP_ADOPT:
        session_id = _require_session(cursor)
        segment_name = cursor.string()
        fingerprint = _take_fingerprint(cursor)
        cursor.done()
        if segment_name is None:
            raise BadFrameError("adopt frame is missing the segment name")
        return (
            AdoptSessionOp(
                session_id=session_id,
                segment_name=segment_name,
                fingerprint=fingerprint,
            ),
            None,
        )
    if opcode == OP_SESSION_STATS:
        session_id = _require_session(cursor)
        cursor.done()
        return SessionStatsOp(session_id=session_id), None
    if opcode == OP_TELEMETRY:
        cursor.done()
        return TelemetryOp(), None
    if opcode == OP_SPANS:
        cursor.done()
        return SpansOp(), None
    if opcode == OP_CLOSE_SESSION:
        session_id = _require_session(cursor)
        cursor.done()
        return CloseSessionOp(session_id=session_id), None
    if opcode == OP_MUTATE:
        session_id = _require_session(cursor)
        kind = cursor.u8()
        if kind == _MUT_APPEND:
            key_rows = _take_array(cursor)
            value_rows = _take_array(cursor)
            mutation = AppendRowsMutation(
                key_rows=key_rows, value_rows=value_rows
            )
        elif kind == _MUT_DELETE:
            rows = _take_array(cursor)
            mutation = DeleteRowsMutation(
                rows=tuple(int(r) for r in rows.ravel())
            )
        elif kind == _MUT_REPLACE:
            row = cursor.u32()
            key_row = _take_array(cursor)
            value_row = _take_array(cursor) if cursor.u8() else None
            mutation = ReplaceKeyMutation(
                row=row, key_row=key_row, value_row=value_row
            )
        else:
            raise BadFrameError(f"unknown mutation kind {kind}")
        cursor.done()
        return MutateSessionOp(session_id=session_id, mutation=mutation), None
    if opcode == OP_SET_TIER:
        tier = cursor.string()
        cursor.done()
        if tier is None:
            raise BadFrameError("set-tier frame is missing the tier")
        return SetTierOp(tier=tier), None
    if opcode == OP_SNAPSHOT:
        cursor.done()
        return SnapshotOp(), None
    if opcode == OP_METRICS:
        cursor.done()
        return MetricsOp(), None
    if opcode == OP_PING:
        cursor.done()
        return PingOp(), None
    raise BadFrameError(f"unknown request op 0x{opcode:02x}")


def _require_session(cursor: _Cursor) -> str:
    session_id = cursor.string()
    if session_id is None:
        raise BadFrameError("frame is missing the session id")
    return session_id


# ----------------------------------------------------------------------
# result payloads
# ----------------------------------------------------------------------

#: OP_RESULT_JSON records: ``kind`` plus the dataclass's own fields.
_JSON_RESULTS = {
    "session": SessionInfo,
    "tier": TierResult,
    "snapshot": SnapshotResult,
    "metrics": MetricsResult,
    "pong": Pong,
    "spans": SpansResult,
}
_JSON_KINDS = {cls: kind for kind, cls in _JSON_RESULTS.items()}


def encode_result(result, corr_id: int) -> bytes:
    """One service result → a complete response frame."""
    out = bytearray()
    if isinstance(result, AttendResult):
        _put_array(out, result.outputs)
        return encode_frame(OP_RESULT_ROWS, corr_id, bytes(out))
    if isinstance(result, TelemetryResult):
        _put_telemetry(out, result)
        return encode_frame(OP_RESULT_TELEMETRY, corr_id, bytes(out))
    if isinstance(result, BackendStats):
        record = {"kind": "selection", **_selection_record(result)}
    elif type(result) in _JSON_KINDS:
        record = {"kind": _JSON_KINDS[type(result)], **vars(result)}
    else:
        raise ProtocolError(
            f"result {type(result).__name__} is not wire-encodable"
        )
    _put_json(out, record)
    return encode_frame(OP_RESULT_JSON, corr_id, bytes(out))


def decode_result(opcode: int, payload: bytes):
    """One response frame → the typed service result (or raises the
    decoded exception for :data:`OP_ERROR` frames)."""
    if opcode == OP_ERROR:
        raise decode_error(payload)
    if opcode == OP_RESULT_ROWS:
        cursor = _Cursor(payload)
        outputs = _take_array(cursor)
        cursor.done()
        return AttendResult(outputs=outputs)
    if opcode == OP_RESULT_TELEMETRY:
        return _take_telemetry(_Cursor(payload))
    if opcode == OP_RESULT_JSON:
        record = _json(payload)
        try:
            fields = dict(record)
            kind = fields.pop("kind")
            if kind == "selection":
                return _selection(fields)
            return _JSON_RESULTS[kind](**fields)
        except (KeyError, TypeError, ValueError) as exc:
            raise BadFrameError(f"malformed JSON result: {exc}") from exc
    raise BadFrameError(f"unknown response op 0x{opcode:02x}")


#: The ServerStats reservoirs a telemetry frame opens with, in order.
_RESERVOIR_PLANES = ("latencies", "queue_waits", "service_times")


def _put_telemetry(out: bytearray, result: TelemetryResult) -> None:
    """One server's books: every double in a raw float64 plane
    (bit-exact at any count, NaN payloads included) — the three
    reservoirs, the cache's prepare seconds, then one latency
    reservoir per tier — and the integers, names and spans as one JSON
    record."""
    state = result.stats.state()
    cache = asdict(result.cache)
    for plane in (
        *(state.pop(name) for name in _RESERVOIR_PLANES),
        [cache.pop("prepare_seconds")],
    ):
        _put_array(out, np.asarray(plane, dtype=np.float64))
    tiers = state.pop("tier_latencies")
    out.extend(len(tiers).to_bytes(2, "big"))
    for tier, samples in tiers.items():
        _put_str(out, tier)
        _put_array(out, np.asarray(samples, dtype=np.float64))
    _put_json(
        out,
        {
            "stats": state,
            "cache": cache,
            "occupancy": result.occupancy,
            "fill_exits": result.fill_exits,
            "selection": _selection_record(result.selection),
            "default_tier": result.default_tier,
            "spans": result.spans,
        },
    )


def _take_f64(cursor: _Cursor) -> list[float]:
    plane = _take_array(cursor)
    if plane.dtype != np.float64 or plane.ndim != 1:
        raise BadFrameError(
            f"telemetry plane must be 1-D float64, got {plane.dtype} "
            f"{plane.shape}"
        )
    return plane.tolist()


def _take_telemetry(cursor: _Cursor) -> TelemetryResult:
    """The inverse of :func:`_put_telemetry`."""
    planes = {name: _take_f64(cursor) for name in _RESERVOIR_PLANES}
    prepare_seconds = _take_f64(cursor)
    tiers = {}
    for _ in range(cursor.u16()):
        tier = cursor.string()
        tiers[tier] = _take_f64(cursor)
    record = _json(cursor.take(len(cursor.payload) - cursor.offset))
    try:
        (prepare_seconds,) = prepare_seconds
        return TelemetryResult(
            stats=ServerStats.from_state(
                {**record["stats"], **planes, "tier_latencies": tiers}
            ),
            cache=CacheStats(
                **record["cache"], prepare_seconds=prepare_seconds
            ),
            occupancy={k: int(v) for k, v in record["occupancy"].items()},
            fill_exits={k: int(v) for k, v in record["fill_exits"].items()},
            selection=_selection(record["selection"]),
            default_tier=str(record["default_tier"]),
            spans=list(record["spans"]),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise BadFrameError(f"malformed telemetry record: {exc}") from exc


def _json(raw: bytes):
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadFrameError(f"undecodable JSON result: {exc}") from exc


def encode_error(error: BaseException, corr_id: int) -> bytes:
    out = bytearray()
    out.extend(error_code_for(error).to_bytes(2, "big"))
    _put_str(out, f"{type(error).__name__}: {error}"[:4096])
    return encode_frame(OP_ERROR, corr_id, bytes(out))


def decode_error(payload: bytes) -> Exception:
    cursor = _Cursor(payload)
    code = cursor.u16()
    message = cursor.string() or ""
    cursor.done()
    cls = _ERRORS.get(code)
    if cls is None:
        return ReproError(f"unknown wire error code {code}: {message}")
    return cls(message)
