"""Wire codec property tests: round trips are bit-identical, malformed
frames raise typed errors and never kill the decode loop.

The contract split pinned here:

* **bad magic** → the stream is unsyncable: :class:`BadFrameError`, and
  the :class:`FrameAssembler` poisons itself (every later feed raises);
* **wrong version / oversized declaration** → the *header layout* is
  the versioned contract, so the frame boundary is still trusted: a
  typed error, the declared payload is skipped, and the very next valid
  frame decodes normally;
* **payload garbage** → the boundary was sound: :class:`BadFrameError`
  out of ``decode_op``/``decode_result``, connection loop survives.
"""

import json
import struct
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.backends import BackendStats, KeyFingerprint
from repro.errors import ConfigError, InvalidInputError
from repro.serve import protocol
from repro.serve.cluster import ShardUnavailableError
from repro.serve.mutator import (
    AppendRowsMutation,
    DeleteRowsMutation,
    ReplaceKeyMutation,
)
from repro.serve.protocol import (
    HEADER,
    MAGIC,
    PROTOCOL_VERSION,
    BadFrameError,
    FrameAssembler,
    FrameTooLargeError,
    UnsupportedVersionError,
    decode_error,
    decode_header,
    decode_op,
    decode_result,
    encode_error,
    encode_frame,
    encode_op,
    encode_result,
)
from repro.serve.request import (
    ServerClosedError,
    ServerOverloadedError,
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

# Full-width float64 elements: NaN payloads, signed zeros, infinities,
# and subnormals all ride along — the codec ships raw bytes, so the
# round trip must be *bit*-identical, not merely close.
_floats = st.floats(
    allow_nan=True, allow_infinity=True, allow_subnormal=True, width=64
)
_f64_2d = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 4), st.integers(1, 5)),
    elements=_floats,
)
_f64_1d = hnp.arrays(np.float64, st.integers(1, 5), elements=_floats)
_session_ids = st.text(min_size=1, max_size=32)
_tiers = st.one_of(
    st.none(), st.sampled_from(["exact", "conservative", "aggressive"])
)
_corr_ids = st.integers(0, 2**64 - 1)
_trace_ctxs = st.one_of(
    st.none(),
    st.builds(
        TraceContext,
        trace_id=st.text(min_size=1, max_size=16),
        span_id=st.text(min_size=1, max_size=16),
    ),
)


_u64 = st.integers(0, 2**64 - 1)
_fingerprints = st.builds(
    KeyFingerprint,
    shape=st.lists(st.integers(0, 2**32 - 1), max_size=4).map(tuple),
    total=_floats,
    weighted=_floats,
)
_selections = st.builds(
    lambda counters: BackendStats(keep_traces=False, **counters),
    st.fixed_dictionaries(
        {
            name: _u64
            for name in (
                "calls", "total_rows", "total_candidates", "total_kept",
                "topk_included", "topk_total", "dropped_traces",
            )
        }
    ),
)
# Span dicts travel as JSON, whose float repr round-trips every finite
# double (-0.0 and subnormals included); spans never hold NaN or inf.
_span_floats = st.floats(
    allow_nan=False, allow_infinity=False, allow_subnormal=True, width=64
)
_short = st.text(max_size=8)
_spans = st.lists(
    st.fixed_dictionaries(
        {
            "name": _short,
            "trace_id": _short,
            "span_id": _short,
            "parent_id": st.one_of(st.none(), _short),
            "started_at": _span_floats,
            "ended_at": _span_floats,
            "duration_seconds": _span_floats,
            "pid": st.integers(0, 2**31),
            "attrs": st.dictionaries(
                _short,
                st.one_of(_short, st.integers(-(2**53), 2**53), _span_floats),
                max_size=3,
            ),
        }
    ),
    max_size=3,
)


_int_counts = st.dictionaries(st.integers(0, 2**16), _u64, max_size=3)
_name_counts = st.dictionaries(_short, _u64, max_size=3)
_reservoirs = st.lists(_floats, max_size=6)


@st.composite
def _server_stats(draw):
    """:class:`ServerStats` books with arbitrary counters and raw-double
    reservoirs (NaN payloads, signed zeros, subnormals)."""
    state = {
        name: draw(_u64)
        for name in (
            "submitted", "rejected", "completed", "failed", "batches",
            "dropped_samples", "downgraded_requests", "tier_downgrades",
            "tier_upgrades", "samples_seen", "service_seen",
            "queue_depth_sum", "queue_depth_peak",
        )
    }
    for name in ("batch_size_counts", "fused_segment_counts"):
        state[name] = sorted(draw(_int_counts).items())
    for name in ("tier_submitted", "tier_completed", "tier_failed",
                 "tier_seen"):
        state[name] = sorted(draw(_name_counts).items())
    for name in ("latencies", "queue_waits", "service_times"):
        state[name] = draw(_reservoirs)
    state["tier_latencies"] = draw(
        st.dictionaries(_short, _reservoirs, max_size=3)
    )
    assert set(state) == set(ServerStats().state())
    return ServerStats.from_state(state)


_cache_stats = st.builds(
    CacheStats,
    hits=_u64, misses=_u64, evictions=_u64, prepare_seconds=_floats,
    spills=_u64, promotes=_u64, spill_reaps=_u64,
)


def _bits(value):
    """``value`` with every float replaced by its IEEE-754 bytes, so
    equality means bit-identical (``-0.0 != 0.0``, NaN payloads kept)."""
    if isinstance(value, float):
        return struct.pack(">d", value)
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_bits(item) for item in value)
    return value


def _identical(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.dtype == b.dtype
        and a.shape == b.shape
        and np.ascontiguousarray(a).tobytes()
        == np.ascontiguousarray(b).tobytes()
    )


def _one_frame(frame: bytes, assembler=None):
    frames = (assembler or FrameAssembler()).feed(frame)
    assert len(frames) == 1
    return frames[0]


class TestOpRoundTrip:
    @given(
        session_id=_session_ids,
        tier=_tiers,
        queries=_f64_2d,
        corr_id=_corr_ids,
        ctx=_trace_ctxs,
    )
    @settings(max_examples=80, deadline=None)
    def test_attend(self, session_id, tier, queries, corr_id, ctx):
        frame = encode_op(
            AttendOp(session_id=session_id, queries=queries, tier=tier),
            corr_id,
            ctx,
        )
        opcode, echoed, payload = _one_frame(frame)
        assert opcode == protocol.OP_ATTEND
        assert echoed == corr_id
        op, decoded_ctx = decode_op(opcode, payload)
        assert op.session_id == session_id
        assert op.tier == tier
        assert _identical(op.queries, queries)
        assert decoded_ctx == ctx

    @given(session_id=_session_ids, key=_f64_2d, value=_f64_2d)
    @settings(max_examples=40, deadline=None)
    def test_register(self, session_id, key, value):
        frame = encode_op(
            RegisterSessionOp(session_id=session_id, key=key, value=value), 7
        )
        op, ctx = decode_op(*_one_frame(frame)[::2])
        assert ctx is None
        assert op.session_id == session_id
        assert _identical(op.key, key)
        assert _identical(op.value, value)

    @given(session_id=_session_ids)
    @settings(max_examples=20, deadline=None)
    def test_close_session(self, session_id):
        frame = encode_op(CloseSessionOp(session_id=session_id), 1)
        op, _ = decode_op(*_one_frame(frame)[::2])
        assert op == CloseSessionOp(session_id=session_id)

    @given(session_id=_session_ids, keys=_f64_2d, values=_f64_2d)
    @settings(max_examples=30, deadline=None)
    def test_mutate_append(self, session_id, keys, values):
        frame = encode_op(
            MutateSessionOp(
                session_id=session_id,
                mutation=AppendRowsMutation(key_rows=keys, value_rows=values),
            ),
            3,
        )
        op, _ = decode_op(*_one_frame(frame)[::2])
        assert isinstance(op.mutation, AppendRowsMutation)
        assert _identical(op.mutation.key_rows, keys)
        assert _identical(op.mutation.value_rows, values)

    @given(rows=st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_mutate_delete(self, rows):
        frame = encode_op(
            MutateSessionOp(
                session_id="s", mutation=DeleteRowsMutation(rows=tuple(rows))
            ),
            4,
        )
        op, _ = decode_op(*_one_frame(frame)[::2])
        assert op.mutation == DeleteRowsMutation(rows=tuple(rows))

    @given(
        row=st.integers(0, 2**31 - 1),
        key_row=_f64_1d,
        value_row=st.one_of(st.none(), _f64_1d),
    )
    @settings(max_examples=30, deadline=None)
    def test_mutate_replace(self, row, key_row, value_row):
        frame = encode_op(
            MutateSessionOp(
                session_id="s",
                mutation=ReplaceKeyMutation(
                    row=row, key_row=key_row, value_row=value_row
                ),
            ),
            5,
        )
        op, _ = decode_op(*_one_frame(frame)[::2])
        assert op.mutation.row == row
        assert _identical(op.mutation.key_row, key_row)
        if value_row is None:
            assert op.mutation.value_row is None
        else:
            assert _identical(op.mutation.value_row, value_row)

    @given(
        session_id=_session_ids,
        segment_name=st.text(max_size=40),
        fingerprint=_fingerprints,
    )
    @settings(max_examples=60, deadline=None)
    def test_adopt(self, session_id, segment_name, fingerprint):
        frame = encode_op(
            AdoptSessionOp(session_id, segment_name, fingerprint), 12
        )
        op, ctx = decode_op(*_one_frame(frame)[::2])
        assert ctx is None
        assert (op.session_id, op.segment_name) == (session_id, segment_name)
        assert op.fingerprint.shape == fingerprint.shape
        assert _bits(
            (op.fingerprint.total, op.fingerprint.weighted)
        ) == _bits((fingerprint.total, fingerprint.weighted))

    @given(session_id=_session_ids)
    @settings(max_examples=20, deadline=None)
    def test_session_stats(self, session_id):
        frame = encode_op(SessionStatsOp(session_id), 13)
        op, _ = decode_op(*_one_frame(frame)[::2])
        assert op == SessionStatsOp(session_id)

    def test_control_ops(self):
        for op in (
            SetTierOp(tier="exact"), SnapshotOp(), MetricsOp(), PingOp(),
            TelemetryOp(), SpansOp(),
        ):
            decoded, ctx = decode_op(*_one_frame(encode_op(op, 9))[::2])
            assert decoded == op
            assert ctx is None


class TestResultRoundTrip:
    @given(outputs=_f64_2d, corr_id=_corr_ids)
    @settings(max_examples=60, deadline=None)
    def test_attend_result_bit_identical(self, outputs, corr_id):
        frame = encode_result(AttendResult(outputs=outputs), corr_id)
        opcode, echoed, payload = _one_frame(frame)
        assert echoed == corr_id
        result = decode_result(opcode, payload)
        assert _identical(result.outputs, outputs)

    @given(
        outputs=hnp.arrays(
            st.sampled_from([np.float32, np.int64, np.uint8, np.bool_]),
            st.tuples(st.integers(1, 3), st.integers(1, 4)),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_attend_result_other_dtypes(self, outputs):
        frame = encode_result(AttendResult(outputs=outputs), 1)
        result = decode_result(*_one_frame(frame)[::2])
        assert _identical(result.outputs, outputs)

    def test_structured_results(self):
        cases = [
            SessionInfo(session_id="s", n=3, d=4, d_v=5),
            TierResult(previous="exact"),
            SnapshotResult(snapshot={"a": [1, 2], "b": {"c": 0.5}}),
            MetricsResult(text="# HELP x\nx 1\n"),
            SpansResult(spans=[{"name": "request", "attrs": {"q": 1}}]),
            Pong(),
        ]
        for result in cases:
            decoded = decode_result(*_one_frame(encode_result(result, 2))[::2])
            assert decoded == result

    @given(stats=_selections)
    @settings(max_examples=40, deadline=None)
    def test_selection_counters(self, stats):
        decoded = decode_result(*_one_frame(encode_result(stats, 3))[::2])
        assert decoded == stats

    def test_selection_traces_stay_behind(self):
        stats = BackendStats(keep_traces=True, calls=2, total_rows=7)
        stats.traces.append("a per-query trace")
        decoded = decode_result(*_one_frame(encode_result(stats, 3))[::2])
        assert (decoded.calls, decoded.total_rows) == (2, 7)
        assert decoded.traces == [] and not decoded.keep_traces

    @given(
        stats=_server_stats(),
        cache=_cache_stats,
        occupancy=_name_counts,
        fill_exits=_name_counts,
        selection=_selections,
        default_tier=_short,
        spans=_spans,
    )
    @settings(max_examples=60, deadline=None)
    def test_telemetry(
        self, stats, cache, occupancy, fill_exits, selection, default_tier,
        spans,
    ):
        telemetry = TelemetryResult(
            stats=stats,
            cache=cache,
            occupancy=occupancy,
            fill_exits=fill_exits,
            selection=selection,
            default_tier=default_tier,
            spans=spans,
        )
        frame = encode_result(telemetry, 4)
        opcode, _, payload = _one_frame(frame)
        assert opcode == protocol.OP_RESULT_TELEMETRY
        decoded = decode_result(opcode, payload)
        assert _bits(decoded.stats.state()) == _bits(stats.state())
        assert _bits(asdict(decoded.cache)) == _bits(asdict(cache))
        assert decoded.occupancy == occupancy
        assert decoded.fill_exits == fill_exits
        assert decoded.selection == selection
        assert decoded.default_tier == default_tier
        assert _bits(decoded.spans) == _bits(spans)

    def test_telemetry_samples_keep_signed_zero_and_subnormals(self):
        samples = [-0.0, 5e-324, -2.2250738585072014e-308, float("nan")]
        stats = ServerStats()
        stats.record_batch(samples, samples, -0.0, 0, tier="exact")
        telemetry = TelemetryResult(stats=stats)
        decoded = decode_result(
            *_one_frame(encode_result(telemetry, 5))[::2]
        )
        state = decoded.stats.state()
        for name in ("latencies", "queue_waits"):
            assert _bits(state[name]) == _bits(samples)
        assert _bits(state["service_times"]) == _bits([-0.0])
        assert _bits(state["tier_latencies"]) == _bits({"exact": samples})

    def test_error_frames_round_trip_types(self):
        cases = [
            (ServerOverloadedError("full"), ServerOverloadedError),
            (ServerClosedError("bye"), ServerClosedError),
            (UnknownSessionError("who"), UnknownSessionError),
            (ShardUnavailableError("gone"), ShardUnavailableError),
            (BadFrameError("junk"), BadFrameError),
            (UnsupportedVersionError("v9"), UnsupportedVersionError),
            (FrameTooLargeError("big", payload_length=10), FrameTooLargeError),
            (ConfigError("bad tier"), ConfigError),
            (ValueError("bad input"), ConfigError),  # ERR_INVALID bucket
            (InvalidInputError("NaN key"), ConfigError),  # ERR_INVALID too
            (RuntimeError("boom"), protocol.ServeError),  # ERR_INTERNAL
        ]
        for error, expected_type in cases:
            frame = encode_error(error, 11)
            opcode, echoed, payload = _one_frame(frame)
            assert opcode == protocol.OP_ERROR
            assert echoed == 11
            decoded = decode_error(payload)
            assert type(decoded) is expected_type
            assert str(error) in str(decoded)

    def test_decode_result_raises_decoded_error(self):
        frame = encode_error(ServerOverloadedError("queue full"), 3)
        opcode, _, payload = _one_frame(frame)
        with pytest.raises(ServerOverloadedError, match="queue full"):
            decode_result(opcode, payload)


class TestMalformedFrames:
    def test_truncated_header(self):
        with pytest.raises(BadFrameError, match="truncated"):
            decode_header(b"A3RP\x01")

    def test_bad_magic_poisons_assembler(self):
        assembler = FrameAssembler()
        with pytest.raises(BadFrameError, match="magic"):
            assembler.feed(b"HTTP" + bytes(HEADER.size - 4))
        # The stream position is untrustworthy: even a pristine frame
        # is rejected until the caller reconnects.
        with pytest.raises(BadFrameError, match="unsynchronized"):
            assembler.feed(encode_op(PingOp(), 1))

    def test_wrong_version_skips_frame_and_survives(self):
        assembler = FrameAssembler()
        payload = b"\xde\xad\xbe\xef"
        alien = HEADER.pack(MAGIC, 9, protocol.OP_PING, 5, len(payload))
        with pytest.raises(UnsupportedVersionError):
            assembler.feed(alien + payload)
        # The declared payload was skipped; the next frame is fine.
        frames = assembler.feed(encode_op(PingOp(), 6))
        assert [(op, corr) for op, corr, _ in frames] == [
            (protocol.OP_PING, 6)
        ]

    def test_oversize_skips_declared_payload_and_survives(self):
        assembler = FrameAssembler(max_payload=16)
        big = encode_frame(protocol.OP_ATTEND, 7, bytes(64))
        with pytest.raises(FrameTooLargeError) as excinfo:
            assembler.feed(big[:HEADER.size])
        assert excinfo.value.payload_length == 64
        # Feed the oversized payload in pieces, then a valid frame.
        assert assembler.feed(big[HEADER.size : HEADER.size + 40]) == []
        frames = assembler.feed(big[HEADER.size + 40 :] + encode_op(PingOp(), 8))
        assert [(op, corr) for op, corr, _ in frames] == [
            (protocol.OP_PING, 8)
        ]

    def test_frames_before_a_rejected_header_are_handed_out(self):
        """A chunk with a good frame, a wrong-version frame and another
        good frame loses none of them: the first comes out, the next
        feed raises for the rejected header (carrying its corr id and
        declared length), and the one after yields the third."""
        assembler = FrameAssembler()
        alien = HEADER.pack(MAGIC, 9, protocol.OP_PING, 2, 3) + b"abc"
        chunk = encode_op(PingOp(), 1) + alien + encode_op(PingOp(), 3)
        assert [corr for _, corr, _ in assembler.feed(chunk)] == [1]
        with pytest.raises(UnsupportedVersionError) as excinfo:
            assembler.feed(b"")
        assert (excinfo.value.corr_id, excinfo.value.payload_length) == (2, 3)
        assert [corr for _, corr, _ in assembler.feed(b"")] == [3]
        with pytest.raises(FrameTooLargeError) as excinfo:
            decode_header(
                HEADER.pack(MAGIC, PROTOCOL_VERSION, protocol.OP_PING, 7, 64),
                max_payload=16,
            )
        assert (excinfo.value.corr_id, excinfo.value.payload_length) == (7, 64)

    def test_chunked_reassembly(self):
        frame = encode_op(
            AttendOp(session_id="s", queries=np.ones((2, 3))), 42
        )
        assembler = FrameAssembler()
        collected = []
        for i in range(len(frame)):
            collected.extend(assembler.feed(frame[i : i + 1]))
        assert len(collected) == 1
        op, _ = decode_op(collected[0][0], collected[0][2])
        assert _identical(op.queries, np.ones((2, 3)))

    @given(payload=st.binary(max_size=64), opcode=st.integers(0, 255))
    @settings(max_examples=120, deadline=None)
    def test_garbage_payload_raises_typed_errors_only(self, payload, opcode):
        # Whatever the bytes, decoding either succeeds or raises the
        # protocol's own typed error — never an arbitrary exception a
        # connection loop would not catch.
        try:
            decode_op(opcode, payload)
        except protocol.ProtocolError:
            pass
        try:
            decode_result(opcode, payload)
        except protocol.ProtocolError:
            pass
        except Exception as exc:
            # decode_result re-raises *decoded wire errors* for OP_ERROR
            # frames — those are typed by construction.
            assert opcode == protocol.OP_ERROR, exc

    @given(noise=st.binary(min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_trailing_payload_bytes_rejected(self, noise):
        frame = encode_op(PingOp(), 1)
        opcode, _, payload = _one_frame(frame)
        with pytest.raises(BadFrameError, match="trailing"):
            decode_op(opcode, payload + noise)

    def test_unknown_json_result_kind(self):
        payload = json.dumps({"kind": "martian"}).encode()
        with pytest.raises(BadFrameError, match="martian"):
            decode_result(protocol.OP_RESULT_JSON, payload)

    def test_object_dtype_never_encodes(self):
        with pytest.raises(protocol.ProtocolError, match="wire-encodable"):
            encode_result(
                AttendResult(outputs=np.array([object()], dtype=object)), 1
            )
