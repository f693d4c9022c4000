"""Per-layer timing from outside the program.

The traced run wraps each layer's public entry points in place — module
functions and class methods alike — before the server is built, so
nothing under ``src/`` changes and the untraced run launches the server
unmodified.  Each wrapper adds its wall time (``time.perf_counter``, the
serving stack's own clock) to a :class:`LayerClock` under the layer
metric's name.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from time import perf_counter as now

__all__ = ["LayerClock", "ServerProbe", "instrument_client"]


class LayerClock:
    """Thread-safe call counts, seconds and item counts per entry point."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.items: dict[str, float] = defaultdict(float)

    def add(self, name: str, seconds: float, items: float = 0.0) -> None:
        with self._lock:
            self.calls[name] += 1
            self.seconds[name] += seconds
            self.items[name] += items

    def reset(self) -> None:
        with self._lock:
            self.calls.clear()
            self.seconds.clear()
            self.items.clear()

    def to_dict(self) -> dict:
        with self._lock:
            return {
                name: {
                    "calls": self.calls[name],
                    "seconds": self.seconds[name],
                    "items": self.items[name],
                }
                for name in sorted(self.calls)
            }

    def wrap(self, owner, attr: str, name: str, items=None, before=None):
        """Replace ``owner.attr`` with a timed wrapper.

        ``items(args, kwargs, result)`` counts work units per call
        (rows, bytes); ``before(args, kwargs, started)`` runs at entry,
        inside the timed span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            started = now()
            if before is not None:
                before(args, kwargs, started)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                count = items(args, kwargs, result) if items else 0.0
                self.add(name, now() - started, count)

        setattr(owner, attr, timed)


def instrument_client(clock: LayerClock) -> None:
    """Time the generator side of the wire codec."""
    from repro.serve import protocol

    clock.wrap(
        protocol, "encode_op", "protocol.client_encode",
        items=lambda a, k, frame: len(frame) if frame else 0,
    )
    clock.wrap(
        protocol, "decode_result", "protocol.client_decode",
        items=lambda a, k, r: protocol.HEADER.size + len(a[1]),
    )


class ServerProbe:
    """Wraps the server-side entry points and holds what they measure.

    Installs :class:`repro.core.profiling.StageProfiler` as the kernel
    stage hook.  :meth:`mark` zeroes everything measured during set-up;
    :meth:`report` returns the timed phase's raw totals.
    """

    def __init__(self) -> None:
        from repro.core import profiling

        self.clock = LayerClock()
        # Column sorts happen on cache misses, i.e. during set-up, so
        # they get their own clock that mark() leaves alone.
        self.setup_clock = LayerClock()
        self.stages = profiling.StageProfiler()
        profiling.set_hook(self.stages)
        self._decoded: dict[int, float] = {}
        self._batches: list[tuple[int, int, float]] = []
        self._lock = threading.Lock()
        self._baseline: dict = {}
        self._wrap()

    def _wrap(self) -> None:
        from repro.core.backends import ApproximateBackend
        from repro.serve import protocol, scheduler
        from repro.serve.scheduler import Scheduler
        from repro.serve.service import AttendOp, AttentionService
        from repro.serve.sessions import KeyCacheManager

        clock = self.clock
        decoded = self._decoded
        original_decode = protocol.decode_op

        @functools.wraps(original_decode)
        def decode_op(opcode, payload):
            started = now()
            result = original_decode(opcode, payload)
            ended = now()
            clock.add("protocol.server_decode", ended - started)
            if isinstance(result[0], AttendOp):
                decoded[id(result[0])] = ended
            return result

        protocol.decode_op = decode_op

        def admitted(args, kwargs, started):
            # Same op object the frontend decoded: decode return ->
            # submit_attend entry is the admission thread's wait.
            decoded_at = decoded.pop(id(args[1]), None)
            if decoded_at is not None:
                clock.add("frontend.admit_wait", started - decoded_at)

        clock.wrap(
            protocol, "encode_result", "protocol.server_encode",
            items=lambda a, k, frame: len(frame) if frame else 0,
        )
        clock.wrap(
            AttentionService, "submit_attend", "service.submit",
            before=admitted,
        )
        clock.wrap(Scheduler, "dispatch", "scheduler.dispatch",
                   before=self._batch_entered)
        clock.wrap(KeyCacheManager, "checkout", "sessions.checkout")
        clock.wrap(KeyCacheManager, "mutate", "sessions.mutate")
        clock.wrap(
            ApproximateBackend, "attend_many", "core.attend",
            items=lambda a, k, r: len(a[3]),
        )
        # The scheduler binds attend_many_ragged by name at import.
        clock.wrap(
            scheduler, "attend_many_ragged", "core.ragged",
            items=lambda a, k, r: len(a[3]),
        )
        self.setup_clock.wrap(ApproximateBackend, "prepare", "sessions.prepare")

    def _batch_entered(self, args, kwargs, started) -> None:
        batch = args[1]
        if not batch:
            return
        fill = started - min(request.claimed_at for request in batch)
        segments = len({request.session_id for request in batch})
        with self._lock:
            self._batches.append((len(batch), segments, fill))

    def _selection(self, server) -> dict:
        stats = server.cache.merged_backend_stats()
        return {
            "rows": stats.total_rows,
            "candidates": stats.total_candidates,
            "kept": stats.total_kept,
        }

    def mark(self, server) -> None:
        """Start of the timed phase: forget set-up's measurements."""
        self.clock.reset()
        self.stages.reset()
        with self._lock:
            self._batches.clear()
        self._decoded.clear()
        server.trace_spans()  # discard set-up spans
        cache = server.cache.stats
        self._baseline = {
            "hits": cache.hits,
            "misses": cache.misses,
            "dropped": server.tracer.dropped,
            "selection": self._selection(server),
        }

    def report(self, server) -> dict:
        """Raw totals of the timed phase (call after the server stops)."""
        base = self._baseline
        cache = server.cache.stats
        selection = self._selection(server)
        with self._lock:
            batches = list(self._batches)
        return {
            "clock": self.clock.to_dict(),
            "setup_clock": self.setup_clock.to_dict(),
            "stages": self.stages.summary(),
            "batches": batches,
            "max_wait_seconds": server.config.batch.max_wait_seconds,
            "cache_hits": cache.hits - base.get("hits", 0),
            "cache_misses": cache.misses - base.get("misses", 0),
            "cache_bytes": server.cache.bytes_in_use,
            "dropped_spans": server.tracer.dropped - base.get("dropped", 0),
            "selection": {
                key: selection[key] - base.get("selection", {}).get(key, 0)
                for key in selection
            },
        }
