"""Shard health: heartbeat failure detection and the fault-injection seam.

Production serving fabrics treat node death as routine: a failure
*detector* decides a replica is gone, and the cluster's failover
machinery does the rest.  This module is that detector for
:class:`~repro.serve.cluster.ShardedAttentionServer`, plus the
deterministic fault-injection hooks the thread-mode tests use to
exercise every failure path without real processes dying.

:class:`HeartbeatMonitor` pings every live shard on an interval
(``ShardedAttentionServer.ping_shard`` — process liveness plus an RPC
echo for spawned shards, an injector-aware liveness probe for thread
shards) and declares a shard **down** after ``misses`` consecutive
failed beats, invoking the cluster's ``report_shard_failure`` — the
same entry point the request path's retry-with-reroute uses, so
detection by heartbeat and detection by failed RPC converge on one
failover implementation.  Detection is intentionally conservative: one
slow beat (a shard busy preparing a large key) never triggers
failover; only ``misses`` beats in a row do.

:class:`FaultInjector` is the seam.  Thread-backed shards consult it on
every RPC-surface call and every heartbeat, so tests (and the demo)
can deterministically

* ``kill`` — the shard raises
  :class:`~repro.serve.cluster.ShardUnavailableError` on every call, as
  a crashed process would;
* ``drop_heartbeats`` — the shard keeps serving but its beats fail (a
  partition between the monitor and a healthy shard: failover must
  still be lossless because the "dead" shard was actually fine);
* ``delay`` — every call sleeps first (a slow shard: must *not* be
  declared dead by fewer than ``misses`` beats).

Spawn-mode chaos uses real ``SIGKILL`` via
``ShardedAttentionServer.kill_shard`` instead — the injector cannot
reach across the process boundary, and shouldn't: the point of the
chaos test is that the real child-death path behaves like the injected
one.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["FaultInjector", "HeartbeatMonitor", "ShardDownEvent"]


class FaultInjector:
    """Deterministic fault injection for thread-backed shards.

    All methods key on the shard id; ``restore`` clears every injected
    fault for a shard.  Thread-safe.  The error raised for a killed
    shard is constructed lazily (imported at call time) to keep this
    module import-light and cycle-free with :mod:`repro.serve.cluster`.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._killed: set[str] = set()
        self._dropped: set[str] = set()
        self._delays: dict[str, float] = {}

    # -- fault controls ------------------------------------------------
    def kill(self, shard_id: str) -> None:
        """Simulate a crash: every subsequent call on the shard raises
        ``ShardUnavailableError`` and its heartbeats fail."""
        with self._lock:
            self._killed.add(shard_id)

    def drop_heartbeats(self, shard_id: str) -> None:
        """Fail the shard's heartbeats while leaving its RPCs working
        (a monitor-side partition / false-positive scenario)."""
        with self._lock:
            self._dropped.add(shard_id)

    def delay(self, shard_id: str, seconds: float) -> None:
        """Make every call on the shard sleep ``seconds`` first."""
        if seconds < 0:
            raise ConfigError(f"delay must be >= 0, got {seconds}")
        with self._lock:
            self._delays[shard_id] = seconds

    def restore(self, shard_id: str) -> None:
        """Clear every injected fault for the shard."""
        with self._lock:
            self._killed.discard(shard_id)
            self._dropped.discard(shard_id)
            self._delays.pop(shard_id, None)

    # -- hooks the shards consult --------------------------------------
    def check(self, shard_id: str) -> None:
        """Gate one RPC-surface call: raise if killed, sleep if delayed."""
        with self._lock:
            killed = shard_id in self._killed
            delay = self._delays.get(shard_id, 0.0)
        if killed:
            from repro.serve.cluster import ShardUnavailableError

            raise ShardUnavailableError(
                f"shard {shard_id!r} is down (injected fault)"
            )
        if delay > 0:
            time.sleep(delay)

    def heartbeat_ok(self, shard_id: str) -> bool:
        """Whether the shard's heartbeat should succeed."""
        with self._lock:
            if shard_id in self._killed or shard_id in self._dropped:
                return False
            delay = self._delays.get(shard_id, 0.0)
        if delay > 0:
            time.sleep(delay)
        return True


@dataclass(frozen=True)
class ShardDownEvent:
    """One failover decision taken by the monitor."""

    shard_id: str
    missed_beats: int
    at_monotonic: float


class HeartbeatMonitor:
    """Periodic shard liveness probing driving automatic failover.

    Parameters
    ----------
    cluster:
        The :class:`~repro.serve.cluster.ShardedAttentionServer` to
        watch; only needs ``shard_ids``, ``ping_shard`` and
        ``report_shard_failure``.
    interval_seconds:
        Time between probe rounds.
    misses:
        Consecutive failed beats before a shard is declared down.  A
        beat fails when ``ping_shard`` returns falsy, raises, or takes
        longer than ``ping_timeout_seconds``.
    ping_timeout_seconds:
        Patience per probe (forwarded to ``ping_shard``; spawned shards
        bound their echo RPC by it).  Defaults to ``interval_seconds``.

    The monitor is a context manager::

        with HeartbeatMonitor(cluster, interval_seconds=0.1) as monitor:
            ...  # traffic; dead shards are failed over automatically
        monitor.events  # the ShardDownEvents it acted on

    One declaration per shard: once reported, the shard's counter is
    retired — the cluster removes the shard from ``shard_ids`` anyway,
    and a second report would be a no-op there.
    """

    def __init__(
        self,
        cluster,
        interval_seconds: float = 0.25,
        misses: int = 3,
        ping_timeout_seconds: float | None = None,
    ):
        if interval_seconds <= 0:
            raise ConfigError(
                f"interval_seconds must be > 0, got {interval_seconds}"
            )
        if misses < 1:
            raise ConfigError(f"misses must be >= 1, got {misses}")
        self.cluster = cluster
        self.interval_seconds = interval_seconds
        self.misses = misses
        self.ping_timeout_seconds = (
            interval_seconds
            if ping_timeout_seconds is None
            else ping_timeout_seconds
        )
        self.events: list[ShardDownEvent] = []
        self._missed: dict[str, int] = {}
        self._reported: set[str] = set()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "HeartbeatMonitor":
        if self._thread is not None:
            raise RuntimeError("monitor already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-heartbeat-monitor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float | None = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "HeartbeatMonitor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # -- probing -------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.wait(self.interval_seconds):
            self.probe_once()

    def probe_once(self) -> list[ShardDownEvent]:
        """One probe round over the cluster's live shards.

        Exposed for deterministic tests (drive rounds by hand instead
        of sleeping against the wall clock).  Returns the failover
        events this round produced.
        """
        fired: list[ShardDownEvent] = []
        for shard_id in self.cluster.shard_ids:
            if shard_id in self._reported:
                continue
            try:
                alive = self.cluster.ping_shard(
                    shard_id, timeout=self.ping_timeout_seconds
                )
            except Exception:  # noqa: BLE001 — any probe failure is a miss
                alive = False
            if alive:
                self._missed[shard_id] = 0
                continue
            missed = self._missed.get(shard_id, 0) + 1
            self._missed[shard_id] = missed
            if missed < self.misses:
                continue
            self._reported.add(shard_id)
            event = ShardDownEvent(
                shard_id=shard_id,
                missed_beats=missed,
                at_monotonic=time.monotonic(),
            )
            self.events.append(event)
            fired.append(event)
            try:
                self.cluster.report_shard_failure(
                    shard_id, reason=f"{missed} missed heartbeats"
                )
            except Exception:  # noqa: BLE001 — never kill the probe loop
                pass
        return fired
