"""SLO-aware quality degradation: trade accuracy for latency, not
availability.

The paper's central lever is the accuracy/latency dial of approximate
attention (conservative vs. aggressive thresholds).  This module puts
that dial under closed-loop control: when a server is overloaded, the
usual backpressure options are to reject traffic or let latency blow
through the SLO — but an approximate-attention server has a third
option the paper makes cheap, *serve the same queries at a lower
quality tier*.  :class:`AdaptiveQualityController` samples the server's
telemetry on a fixed interval and walks the live default tier down the
degradation ladder (:data:`repro.core.config.TIERS`) under sustained
overload, then back up once the server has recovered — so tagged
best-effort traffic keeps its answers (cheaper ones) instead of
receiving ``ServerOverloadedError``, while requests pinned to a tier
(``tier="exact"`` in particular) are never touched: the controller only
moves the default used for unpinned submissions.

The feedback signal is the **windowed** p95 latency (the requests
completed since the previous tick, via
:meth:`~repro.serve.stats.ServerStats.take_recent_latencies`) plus the
instantaneous queue depth, compared against the configured SLO.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import TIERS, tier_rank
from repro.errors import ConfigError

__all__ = ["QualityPolicy", "TierTransition", "AdaptiveQualityController"]


@dataclass(frozen=True)
class QualityPolicy:
    """The SLO and the hysteresis knobs of one quality controller.

    Attributes
    ----------
    slo_p95_seconds:
        The latency objective: the windowed p95 a tick must exceed to
        count as overloaded.
    interval_seconds:
        Controller tick period (also the latency window length).
    queue_depth_high:
        Optional second overload signal: a tick whose queue depth is at
        or above this counts as overloaded even without latency samples
        (a saturated server may complete too few requests per window to
        produce a meaningful p95).  ``None`` disables it.
    overload_ticks:
        Consecutive overloaded ticks required before one downgrade step.
    recovery_ticks:
        Consecutive healthy ticks required before one upgrade step.
        Kept larger than ``overload_ticks`` by default: recovering
        quality too eagerly re-triggers the overload and flaps.
    min_window_samples:
        Ticks with fewer completed requests than this don't evaluate
        the p95 latency signal (a tiny sample's p95 is noise).  Such a
        tick is classified three ways: *overloaded* if the queue-depth
        signal trips; *healthy* when the server is genuinely idle
        (empty window and empty queue) **or** every sample in the
        small window meets the SLO (the max needs no sample-count
        confidence, and light steady traffic must still earn
        recovery); otherwise *neutral* — a saturated server trickling
        out a few over-SLO completions per interval is not evidence of
        health, so neutral ticks advance neither streak.
    floor_tier:
        The lowest tier the controller may degrade to (default: the
        bottom of the ladder, ``"aggressive"``).
    """

    slo_p95_seconds: float
    interval_seconds: float = 0.05
    queue_depth_high: int | None = None
    overload_ticks: int = 3
    recovery_ticks: int = 6
    min_window_samples: int = 4
    floor_tier: str = "aggressive"

    def __post_init__(self) -> None:
        if self.slo_p95_seconds <= 0:
            raise ConfigError(
                f"slo_p95_seconds must be > 0, got {self.slo_p95_seconds}"
            )
        if self.interval_seconds <= 0:
            raise ConfigError(
                f"interval_seconds must be > 0, got {self.interval_seconds}"
            )
        if self.overload_ticks < 1 or self.recovery_ticks < 1:
            raise ConfigError(
                "overload_ticks and recovery_ticks must be >= 1"
            )
        if self.min_window_samples < 1:
            # 0 would classify an *empty* window as a valid latency
            # signal and crash the percentile; the daemon thread would
            # die silently and the operator would believe SLO control
            # is still active.
            raise ConfigError(
                f"min_window_samples must be >= 1, got "
                f"{self.min_window_samples}"
            )
        if self.queue_depth_high is not None and self.queue_depth_high < 1:
            raise ConfigError(
                f"queue_depth_high must be >= 1 or None, got "
                f"{self.queue_depth_high}"
            )
        tier_rank(self.floor_tier)  # raises ConfigError on unknown tiers


@dataclass(frozen=True)
class TierTransition:
    """One recorded default-tier move (telemetry / tests)."""

    at_monotonic: float
    from_tier: str
    to_tier: str
    reason: str  # "overload" | "recovery"
    window_p95_seconds: float
    queue_depth: int


@dataclass
class _ControllerState:
    hot_ticks: int = 0
    cool_ticks: int = 0
    transitions: list[TierTransition] = field(default_factory=list)


class AdaptiveQualityController:
    """Feedback loop degrading (and restoring) a server's default tier.

    Works against anything exposing the :class:`AttentionServer`
    control surface this loop touches: ``stats``
    (:meth:`~repro.serve.stats.ServerStats.take_recent_latencies`),
    ``batcher.depth``, ``default_tier``, ``set_default_tier``, and
    ``config.default_tier`` (the configured ceiling it restores to).

    **Stability contract** (hysteresis, no flapping).  The controller
    moves the default tier at most one ladder step at a time, and only
    on *sustained* evidence: a downgrade requires
    ``policy.overload_ticks`` consecutive overloaded ticks, an upgrade
    ``policy.recovery_ticks`` consecutive healthy ticks, and every
    transition (in either direction) resets both streak counters to
    zero.  Consequently (a) two consecutive transitions are always at
    least ``min(overload_ticks, recovery_ticks)`` intervals apart, (b)
    a downgrade⇄upgrade oscillation needs a full
    ``overload_ticks + recovery_ticks`` intervals per cycle even under
    an adversarial load right at the SLO boundary, and (c) with
    ``recovery_ticks > overload_ticks`` (the default) the loop is
    biased toward staying degraded until the overload is convincingly
    gone.  The ladder is bounded by ``policy.floor_tier`` below and the
    server's *configured* default above — the controller never upgrades
    past what the operator asked for, and never touches pinned
    requests (pinning bypasses the default entirely).

    Use as a context manager or via :meth:`start`/:meth:`stop`; or call
    :meth:`tick` directly for deterministic stepping in tests.
    """

    def __init__(self, server, policy: QualityPolicy):
        self.server = server
        self.policy = policy
        ceiling = server.config.default_tier
        if tier_rank(policy.floor_tier) < tier_rank(ceiling):
            raise ConfigError(
                f"floor_tier {policy.floor_tier!r} is better quality than "
                f"the server's configured default {ceiling!r}"
            )
        self._ceiling = ceiling
        self._state = _ControllerState()
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "AdaptiveQualityController":
        if self._thread is not None:
            raise RuntimeError("controller already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-quality-controller", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, restore: bool = True) -> None:
        """Stop the loop; by default restore the configured tier so a
        stopped controller never leaves the server degraded forever."""
        self._stop_event.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if restore and self.server.default_tier != self._ceiling:
            self.server.set_default_tier(self._ceiling)

    def __enter__(self) -> "AdaptiveQualityController":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop_event.wait(self.policy.interval_seconds):
            self.tick()

    # ------------------------------------------------------------------
    # the control step
    # ------------------------------------------------------------------
    @property
    def current_tier(self) -> str:
        return self.server.default_tier

    @property
    def transitions(self) -> list[TierTransition]:
        """Every default-tier move this controller made (oldest first)."""
        return list(self._state.transitions)

    def tick(self) -> TierTransition | None:
        """Evaluate one control interval; returns the transition made,
        if any.  Thread-hostile by design: call from the controller
        thread or from a test, never both."""
        policy = self.policy
        window = self.server.stats.take_recent_latencies()
        queue_depth = self.server.batcher.depth
        latency_valid = len(window) >= policy.min_window_samples
        p95 = (
            float(np.percentile(np.asarray(window), 95))
            if latency_valid
            else 0.0
        )
        overloaded = bool(
            (latency_valid and p95 > policy.slo_p95_seconds)
            or (policy.queue_depth_high is not None
                and queue_depth >= policy.queue_depth_high)
        )
        # Classify ticks whose window is too small for a trustworthy
        # p95.  Genuinely idle (nothing completed, nothing queued) is
        # healthy, and so is a small window whose *every* sample meets
        # the SLO (max <= SLO is stricter than any percentile, so no
        # sample-count confidence is needed) — light steady traffic
        # must still earn recovery.  What must NOT earn it is a
        # saturated server trickling out a few over-SLO completions
        # per interval: that tick is *neutral* and advances neither
        # streak.
        idle = not window and queue_depth == 0
        small_but_meeting_slo = bool(window) and not latency_valid and (
            max(window) <= policy.slo_p95_seconds
        )
        healthy = not overloaded and (
            latency_valid or idle or small_but_meeting_slo
        )
        state = self._state
        if overloaded:
            state.hot_ticks += 1
            state.cool_ticks = 0
        elif healthy:
            state.cool_ticks += 1
            state.hot_ticks = 0
        else:
            return None

        current = self.server.default_tier
        rank = tier_rank(current)
        if (
            overloaded
            and state.hot_ticks >= policy.overload_ticks
            and rank < tier_rank(policy.floor_tier)
        ):
            return self._transition(
                TIERS[rank + 1], "overload", p95, queue_depth
            )
        if (
            not overloaded
            and state.cool_ticks >= policy.recovery_ticks
            and rank > tier_rank(self._ceiling)
        ):
            return self._transition(
                TIERS[rank - 1], "recovery", p95, queue_depth
            )
        return None

    def _transition(
        self, to_tier: str, reason: str, p95: float, queue_depth: int
    ) -> TierTransition:
        from_tier = self.server.set_default_tier(to_tier)
        transition = TierTransition(
            at_monotonic=time.monotonic(),
            from_tier=from_tier,
            to_tier=to_tier,
            reason=reason,
            window_p95_seconds=p95,
            queue_depth=queue_depth,
        )
        state = self._state
        state.transitions.append(transition)
        state.hot_ticks = 0
        state.cool_ticks = 0
        return transition
