"""The SLO-aware quality controller: hysteresis, ladder bounds, recovery.

Driven tick by tick (no controller thread) so every scenario is
deterministic: overload evidence is injected straight into the server's
stats and :meth:`AdaptiveQualityController.tick` is stepped manually.
The background-thread path gets two real tests: a smoke test, and an
overload against blocking admission that must shed quality, never
requests.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.serve import (
    AdaptiveQualityController,
    AttentionServer,
    BatchPolicy,
    QualityPolicy,
    ServerConfig,
)

D = 6


def _server(default_tier="exact"):
    return AttentionServer(
        ServerConfig(
            batch=BatchPolicy(max_batch_size=8, max_wait_seconds=0.001),
            num_workers=1,
            default_tier=default_tier,
        )
    )


def _controller(server, **policy_kw):
    policy_kw.setdefault("slo_p95_seconds", 0.01)
    policy_kw.setdefault("overload_ticks", 2)
    policy_kw.setdefault("recovery_ticks", 3)
    policy_kw.setdefault("min_window_samples", 1)
    return AdaptiveQualityController(server, QualityPolicy(**policy_kw))


def _hot(server, latency=1.0, count=4):
    """Inject one window of SLO-violating completions."""
    server.stats.record_batch(
        queue_waits=[0.0] * count,
        latencies=[latency] * count,
        service_seconds=latency,
        queue_depth=0,
    )


class TestPolicyValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            QualityPolicy(slo_p95_seconds=0.0)
        with pytest.raises(ConfigError):
            QualityPolicy(slo_p95_seconds=0.1, interval_seconds=0.0)
        with pytest.raises(ConfigError):
            QualityPolicy(slo_p95_seconds=0.1, overload_ticks=0)
        with pytest.raises(ConfigError):
            QualityPolicy(slo_p95_seconds=0.1, floor_tier="worst")

    def test_floor_above_ceiling_rejected(self):
        server = _server(default_tier="aggressive")
        with pytest.raises(ConfigError):
            _controller(server, floor_tier="exact")


class TestDowngradePath:
    def test_downgrade_needs_sustained_overload(self):
        server = _server()
        controller = _controller(server, overload_ticks=3)
        for _ in range(2):
            _hot(server)
            assert controller.tick() is None
        _hot(server)
        transition = controller.tick()
        assert (transition.from_tier, transition.to_tier) == (
            "exact", "conservative",
        )
        assert transition.reason == "overload"
        assert server.default_tier == "conservative"

    def test_alternating_load_never_transitions(self):
        """Hysteresis: an overloaded tick resets the recovery streak and
        vice versa, so a load flapping around the SLO moves nothing."""
        server = _server()
        controller = _controller(server, overload_ticks=2, recovery_ticks=2)
        for _ in range(10):
            _hot(server)
            assert controller.tick() is None  # hot streak = 1 each time
            assert controller.tick() is None  # cool streak = 1 each time
        assert server.default_tier == "exact"
        assert controller.transitions == []

    def test_walks_one_step_at_a_time_down_to_the_floor(self):
        server = _server()
        controller = _controller(server, overload_ticks=1)
        tiers = []
        for _ in range(4):  # more hot ticks than ladder steps
            _hot(server)
            transition = controller.tick()
            tiers.append(server.default_tier)
            if transition is not None:
                assert transition.reason == "overload"
        assert tiers == [
            "conservative", "aggressive", "aggressive", "aggressive",
        ]
        assert len(controller.transitions) == 2  # floor: no further moves

    def test_floor_tier_bounds_the_ladder(self):
        server = _server()
        controller = _controller(
            server, overload_ticks=1, floor_tier="conservative"
        )
        for _ in range(3):
            _hot(server)
            controller.tick()
        assert server.default_tier == "conservative"

    def test_small_window_does_not_trip_latency_signal(self):
        server = _server()
        controller = _controller(server, overload_ticks=1,
                                 min_window_samples=8)
        _hot(server, count=3)  # violating, but below the sample floor
        assert controller.tick() is None
        assert server.default_tier == "exact"

    def test_queue_depth_signal_works_without_latencies(self):
        server = _server()
        controller = _controller(
            server, overload_ticks=1, queue_depth_high=2
        )
        rng = np.random.default_rng(0)
        server.register_session(
            "s", rng.normal(size=(8, D)), rng.normal(size=(8, D))
        )
        for _ in range(3):  # queue up without workers running
            server.submit("s", np.zeros(D))
        transition = controller.tick()
        assert transition is not None and transition.queue_depth >= 2
        assert server.default_tier == "conservative"
        server.stop()


class TestRecoveryPath:
    def _degraded(self, **kw):
        server = _server()
        controller = _controller(server, overload_ticks=1, **kw)
        _hot(server)
        controller.tick()
        assert server.default_tier == "conservative"
        return server, controller

    def test_recovery_needs_sustained_health(self):
        server, controller = self._degraded(recovery_ticks=3)
        for _ in range(2):
            assert controller.tick() is None
        transition = controller.tick()
        assert (transition.from_tier, transition.to_tier) == (
            "conservative", "exact",
        )
        assert transition.reason == "recovery"
        assert server.default_tier == "exact"

    def test_transition_resets_streaks(self):
        """After a downgrade the recovery streak starts from zero: the
        cool ticks accumulated before the transition don't count."""
        server = _server()
        controller = _controller(server, overload_ticks=2, recovery_ticks=2)
        assert controller.tick() is None  # cool streak = 1
        _hot(server)
        controller.tick()
        _hot(server)
        assert controller.tick() is not None  # downgraded
        assert controller.tick() is None  # cool streak restarts at 1
        assert controller.tick() is not None  # recovery after 2 full ticks

    def test_never_upgrades_past_configured_default(self):
        server = _server(default_tier="conservative")
        controller = _controller(server, recovery_ticks=1)
        for _ in range(5):
            controller.tick()
        assert server.default_tier == "conservative"
        assert controller.transitions == []

    def test_stats_count_both_directions(self):
        server, controller = self._degraded(recovery_ticks=1)
        controller.tick()  # recover
        snap = server.snapshot()
        assert snap["quality"]["tier_downgrades"] == 1
        assert snap["quality"]["tier_upgrades"] == 1


class TestLifecycle:
    def test_stop_restores_configured_tier(self):
        server, controller = TestRecoveryPath()._degraded(recovery_ticks=99)
        assert server.default_tier == "conservative"
        controller.stop()
        assert server.default_tier == "exact"

    def test_stop_can_leave_degraded(self):
        server, controller = TestRecoveryPath()._degraded(recovery_ticks=99)
        controller.stop(restore=False)
        assert server.default_tier == "conservative"

    def test_background_loop_downgrades_under_real_overload(self):
        """End to end with the controller thread: an impossible SLO and
        a steady trickle of traffic must force a downgrade."""
        import time

        server = _server()
        rng = np.random.default_rng(1)
        server.register_session(
            "s", rng.normal(size=(64, D)), rng.normal(size=(64, D))
        )
        controller = AdaptiveQualityController(
            server,
            QualityPolicy(
                slo_p95_seconds=1e-9,
                interval_seconds=0.01,
                overload_ticks=1,
                min_window_samples=1,
            ),
        )
        with server, controller:
            deadline = time.monotonic() + 5.0
            while (
                server.default_tier == "exact"
                and time.monotonic() < deadline
            ):
                server.attend("s", rng.normal(size=D))
            degraded = server.default_tier
        assert degraded != "exact"
        assert server.default_tier == "exact"  # restored on stop

    def test_blocking_admission_sheds_quality_not_requests(self):
        """Overload against a queue of 8 whose admission blocks: the
        controller walks the default tier down while 32 closed-loop
        clients wait for room, and the server refuses nothing — every
        request completes and ``rejected`` stays 0."""
        import threading

        server = AttentionServer(
            ServerConfig(
                batch=BatchPolicy(
                    max_batch_size=4,
                    max_wait_seconds=0.002,
                    max_queue_depth=8,
                    overload="block",
                    submit_timeout_seconds=30.0,
                ),
                num_workers=1,
                default_tier="conservative",
            )
        )
        rng = np.random.default_rng(7)
        server.register_session(
            "s", rng.normal(size=(64, D)), rng.normal(size=(64, D))
        )
        controller = AdaptiveQualityController(
            server,
            QualityPolicy(
                slo_p95_seconds=1e-9,
                interval_seconds=0.005,
                overload_ticks=1,
                min_window_samples=1,
            ),
        )
        clients, per_client = 32, 12
        errors = []

        def client(seed):
            client_rng = np.random.default_rng(seed)
            try:
                for _ in range(per_client):
                    server.attend("s", client_rng.normal(size=D))
            except Exception as exc:  # surfaced after the join
                errors.append(exc)

        with server, controller:
            threads = [
                threading.Thread(target=client, args=(c,))
                for c in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
            assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        snap = server.snapshot()
        assert snap["rejected"] == 0
        assert snap["completed"] == clients * per_client
        assert snap["quality"]["tier_downgrades"] >= 1
        assert snap["quality"]["downgraded_requests"] > 0


class TestNeutralTicks:
    def test_trickling_saturated_server_never_recovers(self):
        """A saturated server completing fewer than min_window_samples
        requests per interval gives no evidence of health: such ticks
        are neutral and must never accumulate recovery credit
        (regression: they used to count as healthy and could upgrade a
        still-violating server)."""
        server = _server()
        controller = _controller(
            server, overload_ticks=1, recovery_ticks=1, min_window_samples=4
        )
        _hot(server, count=4)
        assert controller.tick() is not None  # degraded to conservative
        for _ in range(10):  # trickle: 2 over-SLO completions per tick
            _hot(server, count=2)
            assert controller.tick() is None
        assert server.default_tier == "conservative"  # no recovery credit
        assert controller.tick() is not None  # genuinely idle -> recovers
        assert server.default_tier == "exact"

    def test_neutral_tick_preserves_hot_streak(self):
        """Neutral ticks advance neither streak: a hot streak survives a
        measurement gap instead of being reset by it."""
        server = _server()
        controller = _controller(
            server, overload_ticks=2, min_window_samples=4
        )
        _hot(server, count=4)
        assert controller.tick() is None  # hot streak = 1
        _hot(server, count=1)
        assert controller.tick() is None  # neutral: streaks untouched
        _hot(server, count=4)
        assert controller.tick() is not None  # hot streak = 2 -> downgrade

    def test_light_under_slo_traffic_still_recovers(self):
        """A degraded server receiving a light trickle of well-under-SLO
        completions is demonstrably healthy and must recover even
        though the window is too small for a p95 (regression: such
        ticks were neutral and the tier stayed degraded forever)."""
        server = _server()
        controller = _controller(
            server, overload_ticks=1, recovery_ticks=2, min_window_samples=4
        )
        _hot(server, count=4)
        assert controller.tick() is not None  # degraded to conservative
        _hot(server, count=2, latency=1e-6)  # 2 fast completions/tick
        assert controller.tick() is None  # cool streak = 1
        _hot(server, count=2, latency=1e-6)
        transition = controller.tick()
        assert transition is not None and transition.reason == "recovery"
        assert server.default_tier == "exact"


class TestPolicyWindowValidation:
    def test_rejects_non_positive_window_and_queue_knobs(self):
        with pytest.raises(ConfigError):
            QualityPolicy(slo_p95_seconds=0.1, min_window_samples=0)
        with pytest.raises(ConfigError):
            QualityPolicy(slo_p95_seconds=0.1, queue_depth_high=0)

    def test_min_window_one_survives_an_idle_tick(self):
        """min_window_samples=1 with an empty window must not crash the
        percentile (regression: an unvalidated 0 made the empty window
        'valid' and killed the controller thread)."""
        server = _server()
        controller = _controller(server, min_window_samples=1)
        assert controller.tick() is None  # idle: healthy, no transition
