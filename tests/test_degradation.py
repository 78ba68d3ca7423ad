"""Tests for the adaptive-degradation subsystem.

Covers the wire/packet model, the adaptive QoS controller, the
degraded-campaign nemesis sampler and soak wiring, and the
packet-efficient Omega variant under hostile links (docs/DEGRADATION.md).
"""

from __future__ import annotations

import random

import pytest

from repro.core import OmegaConfig, analyze_omega_run
from repro.core.adaptive import (
    BACKOFF_CAP,
    BAD,
    DEGRADED,
    GAP_MARGIN,
    INSUFFICIENT,
    PRESSURE_DECAY,
    RELAX_STREAK,
    TIMELY,
    AdaptiveController,
    BackoffPolicy,
    LinkQualityEstimator,
)
from repro.core.messages import Alive, Beat, Heartbeat
from repro.harness import OmegaScenario
from repro.harness.soak import (
    _ADAPTIVE_OMEGAS,
    _DEGRADED_OMEGAS,
    run_soak_case,
    sample_degraded_case,
)
from repro.sim import FaultPlan, FaultPlanError
from repro.sim.nemesis import (
    DegradeFault,
    ModelEnvelope,
    model_violations,
    sample_degraded_plan,
)
from repro.sim.packets import DEFAULT_MTU, packet_count
from repro.wire import encode, encode_value, wire_size


def int_size(value: int) -> int:
    """Bytes of one int field: a heartbeat less its 1-byte kind id."""
    return len(encode(Heartbeat(sender=value))) - 1


class TestPacketModel:
    def test_int_size_zigzag_boundaries(self) -> None:
        assert int_size(0) == 1
        assert int_size(63) == 1       # zig-zag 126: last 1-byte value
        assert int_size(64) == 2
        assert int_size(-64) == 1      # zig-zag 127
        assert int_size(-65) == 2
        assert int_size(2 ** 62) == 10

    def test_field_size_by_type(self) -> None:
        # A tagged (``Any``) value: a 1-byte type tag, then the value.
        assert len(encode_value(None)) == 1
        assert len(encode_value(True)) == 1
        assert len(encode_value(3.14)) == 9        # tag + 8-byte float
        assert len(encode_value("ab")) == 4        # tag + count + bytes
        assert len(encode_value((1, 2, 3))) == 8   # tag + count + 3 ints
        assert len(encode_value({1: 2})) == 6      # tag + count + 2 ints

    def test_alive_grows_with_counter_but_beat_stays_bounded(self) -> None:
        small = wire_size(Alive(sender=0, counter=0, phase=0))
        large = wire_size(Alive(sender=0, counter=10 ** 12, phase=10 ** 12))
        assert large > small
        assert wire_size(Beat(sender=0, lease=4)) == \
            wire_size(Beat(sender=0, lease=1))

    def test_packet_count(self) -> None:
        assert packet_count(0) == 1            # empty payload still a packet
        assert packet_count(DEFAULT_MTU) == 1
        assert packet_count(DEFAULT_MTU + 1) == 2
        assert packet_count(45, mtu=16) == 3
        with pytest.raises(ValueError):
            packet_count(10, mtu=0)


class TestLinkQualityEstimator:
    def _fed(self, gap: float, beats: int = 6) -> LinkQualityEstimator:
        estimator = LinkQualityEstimator(OmegaConfig())
        for index in range(beats):
            estimator.observe(1, index * gap)
        return estimator

    def test_insufficient_before_min_gaps(self) -> None:
        estimator = self._fed(0.5, beats=3)    # only two gaps
        assert estimator.classify(1) == INSUFFICIENT

    def test_classification_ladder(self) -> None:
        eta = OmegaConfig().eta
        assert self._fed(eta).classify(1) == TIMELY
        assert self._fed(3 * eta).classify(1) == DEGRADED
        assert self._fed(10 * eta).classify(1) == BAD

    def test_ewma_tracks_gap(self) -> None:
        estimator = self._fed(0.5)
        assert estimator.gap(1) == pytest.approx(0.5)
        assert estimator.gap(2) is None


class TestBackoffPolicy:
    def test_bounded_exponential_scale(self) -> None:
        policy = BackoffPolicy()                # base 2, cap 8
        assert policy.scale(1) == 1.0
        for expected in (2.0, 4.0, 8.0, 8.0):   # capped at 8
            policy.suspect(1)
            assert policy.scale(1) == expected

    def test_relax_decays_after_streak(self) -> None:
        policy = BackoffPolicy()
        policy.suspect(1)
        for _ in range(RELAX_STREAK - 1):
            policy.relax(1)
            assert policy.level(1) == 1
        policy.relax(1)
        assert policy.level(1) == 0


class TestAdaptiveController:
    def test_watch_delay_stretches_with_estimated_gap(self) -> None:
        controller = AdaptiveController(OmegaConfig())
        base = 2.0
        assert controller.watch_delay(1, base) == base
        for index in range(6):                  # gaps of 2.0 > base/GAP_MARGIN
            controller.observe_heartbeat(1, index * 2.0)
        stretched = controller.watch_delay(1, base)
        assert stretched == pytest.approx(
            min(2.0 * GAP_MARGIN, base * BACKOFF_CAP))

    def test_lease_extension_adds_covered_periods(self) -> None:
        config = OmegaConfig()
        controller = AdaptiveController(config)
        plain = controller.watch_delay(1, 2.0)
        assert controller.watch_delay(1, 2.0, lease=3) == \
            pytest.approx(plain + 2 * config.eta)

    def test_accusations_raise_batching_pressure(self) -> None:
        controller = AdaptiveController(OmegaConfig())   # BATCH_LIMIT 4
        assert controller.lease(1, 0.0) == 1
        controller.accused_by(1, 0.0)
        assert controller.lease(1, 0.0) == 2
        controller.accused_by(1, 0.0)
        assert controller.lease(1, 0.0) == 4             # capped at the limit
        controller.accused_by(1, 0.0)
        assert controller.lease(1, 0.0) == 4

    def test_next_send_skips_leased_ticks(self) -> None:
        controller = AdaptiveController(OmegaConfig())
        controller.accused_by(1, 0.0)
        controller.accused_by(1, 0.0)
        assert controller.next_send(1, 0.0) == 4
        assert [controller.next_send(1, 0.0) for _ in range(3)] == [0, 0, 0]
        assert controller.next_send(1, 0.0) == 4

    def test_pressure_decays_with_quiet_time(self) -> None:
        controller = AdaptiveController(OmegaConfig())

        controller.accused_by(1, 0.0)
        controller.accused_by(1, 0.0)
        assert controller.lease(1, 0.0) == 4
        assert controller.lease(1, PRESSURE_DECAY) == 2
        assert controller.lease(1, 2 * PRESSURE_DECAY) == 1


class TestNemesisDegraded:
    def test_degenerate_window_names_links_and_window(self) -> None:
        with pytest.raises(FaultPlanError) as err:
            DegradeFault(5.0, 5.0, ((0, 1), (2, 0)), loss=0.5, delay=0.1)
        message = str(err.value)
        assert "degenerate" in message
        assert "0>1" in message and "2>0" in message
        assert "[5, 5)" in message

    def test_sampled_plans_stay_in_model(self) -> None:
        envelope = ModelEnvelope(n=5, source=2, f=1)
        for seed in range(25):
            rng = random.Random(f"degraded-plan/{seed}")
            plan = sample_degraded_plan(rng, envelope)
            assert plan.events, "sampler must inject at least one fault"
            assert model_violations(plan, envelope) == []

    def test_sampled_plan_is_deterministic(self) -> None:
        envelope = ModelEnvelope(n=4, source=1, f=1)
        first = sample_degraded_plan(random.Random("x"), envelope)
        second = sample_degraded_plan(random.Random("x"), envelope)
        assert first.to_repro() == second.to_repro()

    def test_plan_round_trips_through_repro_string(self) -> None:
        envelope = ModelEnvelope(n=5, source=2, f=1)
        plan = sample_degraded_plan(random.Random("rt"), envelope)
        assert FaultPlan.from_repro(plan.to_repro()).to_repro() == \
            plan.to_repro()


class TestDegradedSoakCases:
    def test_sampling_is_deterministic(self) -> None:
        for index in range(6):
            assert sample_degraded_case(7, index).describe() == \
                sample_degraded_case(7, index).describe()

    def test_round_robin_covers_every_algorithm(self) -> None:
        drawn = {sample_degraded_case(0, index).algorithm
                 for index in range(len(_DEGRADED_OMEGAS))}
        assert drawn == set(_DEGRADED_OMEGAS)

    def test_describe_carries_mode_tokens(self) -> None:
        case = sample_degraded_case(0, 0)
        tokens = case.describe().split()
        assert case.degraded and "degraded" in tokens
        if case.adaptive:
            assert "adaptive" in tokens

    def test_adaptive_only_on_wired_algorithms(self) -> None:
        for index in range(24):
            case = sample_degraded_case(3, index)
            if case.adaptive:
                assert case.algorithm in _ADAPTIVE_OMEGAS

    def test_one_degraded_case_end_to_end(self) -> None:
        result = run_soak_case(sample_degraded_case(0, 0))
        assert result.ok, result.detail


class TestPacketEfficientUnderStorm:
    def test_stabilizes_through_degrade_storm(self) -> None:
        pairs = ";".join(f"{i}>{j}" for i in range(4) for j in range(4)
                         if i != j)
        faults = (f"degrade(start=20.0,end=80.0,pairs={pairs},"
                  "loss=0.4,delay=0.3)")
        scenario = OmegaScenario(
            algorithm="packet-efficient", n=4, system="all-et", seed=6,
            horizon=240.0, faults=faults, trace=True,
            config=OmegaConfig(adaptive_qos=True))
        outcome = scenario.run()
        assert outcome.stabilized
        assert analyze_omega_run(outcome.cluster).omega_holds


class TestE17Runner:
    def test_budget_row_reports_packet_economy(self) -> None:
        from repro.harness.bench import _run_e17

        verdict, details, _ = _run_e17(mode="budget",
                                       algorithm="packet-efficient",
                                       n=4, seed=3)
        assert verdict.ok
        packets = details["packets"]
        assert packets["sent"] > 0
        assert packets["bytes_sent"] > 0
        assert packets["mtu"] > 0
        assert sum(entry["packets"] for entry in packets["by_kind"].values()) \
            == packets["sent"]

    def test_unknown_mode_rejected(self) -> None:
        from repro.harness.bench import _run_e17

        with pytest.raises(ValueError):
            _run_e17(mode="bogus")
