"""Tests for the nemesis fault subsystem: plans, events, envelopes."""

from __future__ import annotations

import random

import pytest

from conftest import Probe, Recorder, severed

from repro.sim.cluster import Cluster
from repro.sim.links import TimelyLink
from repro.sim.nemesis import (
    CrashFault,
    DegradeFault,
    DuplicateFault,
    FaultPlan,
    FaultPlanError,
    FlapFault,
    ModelEnvelope,
    NetemFault,
    PartitionFault,
    PauseFault,
    RecoverFault,
    model_violations,
    parse_event,
    sample_plan,
)


def build_cluster(n: int = 4, seed: int = 1) -> Cluster:
    return Cluster.build(n, lambda pid, sim, net: Recorder(pid, sim, net),
                         seed=seed)


# Every event kind, once — the acceptance criterion is that each
# round-trips exactly through its repro string.
ALL_EVENTS = (
    CrashFault(time=20.0, pid=3),
    PauseFault(time=12.5, pid=1, duration=4.25),
    PartitionFault(start=10.0, end=30.0, groups=((0, 1, 2), (3, 4))),
    DegradeFault(start=5.0, end=15.0, pairs=((0, 1), (1, 0)),
                 loss=0.35, delay=0.8),
    FlapFault(start=40.0, end=60.0, pairs=((2, 3),), period=2.5, up=0.4),
    DuplicateFault(start=7.0, end=90.0, pairs=((1, 2),), p=0.3, lag=0.1),
    NetemFault(start=3.0, end=9.5, pairs=((0, 1),), delay=0.05,
               jitter=0.04, dist="pareto", reorder=0.1, rate=250.0,
               loss=0.02),
)


class TestReproStrings:
    @pytest.mark.parametrize("event", ALL_EVENTS,
                             ids=[e.kind for e in ALL_EVENTS])
    def test_every_event_round_trips(self, event) -> None:  # noqa: ANN001
        assert parse_event(event.to_repro()) == event

    def test_plan_round_trips(self) -> None:
        plan = FaultPlan(ALL_EVENTS)
        assert FaultPlan.from_repro(plan.to_repro()) == plan

    def test_round_trip_preserves_exact_floats(self) -> None:
        event = CrashFault(time=1.1000000000000001, pid=0)
        assert parse_event(event.to_repro()).time == event.time

    def test_unknown_kind_rejected(self) -> None:
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            parse_event("meteor(t=1.0)")

    def test_malformed_event_rejected(self) -> None:
        with pytest.raises(FaultPlanError, match="malformed"):
            parse_event("crash 20.0 3")

    def test_empty_plan_round_trips(self) -> None:
        assert FaultPlan.from_repro("") == FaultPlan()
        assert FaultPlan().describe() == "(no faults)"


class TestPlanValidation:
    def test_events_sorted_by_start(self) -> None:
        plan = FaultPlan([CrashFault(5.0, 1), CrashFault(2.0, 0)])
        assert [e.time for e in plan.events] == [2.0, 5.0]

    def test_double_crash_rejected(self) -> None:
        with pytest.raises(FaultPlanError, match="already down"):
            FaultPlan([CrashFault(1.0, 0), CrashFault(2.0, 0)])

    def test_crashes_at_matches_crash_plan_shape(self) -> None:
        plan = FaultPlan.crashes_at((1.0, 2), (3.0, 0))
        assert plan.crashed_pids == {0, 2}
        assert len(plan) == 2

    def test_overlapping_partition_groups_rejected(self) -> None:
        with pytest.raises(FaultPlanError, match="disjoint"):
            PartitionFault(0.0, 10.0, ((0, 1), (1, 2)))

    def test_self_link_rejected(self) -> None:
        with pytest.raises(FaultPlanError, match="self-link"):
            DegradeFault(0.0, 10.0, ((1, 1),), loss=0.5)

    def test_pointless_degrade_rejected(self) -> None:
        with pytest.raises(FaultPlanError, match="loss or delay"):
            DegradeFault(0.0, 10.0, ((0, 1),))

    def test_schedule_rejects_unknown_pids(self) -> None:
        cluster = build_cluster(n=3)
        with pytest.raises(FaultPlanError,
                           match=r"references pid 9, but the target owns "
                                 r"pids 0\.\.2 \(n=3\)"):
            FaultPlan([PauseFault(1.0, 9, 2.0)]).schedule(cluster)

    def test_schedule_rejects_unknown_link_pids(self) -> None:
        cluster = build_cluster(n=3)
        plan = FaultPlan([DegradeFault(1.0, 5.0, ((0, 7),), loss=0.5)])
        with pytest.raises(FaultPlanError, match="references pid 7"):
            plan.schedule(cluster)

    def test_schedule_rejects_past_events(self) -> None:
        cluster = build_cluster()
        cluster.run_until(10.0)
        with pytest.raises(FaultPlanError, match="in the past"):
            FaultPlan.crashes_at((5.0, 1)).schedule(cluster)

    def test_last_disturbance(self) -> None:
        plan = FaultPlan([CrashFault(50.0, 1),
                          PartitionFault(10.0, 30.0, ((0,), (1,)))])
        assert plan.last_disturbance() == 50.0


class TestScheduling:
    def test_crashes_fire_at_times(self) -> None:
        cluster = build_cluster()
        FaultPlan.crashes_at((1.0, 2), (3.0, 0)).schedule(cluster)
        cluster.start_all()
        cluster.run_until(2.0)
        assert cluster.crashed_pids() == [2]
        cluster.run_until(4.0)
        assert cluster.crashed_pids() == [0, 2]

    def test_pause_freezes_and_resume_replays(self) -> None:
        cluster = build_cluster(n=2)
        FaultPlan([PauseFault(1.0, 1, duration=5.0)]).schedule(cluster)
        cluster.start_all()
        sender = cluster.process(0)
        cluster.run_until(2.0)
        assert cluster.process(1).paused
        sender.send(1, Probe(0, 7))
        cluster.run_until(3.0)
        assert cluster.process(1).received == [], \
            "paused target must not dispatch deliveries"
        cluster.run_until(7.0)
        assert not cluster.process(1).paused
        assert [m.payload for _, m in cluster.process(1).received] == [7], \
            "held deliveries replay at resume"

    def test_partition_applies_to_network(self) -> None:
        cluster = build_cluster(n=4)
        plan = FaultPlan([PartitionFault(1.0, 5.0, ((0, 1), (2, 3)))])
        plan.schedule(cluster)
        cluster.run_until(2.0)
        assert severed(cluster.network, 0, 2)
        assert not severed(cluster.network, 0, 1)
        cluster.run_until(5.0)
        assert not severed(cluster.network, 0, 2)

    def test_degrade_perturbs_exactly_the_named_links(self) -> None:
        cluster = build_cluster(n=3)
        plan = FaultPlan([DegradeFault(1.0, 5.0, ((0, 1),), loss=1.0)])
        plan.schedule(cluster)
        cluster.start_all()
        cluster.run_until(2.0)
        cluster.process(0).send(1, Probe(0, 1))  # degraded: dropped
        cluster.process(0).send(2, Probe(0, 2))  # untouched: delivered
        cluster.run_until(4.0)
        assert cluster.process(1).received == []
        assert [m.payload for _, m in cluster.process(2).received] == [2]

    def test_duplicate_delivers_extra_copies(self) -> None:
        cluster = build_cluster(n=2)
        plan = FaultPlan([DuplicateFault(1.0, 10.0, ((0, 1),), p=1.0,
                                         lag=0.1)])
        plan.schedule(cluster)
        cluster.start_all()
        cluster.run_until(2.0)
        cluster.process(0).send(1, Probe(0, 5))
        cluster.run_until(5.0)
        payloads = [m.payload for _, m in cluster.process(1).received]
        assert payloads == [5, 5], "p=1.0 duplication doubles delivery"

    def test_scheduling_on_consensus_system_touches_both_networks(self) -> None:
        from repro.consensus import ConsensusSystem
        from repro.sim.topology import LinkTimings, multi_source_links

        timings = LinkTimings(gst=2.0)
        system = ConsensusSystem.build_single_decree(
            3, lambda: multi_source_links(3, (0,), timings),
            proposals=["a", "b", "c"], seed=5)
        plan = FaultPlan([PartitionFault(1.0, 4.0, ((0, 1), (2,)))])
        plan.schedule(system)
        system.sim.run_until(2.0)
        for network in system.networks:
            assert severed(network, 0, 2)


class TestNetem:
    """The netem-style shape: validation, the whole shape on the sim,
    model rules."""

    def test_repro_string_spells_every_field(self) -> None:
        event = NetemFault(1.0, 6.0, ((0, 1),), delay=0.05, jitter=0.04,
                           dist="pareto", reorder=0.1, rate=250.0,
                           loss=0.02)
        text = event.to_repro()
        for token in ("delay=0.05", "jitter=0.04", "dist=pareto",
                      "reorder=0.1", "rate=250.0", "loss=0.02",
                      "pairs=0>1"):
            assert token in text
        assert parse_event(text) == event

    def test_asymmetric_pair_round_trips_in_one_plan(self) -> None:
        plan = FaultPlan([
            NetemFault(1.0, 6.0, ((0, 1),), delay=0.05, jitter=0.04,
                       dist="pareto", reorder=0.1),
            NetemFault(1.0, 6.0, ((1, 0),), delay=0.01, rate=300.0,
                       loss=0.05),
        ])
        text = plan.to_repro()
        assert FaultPlan.from_repro(text).to_repro() == text

    def test_all_zero_shape_rejected(self) -> None:
        with pytest.raises(FaultPlanError):
            NetemFault(1.0, 6.0, ((0, 1),))

    @pytest.mark.parametrize("kwargs", [
        {"delay": -0.1}, {"jitter": -0.1}, {"rate": -1.0},
        {"reorder": 1.5}, {"loss": 1.5},
        {"delay": 0.1, "dist": "normal"},
    ], ids=["neg-delay", "neg-jitter", "neg-rate", "reorder-range",
            "loss-range", "bad-dist"])
    def test_bad_fields_rejected(self, kwargs) -> None:
        with pytest.raises(FaultPlanError):
            NetemFault(1.0, 6.0, ((0, 1),), **kwargs)

    @staticmethod
    def _shaped(netem: NetemFault) -> Cluster:
        cluster = build_cluster(n=3)
        for src, dst in ((0, 1), (0, 2)):
            cluster.network.set_link(src, dst, TimelyLink(delta=0.05))
        FaultPlan([netem]).schedule(cluster)
        cluster.start_all()
        cluster.run_until(2.0)
        return cluster

    def test_sim_holds_every_message_the_fixed_delay(self) -> None:
        # The whole shape, as on live: a fixed 0.2 s, then up to 0.05 s
        # of jitter, on top of the timely link's own delay.
        cluster = self._shaped(NetemFault(1.0, 5.0, ((0, 1),), delay=0.2,
                                          jitter=0.05))
        for payload in range(40):
            cluster.process(0).send(1, Probe(0, payload))
        cluster.process(0).send(2, Probe(0, -1))  # untouched
        cluster.run_until(4.0)
        delays = [when - 2.0 for when, _ in cluster.process(1).received]
        assert len(delays) == 40
        assert all(0.2 <= delay <= 0.2 + 0.05 + 0.05 for delay in delays)
        (untouched, _), = cluster.process(2).received
        assert untouched - 2.0 <= 0.05

    def test_sim_caps_the_rate_and_lets_reorders_overtake(self) -> None:
        cluster = self._shaped(NetemFault(1.0, 5.0, ((0, 1),), delay=0.5,
                                          reorder=1.0, rate=10.0))
        for payload in range(6):
            cluster.process(0).send(1, Probe(0, payload))
        cluster.run_until(4.0)
        # A 10 msgs/s bucket bursts 2; every admitted copy skips the
        # 0.5 s queue.
        delays = [when - 2.0 for when, _ in cluster.process(1).received]
        assert len(delays) == 2 and all(delay <= 0.05 for delay in delays)
        assert cluster.network.metrics.dropped_by_reason["rate_cap"] == 4

    def test_model_envelope_applies_heal_by_rule(self) -> None:
        envelope = ModelEnvelope(n=3, source=0, f=1, horizon=400.0)
        healed = FaultPlan([NetemFault(10.0, 100.0, ((0, 1),),
                                       delay=0.2, jitter=0.1)])
        assert model_violations(healed, envelope) == []
        persistent = FaultPlan([NetemFault(10.0, 390.0, ((0, 1),),
                                           delay=0.2)])
        assert any("persists" in issue
                   for issue in model_violations(persistent, envelope))


class TestModelEnvelope:
    def test_heal_by(self) -> None:
        envelope = ModelEnvelope(n=5, source=0, f=2, horizon=400.0,
                                 heal_margin=0.5)
        assert envelope.heal_by == 200.0

    def test_bad_source_rejected(self) -> None:
        with pytest.raises(ValueError):
            ModelEnvelope(n=3, source=3, f=1)

    def test_source_crash_is_a_violation(self) -> None:
        envelope = ModelEnvelope(n=5, source=2, f=2)
        plan = FaultPlan.crashes_at((10.0, 2))
        assert any("source" in issue
                   for issue in model_violations(plan, envelope))

    def test_too_many_crashes_is_a_violation(self) -> None:
        envelope = ModelEnvelope(n=5, source=0, f=1)
        plan = FaultPlan.crashes_at((10.0, 1), (20.0, 2))
        assert any("fault bound" in issue
                   for issue in model_violations(plan, envelope))

    def test_persistent_disturbance_is_a_violation(self) -> None:
        envelope = ModelEnvelope(n=5, source=0, f=2, horizon=400.0)
        plan = FaultPlan([PartitionFault(10.0, 390.0, ((0, 1, 2), (3, 4)))])
        assert any("persists" in issue
                   for issue in model_violations(plan, envelope))

    def test_a_recover_is_a_violation_only_under_crash_stop(self) -> None:
        bounce = FaultPlan([CrashFault(30.0, 3, recover_at=60.0)])
        late = FaultPlan([CrashFault(30.0, 1), RecoverFault(90.0, 1)])
        stop = ModelEnvelope(n=5, source=0, f=2, failure_model="crash-stop")
        assert model_violations(bounce, stop) == [
            "recovers pids [3] under a crash-stop algorithm; a recovered "
            "process may split leadership for good"]
        assert any("recovers pids [1]" in issue
                   for issue in model_violations(late, stop))
        for plan in (bounce, late):
            assert model_violations(plan, ModelEnvelope(n=5, source=0,
                                                        f=2)) == []
        assert model_violations(FaultPlan.crashes_at((10.0, 1)), stop) == []
        with pytest.raises(ValueError, match="failure model"):
            ModelEnvelope(n=5, source=0, f=2, failure_model="byzantine")

    def test_duplication_is_always_legal(self) -> None:
        envelope = ModelEnvelope(n=5, source=0, f=2, horizon=400.0)
        plan = FaultPlan([DuplicateFault(10.0, 399.0, ((0, 1),), p=1.0)])
        assert model_violations(plan, envelope) == []

    def test_healed_disturbances_are_legal(self) -> None:
        envelope = ModelEnvelope(n=5, source=0, f=2, horizon=400.0)
        plan = FaultPlan([
            CrashFault(30.0, 3),
            PauseFault(20.0, 0, 10.0),
            PartitionFault(50.0, 80.0, ((0, 1, 2), (3, 4))),
            DegradeFault(90.0, 120.0, ((0, 1),), loss=0.9),
        ])
        assert model_violations(plan, envelope) == []


def _campaign(envelope: ModelEnvelope, seed: int, index: int) -> FaultPlan:
    """Plan ``index`` of campaign ``seed``: one private seeded stream each."""
    return sample_plan(random.Random(f"nemesis/{seed}/{index}"), envelope)


class TestNemesisSampling:
    def test_sampled_plans_are_in_model(self) -> None:
        rng = random.Random(0)
        for index in range(300):
            n = rng.randint(2, 8)
            envelope = ModelEnvelope(n=n, source=rng.randrange(n),
                                     f=(n - 1) // 2,
                                     horizon=rng.choice([200.0, 400.0]))
            plan = sample_plan(rng, envelope)
            assert model_violations(plan, envelope) == [], plan.describe()

    def test_sampled_plans_round_trip(self) -> None:
        rng = random.Random(1)
        envelope = ModelEnvelope(n=5, source=1, f=2)
        for _ in range(100):
            plan = sample_plan(rng, envelope)
            assert FaultPlan.from_repro(plan.to_repro()) == plan

    def test_nemesis_is_replayable_from_seed_and_index(self) -> None:
        envelope = ModelEnvelope(n=5, source=0, f=2)
        first = [_campaign(envelope, 42, index) for index in range(10)]
        second = [_campaign(envelope, 42, index) for index in range(10)]
        assert first == second
        # Index addressing is random access, not a stream position.
        assert _campaign(envelope, 42, 7) == second[7]

    def test_different_seeds_differ(self) -> None:
        envelope = ModelEnvelope(n=6, source=0, f=2)
        plans_a = [_campaign(envelope, 1, index) for index in range(5)]
        plans_b = [_campaign(envelope, 2, index) for index in range(5)]
        assert plans_a != plans_b

    def test_sampled_plans_schedule_cleanly(self) -> None:
        envelope = ModelEnvelope(n=4, source=0, f=1)
        for index in range(20):
            plan = _campaign(envelope, 9, index)
            cluster = build_cluster(n=4, seed=index)
            plan.schedule(cluster)
            cluster.start_all()
            cluster.run_until(30.0)
