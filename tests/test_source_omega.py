"""Behavioural tests for the eventually-timely-source Omega (R1)."""

from __future__ import annotations

from repro.core import Accusation, Alive, analyze_omega_run, make_factory
from repro.core.config import OmegaConfig
from repro.core.source_omega import SourceOmega
from repro.sim import Cluster, FaultPlan, LinkTimings
from repro.sim.engine import Simulation
from repro.sim.network import Network
from repro.sim.topology import source_links


def build(n: int = 5, source: int = 2, seed: int = 1, gst: float = 4.0,
          config: OmegaConfig | None = None) -> Cluster:
    return Cluster.build(
        n, make_factory("source", config or OmegaConfig()),
        links=source_links(n, source, LinkTimings(gst=gst)), seed=seed)


class TestConvergence:
    def test_converges_on_a_correct_process(self) -> None:
        cluster = build()
        cluster.start_all()
        cluster.run_until(120.0)
        report = analyze_omega_run(cluster)
        assert report.omega_holds

    def test_source_keeps_bounded_counter(self) -> None:
        cluster = build(source=2)
        cluster.start_all()
        cluster.run_until(60.0)
        counter_mid = cluster.process(2).counter
        cluster.run_until(160.0)
        counter_end = cluster.process(2).counter
        assert counter_end == counter_mid, \
            "the source's accusation counter must stabilize"

    def test_converges_across_seeds(self) -> None:
        for seed in range(5):
            cluster = build(seed=seed)
            cluster.start_all()
            cluster.run_until(150.0)
            assert analyze_omega_run(cluster).omega_holds, f"seed {seed}"

    def test_crash_of_nonsource_is_tolerated(self) -> None:
        cluster = build(n=5, source=2)
        FaultPlan.crashes_at((15.0, 0), (25.0, 4)).schedule(cluster)
        cluster.start_all()
        cluster.run_until(150.0)
        report = analyze_omega_run(cluster)
        assert report.omega_holds
        assert report.final_leader in {1, 2, 3}

    def test_crashed_leader_abandoned(self) -> None:
        cluster = build(n=5, source=2)
        cluster.start_all()
        cluster.run_until(60.0)
        leader = analyze_omega_run(cluster).final_leader
        cluster.crash(leader)
        cluster.run_until(220.0)
        report = analyze_omega_run(cluster)
        assert report.omega_holds
        assert report.final_leader != leader


class TestAccusationMechanics:
    def build_direct(self) -> tuple[Simulation, Network, SourceOmega]:
        sim = Simulation(seed=0)
        network = Network(sim)
        proto = SourceOmega(0, sim, network, OmegaConfig())
        SourceOmega(1, sim, network, OmegaConfig())
        proto.start()
        return sim, network, proto

    def test_matching_phase_increments_counter(self) -> None:
        _, _, proto = self.build_direct()
        assert proto.counter == 0
        proto.deliver(Accusation(1, target=0, phase=0))
        assert proto.counter == 1
        assert proto.phase == 1

    def test_stale_phase_ignored(self) -> None:
        _, _, proto = self.build_direct()
        proto.deliver(Accusation(1, target=0, phase=0))
        proto.deliver(Accusation(1, target=0, phase=0))  # now stale
        assert proto.counter == 1
        assert proto.stale_accusations == 1

    def test_phase_tagging_can_be_disabled(self) -> None:
        sim = Simulation(seed=0)
        network = Network(sim)
        config = OmegaConfig(phase_tagged_accusations=False)
        proto = SourceOmega(0, sim, network, config)
        SourceOmega(1, sim, network, config)
        proto.start()
        proto.deliver(Accusation(1, target=0, phase=0))
        proto.deliver(Accusation(1, target=0, phase=0))
        assert proto.counter == 2, "without tagging every accusation counts"

    def test_adoption_prefers_smaller_counter_then_id(self) -> None:
        _, _, proto = self.build_direct()
        proto.deliver(Alive(1, counter=0, phase=0))
        # Tie on counter: smaller id (0 = self) wins, so no adoption.
        assert proto.leader() == 0
        proto.counter = 3  # our priority worsens
        proto.deliver(Alive(1, counter=1, phase=0))
        assert proto.leader() == 1

    def test_alive_from_leader_refreshes_watch(self) -> None:
        sim, _, proto = self.build_direct()
        proto.counter = 5
        proto.deliver(Alive(1, counter=0, phase=0))
        assert proto.leader() == 1
        assert proto.has_timer("watch")

    def test_watch_expiry_accuses_and_self_promotes(self) -> None:
        # Peer 1 stays silent (never started), so after one Alive the
        # watch must expire, we must self-promote, and an accusation with
        # the last-seen phase must go out.
        sim, network, proto = self.build_direct()
        proto.counter = 5
        proto.deliver(Alive(1, counter=0, phase=7))
        assert proto.leader() == 1
        sim.run_until(proto.timeouts.get(1) + 10.0)
        assert proto.leader() == 0
        assert network.metrics.sent_by_kind["Accusation"] >= 1

    def test_timeout_grows_on_expiry(self) -> None:
        sim, _, proto = self.build_direct()
        proto.counter = 5
        before = proto.timeouts.get(1)
        proto.deliver(Alive(1, counter=0, phase=0))
        sim.run_until(before + 5.0)
        assert proto.timeouts.get(1) > before


class TestCost:
    def test_everyone_keeps_sending_forever(self) -> None:
        cluster = build()
        cluster.start_all()
        cluster.run_until(120.0)
        senders = cluster.metrics.senders_between(100.0, 120.0)
        assert senders == set(range(5)), "R1 algorithm is not CE by design"
