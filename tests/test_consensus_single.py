"""Behavioural tests for single-decree consensus."""

from __future__ import annotations

import pytest

from repro.consensus import (
    ConsensusConfig,
    ConsensusSystem,
    SingleDecreeConsensus,
    check_single_decree,
)
from repro.consensus.messages import Ballot, Prepare, Propose
from repro.sim import FaultPlan, LinkTimings
from repro.sim.engine import Simulation
from repro.sim.network import Network
from repro.sim.topology import all_timely_links, source_links


def links_factory(n: int = 5, source: int = 1, gst: float = 3.0):  # noqa: ANN201
    timings = LinkTimings(gst=gst)
    return lambda: source_links(n, source, timings)


def build(n: int = 5, seed: int = 1, omega: str = "comm-efficient",
          **kwargs) -> ConsensusSystem:  # noqa: ANN003
    return ConsensusSystem.build_single_decree(
        n, links_factory(n), proposals=[f"v{i}" for i in range(n)],
        omega_name=omega, seed=seed, **kwargs)


class TestHappyPath:
    def test_all_decide_one_valid_value(self) -> None:
        system = build()
        system.start_all()
        system.run_until(80.0)
        report = check_single_decree(system)
        assert report.agreement and report.validity
        assert report.all_correct_decided
        assert report.latest_decision is not None

    def test_works_with_every_omega_variant(self) -> None:
        for name in ("all-timely", "source", "comm-efficient"):
            system = build(omega=name, seed=3)
            system.start_all()
            system.run_until(120.0)
            report = check_single_decree(system)
            assert report.agreement and report.validity, name
            assert report.all_correct_decided, name

    def test_f_source_omega_drives_consensus(self) -> None:
        from repro.sim.topology import f_source_links

        timings = LinkTimings(gst=3.0)
        system = ConsensusSystem.build_single_decree(
            5, lambda: f_source_links(5, 1, [0, 2], timings),
            proposals=list("abcde"), omega_name="f-source", f=2, seed=4)
        system.start_all()
        system.run_until(400.0)
        report = check_single_decree(system)
        assert report.agreement and report.validity
        assert report.all_correct_decided


class TestCrashTolerance:
    def test_minority_crash_before_start_of_agreement(self) -> None:
        system = build()
        FaultPlan.crashes_at((0.5, 0), (0.7, 4)).schedule(system)
        system.start_all()
        system.run_until(150.0)
        report = check_single_decree(system)
        assert report.agreement and report.validity
        assert report.all_correct_decided

    def test_leader_crash_mid_protocol(self) -> None:
        # Crash whoever leads at t=6 (around the first ballots).
        system = build(seed=7)
        system.start_all()
        system.run_until(6.0)
        leader = system.node(2).omega.leader()
        if leader in system.up_pids():
            system.crash(leader)
        system.run_until(300.0)
        report = check_single_decree(system)
        assert report.agreement and report.validity
        # All correct processes decided despite losing the first leader.
        assert report.all_correct_decided

    def test_majority_crash_halts_but_stays_safe(self) -> None:
        system = build()
        FaultPlan.crashes_at((0.2, 0), (0.3, 2), (0.4, 4)).schedule(system)
        system.start_all()
        system.run_until(200.0)
        report = check_single_decree(system)
        # With only 2 of 5 alive nothing can be decided...
        assert not report.decided or report.agreement
        # ...and in particular safety was never violated.
        assert report.validity


class TestQuorumIntersectionUnit:
    """Acceptor-level unit checks with a stubbed leader oracle."""

    def build_pair(self) -> tuple[Simulation, SingleDecreeConsensus]:
        sim = Simulation()
        network = Network(sim)
        a = SingleDecreeConsensus(0, sim, network, n=3, proposal="A",
                                  leader_of=lambda: 99)  # never proposes
        SingleDecreeConsensus(1, sim, network, n=3, proposal="B",
                              leader_of=lambda: 99)
        a.start()
        network.process(1).start()
        return sim, a

    def test_acceptor_promises_monotonically(self) -> None:
        _, acceptor = self.build_pair()
        acceptor.deliver(Prepare(1, Ballot(5, 1), 0))
        assert acceptor.promised == Ballot(5, 1)
        acceptor.deliver(Prepare(1, Ballot(3, 1), 0))
        assert acceptor.promised == Ballot(5, 1), "lower prepare ignored"

    def test_acceptor_rejects_stale_propose(self) -> None:
        _, acceptor = self.build_pair()
        acceptor.deliver(Prepare(1, Ballot(5, 1), 0))
        acceptor.deliver(Propose(1, Ballot(4, 1), 0, "X", -1))
        assert acceptor.accepted is None

    def test_acceptor_accepts_at_or_above_promise(self) -> None:
        _, acceptor = self.build_pair()
        acceptor.deliver(Prepare(1, Ballot(5, 1), 0))
        acceptor.deliver(Propose(1, Ballot(5, 1), 0, "X", -1))
        assert acceptor.accepted == (Ballot(5, 1), "X")

    def test_duplicate_propose_is_idempotent(self) -> None:
        _, acceptor = self.build_pair()
        message = Propose(1, Ballot(5, 1), 0, "X", -1)
        acceptor.deliver(message)
        acceptor.deliver(message)
        assert acceptor.accepted == (Ballot(5, 1), "X")

    def test_validation(self) -> None:
        sim = Simulation()
        network = Network(sim)
        with pytest.raises(ValueError):
            SingleDecreeConsensus(0, sim, network, n=1, proposal="A",
                                  leader_of=lambda: 0)


class TestDeterminism:
    def test_same_seed_same_decision(self) -> None:
        def decided(seed: int):  # noqa: ANN202
            system = build(seed=seed)
            system.start_all()
            system.run_until(80.0)
            return check_single_decree(system).decided

        assert decided(11) == decided(11)


class TestRetransmissionUnderLoss:
    def test_decides_despite_heavy_fair_loss(self) -> None:
        timings = LinkTimings(gst=3.0, fair_loss=0.7)
        system = ConsensusSystem.build_single_decree(
            5, lambda: source_links(5, 1, timings),
            proposals=list("abcde"), seed=5,
            consensus_config=ConsensusConfig(tick=0.5))
        system.start_all()
        system.run_until(300.0)
        report = check_single_decree(system)
        assert report.agreement and report.validity
        assert report.all_correct_decided
