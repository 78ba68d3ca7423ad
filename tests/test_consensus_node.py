"""Unit tests for the Omega+consensus node pairing."""

from __future__ import annotations

import pytest

from repro.consensus import ConsensusSystem
from repro.consensus.replica import LogReplica
from repro.consensus.single import SingleDecreeConsensus
from repro.core.omega import OmegaProtocol
from repro.sim import FaultPlan, LinkTimings
from repro.sim.topology import source_links

TIMINGS = LinkTimings(gst=2.0)


def links():  # noqa: ANN201
    return source_links(4, 0, TIMINGS)


class TestBuilders:
    def test_single_decree_structure(self) -> None:
        system = ConsensusSystem.build_single_decree(
            4, links, proposals=list("abcd"))
        assert system.n == 4
        assert system.pids == [0, 1, 2, 3]
        node = system.node(2)
        assert isinstance(node.omega, OmegaProtocol)
        assert isinstance(node.agreement, SingleDecreeConsensus)
        assert node.agreement.proposal == "c"

    def test_replicated_log_structure(self) -> None:
        system = ConsensusSystem.build_replicated_log(4, links)
        assert isinstance(system.node(0).agreement, LogReplica)

    def test_proposal_count_validated(self) -> None:
        with pytest.raises(ValueError):
            ConsensusSystem.build_single_decree(4, links, proposals=["x"])

    def test_networks_are_distinct(self) -> None:
        system = ConsensusSystem.build_single_decree(
            4, links, proposals=list("abcd"))
        assert system.fd_network is not system.agreement_network
        assert system.fd_network.sim is system.agreement_network.sim

    def test_leader_oracle_wired_to_omega(self) -> None:
        system = ConsensusSystem.build_single_decree(
            4, links, proposals=list("abcd"))
        node = system.node(1)
        assert node.agreement.leader_of() == node.omega.leader()


class TestCrashCoupling:
    def test_crash_takes_down_both_layers(self) -> None:
        system = ConsensusSystem.build_single_decree(
            4, links, proposals=list("abcd"))
        system.start_all()
        system.crash(2)
        node = system.node(2)
        assert node.crashed
        assert node.omega.crashed
        assert node.agreement.crashed
        assert system.up_pids() == [0, 1, 3]

    def test_crash_plan_compatible(self) -> None:
        system = ConsensusSystem.build_single_decree(
            4, links, proposals=list("abcd"))
        FaultPlan.crashes_at((1.0, 3)).schedule(system)
        system.start_all()
        system.run_until(2.0)
        assert system.node(3).crashed

    def test_staggered_start(self) -> None:
        system = ConsensusSystem.build_single_decree(
            4, links, proposals=list("abcd"))
        system.start_all(stagger=1.0)
        system.run_until(0.5)
        assert system.node(0).omega.started
        assert not system.node(3).omega.started
        system.run_until(3.5)
        assert all(system.node(pid).omega.started for pid in system.pids)


class TestLayerSeparation:
    def test_traffic_accounted_per_layer(self) -> None:
        system = ConsensusSystem.build_single_decree(
            4, links, proposals=list("abcd"))
        system.start_all()
        system.run_until(20.0)
        fd_kinds = set(system.fd_network.metrics.sent_by_kind)
        ag_kinds = set(system.agreement_network.metrics.sent_by_kind)
        assert fd_kinds and ag_kinds
        assert not fd_kinds & ag_kinds, \
            "omega and consensus messages must not share a network"
