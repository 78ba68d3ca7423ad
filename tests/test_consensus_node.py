"""Unit tests for the Omega+consensus node pairing."""

from __future__ import annotations

import pytest

from repro.consensus import ConsensusSystem
from repro.consensus.replica import LogReplica
from repro.consensus.single import SingleDecreeConsensus
from repro.core import analyze_omega_run, communication_report, measure_qos
from repro.core.omega import OmegaProtocol
from repro.obs import Observer
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
        for pid in system.pids:                # machine i boots at t = i
            for layer in system.stacks[pid]:
                system.sim.call_at(float(pid), layer.start)
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


class LayerWitness(Observer):
    """Records, at each crash/recover/pause a network sees, the flags of
    every layer of that machine — so the order the layers were hit in
    shows."""

    def __init__(self, system: ConsensusSystem, layer: int,
                 seen: list) -> None:
        self.system, self.layer, self.seen = system, layer, seen

    def _note(self, event: str, pid: int, flag: str) -> None:
        self.seen.append((event, self.layer, [
            getattr(layer, flag) for layer in self.system.stacks[pid]]))

    def on_crash(self, time: float, pid: int) -> None:
        self._note("crash", pid, "crashed")

    def on_recover(self, time: float, pid: int, incarnation: int) -> None:
        self._note("recover", pid, "incarnation")

    def on_pause(self, time: float, pid: int) -> None:
        self._note("pause", pid, "paused")


class TestMachineSurface:
    def test_omega_judges_accept_a_consensus_system(self) -> None:
        system = ConsensusSystem.build_replicated_log(4, links, seed=3)
        system.start_all()
        system.run_until(30.0)
        system.crash(system.node(0).omega.leader())
        system.run_until(80.0)
        report = analyze_omega_run(system)
        assert report.omega_holds
        assert report.final_leader in system.up_pids()
        assert communication_report(system, 10.0).senders == \
            {report.final_leader}
        assert measure_qos(system).worst_detection_time is not None

    def test_every_operation_hits_omega_then_each_group_in_order(
            self) -> None:
        system = ConsensusSystem.build_replicated_log(
            4, links, omega_name="crash-recovery", persist=True, groups=2)
        assert len(system.networks) == 3
        assert [len(stack) for stack in system.stacks.values()] == [3] * 4
        started: list[list[bool]] = []
        for layer in system.stacks[2]:
            def start(layer=layer, inner=layer.start):  # noqa: ANN001, ANN202
                started.append([each.started for each in system.stacks[2]])
                inner()
            layer.start = start
        seen: list = []
        for index, network in enumerate(system.networks):
            network.hub.attach(LayerWitness(system, index, seen))
        system.start_all()
        assert started == [[False] * 3, [True, False, False],
                           [True, True, False]]
        system.run_until(5.0)
        system.crash(2)
        system.recover(2)
        system.pause(2)
        assert seen == [
            ("crash", 0, [True, False, False]),
            ("crash", 1, [True, True, False]),
            ("crash", 2, [True, True, True]),
            ("recover", 0, [1, 0, 0]),
            ("recover", 1, [1, 1, 0]),
            ("recover", 2, [1, 1, 1]),
            ("pause", 0, [True, False, False]),
            ("pause", 1, [True, True, False]),
            ("pause", 2, [True, True, True]),
        ]
        assert [group.node(2).agreement for group in system.groups] == \
            list(system.stacks[2][1:])
