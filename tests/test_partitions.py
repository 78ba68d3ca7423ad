"""Tests for network partitions (correlated loss bursts)."""

from __future__ import annotations

import pytest

from conftest import Probe, Recorder, drip, inject, make_pair, severed

from repro.consensus import ConsensusSystem, check_log
from repro.core import OmegaConfig, analyze_omega_run, make_factory
from repro.sim import Cluster, LinkTimings, PartitionFault
from repro.sim.engine import Simulation
from repro.sim.nemesis import FaultPlanError
from repro.sim.network import Network
from repro.sim.topology import all_eventually_timely_links, multi_source_links


class TestPartitionMechanics:
    def test_messages_across_partition_dropped(self, sim: Simulation,
                                               network: Network) -> None:
        a, b = make_pair(sim, network)
        inject(network, PartitionFault(0.0, 10.0, ((0,), (1,))))
        a.send(1, Probe(0))
        sim.run_until(1.0)
        assert b.received == []
        assert network.metrics.dropped_by_reason["partition"] == 1

    def test_messages_within_group_flow(self, sim: Simulation,
                                        network: Network) -> None:
        a, b = make_pair(sim, network)
        c = Recorder(2, sim, network)
        c.start()
        inject(network, PartitionFault(0.0, 10.0, ((0, 1), (2,))))
        a.send(1, Probe(0))
        a.send(2, Probe(0))
        sim.run_until(1.0)
        assert len(b.received) == 1
        assert c.received == []

    def test_partition_heals_at_end(self, sim: Simulation,
                                    network: Network) -> None:
        a, b = make_pair(sim, network)
        inject(network, PartitionFault(0.0, 5.0, ((0,), (1,))))
        sim.run_until(5.0)
        a.send(1, Probe(0))
        sim.run_until(6.0)
        assert len(b.received) == 1

    def test_process_outside_every_group_is_cut_off(self, sim: Simulation,
                                                    network: Network) -> None:
        a, b = make_pair(sim, network)
        inject(network, PartitionFault(0.0, 10.0, ((0,),)))
        a.send(1, Probe(0))
        b.send(0, Probe(1))
        sim.run_until(1.0)
        assert a.received == [] and b.received == []

    def test_zero_duration_rejected(self, network: Network) -> None:
        with pytest.raises(FaultPlanError):
            inject(network, PartitionFault(5.0, 5.0, ((0,), (1,))))

    def test_partitioned_predicate(self, sim: Simulation,
                                   network: Network) -> None:
        make_pair(sim, network)
        Recorder(2, sim, network).start()
        inject(network, PartitionFault(2.0, 4.0, ((0, 1), (2,))))
        sim.run_until(1.0)
        assert not severed(network, 0, 2)
        sim.run_until(2.0)
        assert severed(network, 0, 2)
        sim.run_until(3.0)
        assert not severed(network, 0, 1)
        sim.run_until(4.0)
        assert not severed(network, 0, 2)

    def test_overlapping_groups_rejected(self, sim: Simulation,
                                         network: Network) -> None:
        # Regression: non-disjoint groups used to be accepted silently,
        # making the "same side" predicate ambiguous.
        make_pair(sim, network)
        Recorder(2, sim, network).start()
        with pytest.raises(FaultPlanError, match="disjoint"):
            inject(network, PartitionFault(0.0, 10.0, ((0, 1), (1, 2))))

    def test_unknown_pid_rejected(self, sim: Simulation,
                                  network: Network) -> None:
        # Regression: partitions naming unregistered pids used to be
        # installed silently and never matched anything.
        make_pair(sim, network)
        with pytest.raises(FaultPlanError, match="references pid 7"):
            inject(network, PartitionFault(0.0, 10.0, ((0,), (7,))))


class TestOmegaAcrossPartitions:
    def test_leader_election_recovers_after_heal(self) -> None:
        cluster = Cluster.build(
            5, make_factory("all-timely", OmegaConfig()),
            links=all_eventually_timely_links(5, LinkTimings(gst=2.0)),
            seed=1)
        # A minority {3, 4} is isolated between t=20 and t=60.
        PartitionFault(20.0, 60.0, ((0, 1, 2), (3, 4))).schedule(cluster)
        cluster.start_all()
        cluster.run_until(50.0)
        # During the partition the two sides disagree.
        side_a = cluster.process(0).leader()
        side_b = cluster.process(3).leader()
        assert side_a == 0 and side_b == 3
        cluster.run_until(200.0)
        report = analyze_omega_run(cluster)
        assert report.omega_holds
        assert report.final_leader == 0

    def test_majority_side_keeps_a_stable_leader(self) -> None:
        cluster = Cluster.build(
            5, make_factory("all-timely", OmegaConfig()),
            links=all_eventually_timely_links(5, LinkTimings(gst=2.0)),
            seed=2)
        PartitionFault(20.0, 60.0, ((0, 1, 2), (3, 4))).schedule(cluster)
        cluster.start_all()
        cluster.run_until(58.0)
        majority_outputs = {cluster.process(pid).leader() for pid in (0, 1, 2)}
        assert majority_outputs == {0}


class TestConsensusAcrossPartitions:
    def test_log_stalls_without_majority_then_resumes(self) -> None:
        timings = LinkTimings(gst=2.0)
        system = ConsensusSystem.build_replicated_log(
            5, lambda: multi_source_links(5, (0, 1), timings), seed=3)
        fleet = drip(20, 0.5, start=4.0).drive(system)
        # Fragment into minorities: no quorum anywhere for 30s, on both
        # the agreement and the failure-detector network.
        PartitionFault(10.0, 40.0, ((0, 1), (2, 3), (4,))).schedule(system)
        system.start_all()
        system.run_until(38.0)
        report_mid = check_log(system, fleet.group_payloads[0])
        committed_mid = report_mid.max_committed
        system.run_until(39.5)
        assert check_log(system, fleet.group_payloads[0]).max_committed \
            <= committed_mid + 1, "no quorum: commits must stall"
        system.run_until(300.0)
        report = check_log(system, fleet.group_payloads[0])
        assert report.agreement and report.validity
        assert fleet.done()

    def test_safety_holds_even_with_symmetric_split(self) -> None:
        timings = LinkTimings(gst=2.0)
        system = ConsensusSystem.build_replicated_log(
            4, lambda: multi_source_links(4, (0, 2), timings), seed=4)
        fleet = drip(10, 0.5, start=3.0).drive(system)
        PartitionFault(8.0, 30.0, ((0, 1), (2, 3))).schedule(system)
        system.start_all()
        system.run_until(250.0)
        report = check_log(system, fleet.group_payloads[0])
        assert report.agreement and report.validity
