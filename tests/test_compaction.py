"""Tests for log compaction and snapshot transfer."""

from __future__ import annotations

import pytest

from conftest import drip

from repro.consensus import (
    CompactingReplica,
    ConsensusSystem,
    JournalMachine,
    KeyValueStore,
    SnapshotAck,
    SnapshotOffer,
    check_compacting_log,
)
from repro.consensus.messages import Ballot, Forward, Prepare
from repro.sim import FaultPlan, LinkTimings
from repro.sim.engine import Simulation
from repro.sim.network import Network
from repro.sim.topology import multi_source_links

TIMINGS = LinkTimings(gst=3.0)


def build_system(n: int = 5, keep_tail: int = 8, seed: int = 9,
                 machine=JournalMachine) -> ConsensusSystem:  # noqa: ANN001
    return ConsensusSystem.build_replicated_log(
        n, lambda: multi_source_links(n, (1, 2), TIMINGS),
        machine_factory=machine, keep_tail=keep_tail, seed=seed)


def build_pair() -> tuple[Simulation, list[CompactingReplica]]:
    sim = Simulation()
    network = Network(sim)
    replicas = [CompactingReplica(pid, sim, network, 3,
                                  leader_of=lambda: 99,
                                  machine_factory=JournalMachine,
                                  keep_tail=4)
                for pid in range(3)]
    for replica in replicas:
        replica.start()
    return sim, replicas


class TestValidation:
    def test_keep_tail_positive(self) -> None:
        sim = Simulation()
        network = Network(sim)
        with pytest.raises(ValueError):
            CompactingReplica(0, sim, network, 3, leader_of=lambda: 0,
                              machine_factory=JournalMachine, keep_tail=0)


class TestApplicationOnCommit:
    def test_machine_follows_commits(self) -> None:
        _, replicas = build_pair()
        replica = replicas[0]
        from repro.consensus.messages import Decide

        replica.deliver(Decide(1, 0, (0, "a")))
        replica.deliver(Decide(1, 1, (1, "b")))
        assert replica.machine_snapshot() == ("a", "b")

    def test_duplicate_ids_applied_once(self) -> None:
        _, replicas = build_pair()
        replica = replicas[0]
        from repro.consensus.messages import Decide

        replica.deliver(Decide(1, 0, (7, "x")))
        replica.deliver(Decide(1, 1, (7, "x")))
        assert replica.machine_snapshot() == ("x",)

    def test_late_decide_below_the_floor_is_not_stored_again(self) -> None:
        # A retransmitted decide that arrives after its instance was
        # compacted must not grow the log below the floor (keep_tail=4).
        sim, replicas = build_pair()
        replica = replicas[0]
        from repro.consensus.messages import Decide

        for instance in range(10):
            replica.deliver(Decide(1, instance, (instance, f"c{instance}")))
        sim.run_until(1.0)  # a driver pass compacts
        assert replica.compact_floor == 6 and replica.log_size() == 4
        replica.deliver(Decide(1, 2, (2, "c2")))
        assert replica.log_size() == 4
        assert replica.machine_snapshot() == tuple(
            f"c{instance}" for instance in range(10))


class TestCompaction:
    def test_log_is_bounded(self) -> None:
        system = build_system(keep_tail=8)
        drip(60, 0.3, start=4.0).drive(system)
        system.start_all()
        system.run_until(200.0)
        for pid in system.up_pids():
            replica = system.node(pid).agreement
            assert replica.log_size() <= 8 + replica.config.max_batch, \
                f"replica {pid} holds {replica.log_size()} entries"

    def test_floor_advances_with_commits(self) -> None:
        system = build_system(keep_tail=8)
        fleet = drip(40, 0.3, start=4.0).drive(system)
        system.start_all()
        system.run_until(200.0)
        report = check_compacting_log(system, fleet.group_payloads[0])
        assert report.agreement and report.validity
        for pid in system.up_pids():
            replica = system.node(pid).agreement
            assert replica.compact_floor == replica.commit_index - 8 + 1

    def test_all_replicas_converge(self) -> None:
        system = build_system()
        fleet = drip(50, 0.3, start=4.0).drive(system)
        system.start_all()
        system.run_until(250.0)
        assert fleet.done()
        journals = {system.node(pid).agreement.machine_snapshot()
                    for pid in system.up_pids()}
        assert len(journals) == 1
        assert len(journals.pop()) == 50


class TestSnapshotTransfer:
    def test_partitioned_laggard_catches_up_via_snapshot(self) -> None:
        system = build_system(keep_tail=8, seed=9)
        fleet = drip(80, 0.4, start=4.0).drive(system)
        for network in (system.agreement_network, system.fd_network):
            network.add_partition(10.0, 50.0, [{0, 1, 2, 3}, {4}])
        system.start_all()
        system.run_until(300.0)
        report = check_compacting_log(system, fleet.group_payloads[0])
        assert report.agreement and report.validity
        laggard = system.node(4).agreement
        assert laggard.snapshots_installed >= 1, \
            "the laggard must have needed a snapshot"
        assert laggard.commit_index == report.max_commit
        assert fleet.done()

    def test_crashed_debtor_gets_bounded_offers(self) -> None:
        system = build_system(keep_tail=8, seed=7)
        drip(40, 0.3, start=4.0).drive(system)
        FaultPlan.crashes_at((10.0, 3)).schedule(system)
        system.start_all()
        system.run_until(100.0)
        total_offers = sum(system.node(pid).agreement.snapshots_sent
                           for pid in system.up_pids())
        # Retry interval 2.5s over ~90s: ≈36 offers per debtor-holding
        # replica (leadership may move, so a few replicas can hold the
        # debt).  Without the backoff this would be ~180 per holder.
        assert total_offers <= 150

    def test_offer_with_older_state_is_ignored(self) -> None:
        _, replicas = build_pair()
        replica = replicas[0]
        from repro.consensus.messages import Decide

        replica.deliver(Decide(1, 0, (0, "a")))
        replica.deliver(Decide(1, 1, (1, "b")))
        replica.deliver(SnapshotOffer(2, through=0, state=("z",),
                                      applied_ids=(9,)))
        assert replica.machine_snapshot() == ("a", "b"), \
            "a snapshot older than our commit point must not regress us"

    def test_offer_is_acked_either_way(self) -> None:
        sim, replicas = build_pair()
        replica = replicas[0]
        replica.deliver(SnapshotOffer(1, through=-1, state=(),
                                      applied_ids=()))
        sim.run_until(1.0)
        # Replica 1 received our ack (it is idle, just count arrivals).
        acks = [m for m in
                replicas[1].network.metrics.delivered_by_kind.items()
                if m[0] == "SnapshotAck"]
        assert acks and acks[0][1] >= 1

    def test_install_updates_dedup_state(self) -> None:
        _, replicas = build_pair()
        replica = replicas[0]
        # Queued by a peer's forward: an idle follower's own submit
        # forwards at once, and pid 99 is no member here.
        replica.deliver(Forward(2, 5, "queued-cmd"))
        replica.deliver(SnapshotOffer(1, through=3,
                                      state=("w", "x", "queued-cmd"),
                                      applied_ids=(1, 2, 5)))
        assert replica.commit_index == 3
        assert 5 not in replica.pending, \
            "a command covered by the snapshot must leave the queue"
        assert replica.machine_snapshot() == ("w", "x", "queued-cmd")


class TestPrepareWithFloor:
    def test_prepare_below_floor_gets_snapshot_not_promise(self) -> None:
        _, replicas = build_pair()
        replica = replicas[0]
        from repro.consensus.messages import Decide

        for instance in range(10):
            replica.deliver(Decide(1, instance, (instance, f"c{instance}")))
        replica._maybe_compact()
        assert replica.compact_floor > 0
        before = replica.snapshots_sent
        replica.deliver(Prepare(2, Ballot(5, 2), 0))
        assert replica.snapshots_sent == before + 1
        assert replica.promised < Ballot(5, 2), \
            "no promise may be given for an incompletely reportable range"

    def test_prepare_at_floor_promises_normally(self) -> None:
        _, replicas = build_pair()
        replica = replicas[0]
        from repro.consensus.messages import Decide

        for instance in range(10):
            replica.deliver(Decide(1, instance, (instance, f"c{instance}")))
        replica._maybe_compact()
        ballot = Ballot(5, 2)
        replica.deliver(Prepare(2, ballot, replica.compact_floor))
        assert replica.promised == ballot


class TestKeyValueCompaction:
    def test_kv_state_survives_compaction_and_transfer(self) -> None:
        system = build_system(keep_tail=6, seed=11, machine=KeyValueStore)
        commands = [(i, ("set", f"k{i % 4}", i)) for i in range(30)]
        for index, command in commands:
            target = [0, 1, 2][index % 3]
            system.sim.call_at(
                4.0 + 0.3 * index,
                lambda t=target, i=index, c=command:
                    system.node(t).agreement.submit(i, c))
        for network in (system.agreement_network, system.fd_network):
            network.add_partition(6.0, 25.0, [{0, 1, 2, 3}, {4}])
        system.start_all()
        system.run_until(250.0)
        stores = [dict(system.node(pid).agreement.machine_snapshot())
                  for pid in system.up_pids()]
        assert all(store == stores[0] for store in stores)
        assert set(stores[0]) == {"k0", "k1", "k2", "k3"}
