"""Tests for state-machine replication on the log."""

from __future__ import annotations

import pytest

from repro.consensus import (
    ConsensusSystem,
    CounterMachine,
    KeyValueStore,
    LogReplica,
    ReplicatedStateMachine,
)
from repro.sim import FaultPlan, LinkTimings
from repro.sim.engine import Simulation
from repro.sim.network import Network
from repro.sim.topology import multi_source_links


class TestKeyValueStore:
    def test_set_returns_previous(self) -> None:
        store = KeyValueStore()
        assert store.apply(("set", "a", 1)) is None
        assert store.apply(("set", "a", 2)) == 1
        assert store.get("a") == 2

    def test_delete(self) -> None:
        store = KeyValueStore()
        store.apply(("set", "a", 1))
        assert store.apply(("delete", "a")) is True
        assert store.apply(("delete", "a")) is False
        assert store.get("a", "gone") == "gone"

    def test_cas(self) -> None:
        store = KeyValueStore()
        store.apply(("set", "a", 1))
        assert store.apply(("cas", "a", 1, 2)) is True
        assert store.apply(("cas", "a", 1, 3)) is False
        assert store.get("a") == 2

    def test_snapshot_is_comparable(self) -> None:
        left = KeyValueStore()
        right = KeyValueStore()
        for store in (left, right):
            store.apply(("set", "x", 1))
            store.apply(("set", "y", 2))
        assert left.snapshot() == right.snapshot()
        assert len(left) == 2

    def test_unknown_command(self) -> None:
        with pytest.raises(ValueError):
            KeyValueStore().apply(("mystery",))


class TestCounterMachine:
    def test_inc_dec(self) -> None:
        counter = CounterMachine()
        assert counter.apply("inc") == 1
        assert counter.apply("inc") == 2
        assert counter.apply("dec") == 1
        assert counter.snapshot() == 1

    def test_unknown_command(self) -> None:
        with pytest.raises(ValueError):
            CounterMachine().apply("reset")


def make_replica() -> LogReplica:
    sim = Simulation()
    network = Network(sim)
    replica = LogReplica(0, sim, network, 3, leader_of=lambda: 99)
    LogReplica(1, sim, network, 3, leader_of=lambda: 99)
    return replica


class TestReplicatedStateMachine:
    def test_sync_applies_committed_prefix_in_order(self) -> None:
        replica = make_replica()
        rsm = ReplicatedStateMachine(replica, KeyValueStore())
        replica.log = {0: (1, ("set", "a", 1)), 1: (2, ("set", "a", 2))}
        replica.commit_index = 1
        assert rsm.sync() == 2
        assert rsm.machine.get("a") == 2
        assert rsm.applied_through == 1

    def test_sync_is_incremental(self) -> None:
        replica = make_replica()
        rsm = ReplicatedStateMachine(replica, CounterMachine())
        replica.log = {0: (1, "inc")}
        replica.commit_index = 0
        assert rsm.sync() == 1
        assert rsm.sync() == 0
        replica.log[1] = (2, "inc")
        replica.commit_index = 1
        assert rsm.sync() == 1
        assert rsm.snapshot() == 2

    def test_noops_and_duplicate_ids_skipped(self) -> None:
        replica = make_replica()
        rsm = ReplicatedStateMachine(replica, CounterMachine())
        replica.log = {0: (1, "inc"), 1: None, 2: (1, "inc"), 3: (2, "inc")}
        replica.commit_index = 3
        assert rsm.sync() == 2
        assert rsm.snapshot() == 2

    def test_results_recorded_per_command(self) -> None:
        replica = make_replica()
        rsm = ReplicatedStateMachine(replica, CounterMachine())
        replica.log = {0: (7, "inc"), 1: (8, "inc")}
        replica.commit_index = 1
        assert rsm.result_of(7) == 1
        assert rsm.result_of(8) == 2
        assert rsm.result_of(99) is None


class TestEndToEndReplication:
    def test_kv_replicas_converge_despite_leader_crash(self) -> None:
        timings = LinkTimings(gst=3.0)
        system = ConsensusSystem.build_replicated_log(
            5, lambda: multi_source_links(5, (1, 2), timings), seed=6)
        machines = {pid: ReplicatedStateMachine(system.node(pid).agreement,
                                                KeyValueStore())
                    for pid in system.pids}
        commands = [(index, ("set", f"k{index % 3}", index))
                    for index in range(12)]
        # Round-robin over the nodes that will survive (node 1 crashes);
        # clients whose node dies would resubmit elsewhere in practice.
        survivors = [0, 2, 3, 4]
        for index, command in commands:
            target = survivors[index % 4]
            system.sim.call_at(
                5.0 + 0.5 * index,
                lambda target=target, index=index, command=command:
                    system.node(target).agreement.submit(index, command))
        FaultPlan.crashes_at((9.0, 1)).schedule(system)
        system.start_all()
        system.run_until(300.0)
        snapshots = {machines[pid].snapshot() for pid in system.up_pids()}
        assert len(snapshots) == 1, "replicated KV stores diverged"
        # Commands in flight during the crash may be re-proposed out of
        # client order — what replication guarantees is the *same* order
        # everywhere, so each key holds some value that was written to it
        # and all replicas agree on which.
        final = dict(snapshots.pop())
        assert final["k0"] in {0, 3, 6, 9}
        assert final["k1"] in {1, 4, 7, 10}
        assert final["k2"] in {2, 5, 8, 11}
        # And every replica applied all 12 commands exactly once.
        for pid in system.up_pids():
            assert len(machines[pid].results) == 12
