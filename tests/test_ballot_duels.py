"""Unit tests for ballot duels and Nack-driven fallback."""

from __future__ import annotations

from repro.consensus.messages import (
    Accepted,
    Ballot,
    Nack,
    Prepare,
    Promise,
    Propose,
)
from repro.consensus.replica import LogReplica
from repro.consensus.single import (
    PHASE_IDLE,
    PHASE_PREPARE,
    PHASE_PROPOSE,
    SingleDecreeConsensus,
)
from repro.sim.engine import Simulation
from repro.sim.network import Network


def single_ensemble(n: int = 3, leaders=None):  # noqa: ANN001, ANN201
    sim = Simulation()
    network = Network(sim)
    leaders = leaders or {}
    processes = [
        SingleDecreeConsensus(pid, sim, network, n, f"v{pid}",
                              leader_of=(lambda pid=pid:
                                         leaders.get(pid, 99)))
        for pid in range(n)
    ]
    return sim, processes


class TestSingleDecreeDuels:
    def test_nack_aborts_ballot_and_raises_round(self) -> None:
        leaders = {0: 0}
        sim, processes = single_ensemble(leaders=leaders)
        proposer = processes[0]
        for process in processes:
            process.start()
        assert proposer.phase == PHASE_PREPARE
        ballot = proposer.ballot
        proposer.deliver(Nack(1, ballot, 0, promised=Ballot(9, 1)))
        assert proposer.phase == PHASE_IDLE
        sim.run_until(1.0)  # next tick restarts with a higher round
        assert proposer.ballot.round > 9

    def test_stale_promise_ignored(self) -> None:
        leaders = {0: 0}
        _, processes = single_ensemble(leaders=leaders)
        proposer = processes[0]
        for process in processes:
            process.start()
        old = Ballot(proposer.ballot.round - 1, 0)
        before = dict(proposer.owner.promises)
        proposer.deliver(Promise(1, old, 0, ()))
        assert proposer.owner.promises == before

    def test_stale_accept_ack_ignored(self) -> None:
        leaders = {0: 0}
        sim, processes = single_ensemble(leaders=leaders)
        proposer = processes[0]
        for process in processes:
            process.start()
        sim.run_until(2.0)
        assert proposer.phase in (PHASE_PROPOSE, PHASE_IDLE) or \
            proposer.decision is not None
        proposer.deliver(Accepted(1, Ballot(-5, 0), 0))
        # Nothing to assert beyond "no crash / no decision from garbage":
        if proposer.decision is not None:
            assert proposer.decision == "v0"

    def test_two_proposers_converge_on_one_value(self) -> None:
        # Both 0 and 1 believe they lead, forever: ballots duel, but
        # quorum intersection forces a single decided value.
        leaders = {0: 0, 1: 1}
        sim, processes = single_ensemble(leaders=leaders)
        for process in processes:
            process.start()
        sim.run_until(120.0)
        decisions = {p.decision for p in processes if p.decision is not None}
        assert len(decisions) == 1

    def test_proposer_abandons_when_oracle_moves_on(self) -> None:
        leaders = {0: 0}
        sim, processes = single_ensemble(leaders=leaders)
        proposer = processes[0]
        for process in processes:
            process.start()
        assert proposer.phase != PHASE_IDLE
        leaders[0] = 2  # oracle now points elsewhere
        sim.run_until(1.0)
        if proposer.decision is None:
            assert proposer.phase == PHASE_IDLE


def replica_ensemble(n: int = 3, leaders=None):  # noqa: ANN001, ANN201
    sim = Simulation()
    network = Network(sim)
    leaders = leaders or {}
    replicas = [
        LogReplica(pid, sim, network, n,
                   leader_of=(lambda pid=pid: leaders.get(pid, 99)))
        for pid in range(n)
    ]
    return sim, replicas


class TestReplicaDuels:
    def test_nack_makes_leader_step_down(self) -> None:
        leaders = {0: 0}
        sim, replicas = replica_ensemble(leaders=leaders)
        leader = replicas[0]
        for replica in replicas:
            replica.start()
        sim.run_until(2.0)
        assert leader.phase == "leading"
        ballot = leader.ballot
        leader.submit(1, "cmd")
        leader.deliver(Nack(1, ballot, 0, promised=Ballot(50, 1)))
        assert leader.phase == "follower"
        sim.run_until(4.0)
        # It re-prepares above the nacked round and re-proposes.
        assert leader.ballot.round > 50
        sim.run_until(30.0)
        assert 1 in leader.committed_ids

    def test_prepare_from_future_instance_reports_nothing(self) -> None:
        _, replicas = replica_ensemble()
        acceptor = replicas[0]
        acceptor.start()
        acceptor.deliver(Propose(1, Ballot(1, 1), 0, (0, "a"), -1))
        acceptor.deliver(Prepare(2, Ballot(2, 2), from_instance=5))
        assert acceptor.acceptor.report(5) == ()

    def test_competing_replica_leaders_stay_prefix_consistent(self) -> None:
        leaders = {0: 0, 1: 1}
        sim, replicas = replica_ensemble(leaders=leaders)
        for replica in replicas:
            replica.start()
        replicas[0].submit(1, "from-zero")
        replicas[1].submit(2, "from-one")
        sim.run_until(120.0)
        prefixes = [replica.committed_prefix() for replica in replicas]
        shortest = min(len(prefix) for prefix in prefixes)
        for prefix in prefixes:
            assert prefix[:shortest] == prefixes[0][:shortest]
