"""Unit-level tests for LogReplica internals (piggyback, merge, dedup)."""

from __future__ import annotations

from repro.consensus.messages import (
    Accepted,
    Ballot,
    Decide,
    Forward,
    Prepare,
    Promise,
    Propose,
)
from repro.consensus.replica import NOOP, LogReplica
from repro.sim.engine import Simulation
from repro.sim.network import Network


def build_ensemble(n: int = 3, leader_of=lambda: 99):  # noqa: ANN001, ANN201
    sim = Simulation()
    network = Network(sim)
    replicas = [LogReplica(pid, sim, network, n, leader_of=leader_of)
                for pid in range(n)]
    for replica in replicas:
        replica.start()
    return sim, replicas


class TestAcceptor:
    def test_promise_reports_accepted_suffix(self) -> None:
        _, replicas = build_ensemble()
        acceptor = replicas[0]
        ballot = Ballot(1, 1)
        acceptor.deliver(Propose(1, ballot, 3, (7, "x"), -1))
        acceptor.deliver(Propose(1, ballot, 5, (8, "y"), -1))
        acceptor.deliver(Prepare(2, Ballot(2, 2), 4))
        # The promise to 2 must include instance 5 but not instance 3.
        report = acceptor.acceptor.report(4)
        instances = [instance for instance, _ in report]
        assert instances == [5]

    def test_global_promise_guards_all_instances(self) -> None:
        _, replicas = build_ensemble()
        acceptor = replicas[0]
        acceptor.deliver(Prepare(1, Ballot(5, 1), 0))
        acceptor.deliver(Propose(2, Ballot(1, 2), 9, (1, "z"), -1))
        assert 9 not in acceptor.accepted, \
            "a single promise covers every instance"


class TestCommitPiggyback:
    def test_same_ballot_instances_commit_via_hint(self) -> None:
        _, replicas = build_ensemble()
        follower = replicas[0]
        ballot = Ballot(1, 1)
        follower.deliver(Propose(1, ballot, 0, (1, "a"), -1))
        follower.deliver(Propose(1, ballot, 1, (2, "b"), -1))
        assert follower.commit_index == -1
        # Next proposal carries commit_through=1: both commit.
        follower.deliver(Propose(1, ballot, 2, (3, "c"), 1))
        assert follower.commit_index == 1
        assert follower.committed_prefix() == [(1, "a"), (2, "b")]

    def test_hint_ignored_for_other_ballots(self) -> None:
        # An instance accepted under an OLDER ballot must not be treated
        # as decided by a newer leader's commit hint.
        _, replicas = build_ensemble()
        follower = replicas[0]
        follower.deliver(Propose(1, Ballot(1, 1), 0, (1, "old"), -1))
        follower.deliver(Propose(2, Ballot(2, 2), 1, (2, "new"), 0))
        assert follower.commit_index == -1, \
            "commit hint must not apply across ballots"


class TestLearnAndApply:
    def test_decide_sets_log_and_acks(self) -> None:
        _, replicas = build_ensemble()
        follower = replicas[0]
        follower.deliver(Decide(1, 0, (5, "cmd")))
        assert follower.committed_prefix() == [(5, "cmd")]
        assert follower.decision_times[0] >= 0.0

    def test_commit_index_waits_for_gaps(self) -> None:
        _, replicas = build_ensemble()
        follower = replicas[0]
        follower.deliver(Decide(1, 1, (2, "b")))
        assert follower.commit_index == -1
        follower.deliver(Decide(1, 0, (1, "a")))
        assert follower.commit_index == 1

    def test_applied_commands_skip_noops_and_duplicates(self) -> None:
        _, replicas = build_ensemble()
        follower = replicas[0]
        follower.deliver(Decide(1, 0, (1, "a")))
        follower.deliver(Decide(1, 1, NOOP))
        follower.deliver(Decide(1, 2, (1, "a")))  # duplicate id
        follower.deliver(Decide(1, 3, (2, "b")))
        assert follower.committed_prefix() == [(1, "a"), NOOP, (1, "a"),
                                               (2, "b")]
        assert follower.applied_commands() == ["a", "b"]

    def test_learned_command_leaves_pending(self) -> None:
        _, replicas = build_ensemble()
        follower = replicas[0]
        follower.submit(9, "queued")
        assert 9 in follower.pending
        follower.deliver(Decide(1, 0, (9, "queued")))
        assert 9 not in follower.pending
        follower.submit(9, "queued")  # resubmit after commit: ignored
        assert 9 not in follower.pending


class TestForwarding:
    def test_forward_message_enqueues(self) -> None:
        _, replicas = build_ensemble()
        replica = replicas[0]
        replica.deliver(Forward(2, 4, "cmd"))
        assert replica.pending[4] == "cmd"

    def test_follower_forwards_to_omega_leader(self) -> None:
        sim, replicas = build_ensemble(leader_of=lambda: 1)
        follower = replicas[0]
        follower.submit(3, "hello")
        sim.run_until(2.0)
        # The forwarded command reached node 1, which (as the leader)
        # already drove it to commitment.
        assert 3 in replicas[1].committed_ids
        assert ("hello" in replicas[1].applied_commands())
