"""Learning on the quorum-completing vote (``consensus/replica.py``).

Where two votes are a majority (n <= 3) and the log runs crash-stop, a
follower whose acceptor accepts ``Propose(b, i, v)`` learns ``(i, v)``
at once: the leader's own vote at ``b`` and this one are a quorum.  So
no message is needed to tell the follower, and its ``Accepted`` already
reports the new watermark.  The rule rests on every ``Propose``
carrying a value the leader's own acceptor accepted at that ballot, so
a leader whose self-vote is refused steps down and sends nothing.
All on simulated time, hand-delivered.
"""

from __future__ import annotations

import pytest

from repro.consensus.config import ConsensusConfig
from repro.consensus.messages import (
    Accepted,
    Ballot,
    Forward,
    Prepare,
    Promise,
    Propose,
)
from repro.consensus.replica import PHASE_FOLLOWER, PHASE_LEADING, LogReplica
from repro.sim.engine import Simulation
from repro.sim.network import Network
from repro.sim.storage import StableStorage

BALLOT = Ballot(1, 1)
CONFIG = ConsensusConfig()


def follower(n: int, persist: bool = False):  # noqa: ANN201
    """Replica 0 of an n-ensemble whose leader is pid 1, alone on its
    network, recording what it sends instead of sending it."""
    sim = Simulation()
    replica = LogReplica(0, sim, Network(sim), n, leader_of=lambda: 1,
                         config=CONFIG, persist=persist)
    sent: list = []
    replica.send = lambda peer, message: sent.append((peer, message))
    return sim, replica, sent


def accepteds(sent: list) -> list[Accepted]:
    return [message for _, message in sent if isinstance(message, Accepted)]


class TestFollowerLearnsOnAccept:
    @pytest.mark.parametrize("n", [2, 3])
    def test_a_crash_stop_follower_learns_on_its_accept(self, n: int) -> None:
        _, replica, sent = follower(n)
        replica.deliver(Propose(1, BALLOT, 0, ("a", "x"), -1))
        assert replica.log == {0: ("a", "x")}
        assert replica.commit_index == 0
        assert "a" in replica.committed_ids
        # The reply's watermark already counts the instance, so the
        # leader's decision spread skips this peer.
        [reply] = accepteds(sent)
        assert (reply.instance, reply.commit_through) == (0, 0)

    def test_a_learned_command_leaves_the_pending_queue(self) -> None:
        _, replica, _ = follower(3)
        replica.deliver(Forward(2, "a", "x"))
        assert "a" in replica.pending
        replica.deliver(Propose(1, BALLOT, 0, ("a", "x"), -1))
        assert "a" not in replica.pending

    def test_a_refused_vote_teaches_nothing(self) -> None:
        _, replica, sent = follower(3)
        replica.deliver(Prepare(2, Ballot(2, 2), 0))
        replica.deliver(Propose(1, BALLOT, 0, ("a", "x"), -1))
        assert replica.log == {} and replica.commit_index == -1
        assert not accepteds(sent)

    def test_n5_waits_for_the_piggyback(self) -> None:
        _, replica, sent = follower(5)
        replica.deliver(Propose(1, BALLOT, 0, ("a", "x"), -1))
        assert replica.log == {} and replica.commit_index == -1
        [reply] = accepteds(sent)
        assert reply.commit_through == -1
        # The next Propose's commit_through teaches it.
        replica.deliver(Propose(1, BALLOT, 1, ("b", "y"), 0))
        assert replica.log == {0: ("a", "x")}


class TestPersistedLogsWait:
    # A Propose leaves before the leader's own vote is durable, so in
    # the crash-recovery model that vote may vanish in a crash: the
    # follower waits for the piggyback (docs/RECOVERY.md).

    def test_persist_at_construction_does_not_learn_on_accept(self) -> None:
        sim, replica, sent = follower(3, persist=True)
        replica.deliver(Propose(1, BALLOT, 0, ("a", "x"), -1))
        sim.run_until(1.0)
        assert replica.log == {} and replica.commit_index == -1
        [reply] = accepteds(sent)
        assert reply.commit_through == -1

    def test_persist_switched_on_after_construction_is_read(self) -> None:
        # The live backend builds the replica, then switches persist on
        # and attaches its storage.
        sim, replica, sent = follower(3)
        replica.persist = True
        replica.attach_storage(StableStorage(
            0, sim, hub=replica.network.hub,
            sync_latency=CONFIG.sync_latency))
        replica.deliver(Propose(1, BALLOT, 0, ("a", "x"), -1))
        sim.run_until(1.0)
        assert replica.log == {} and replica.commit_index == -1
        [reply] = accepteds(sent)
        assert reply.commit_through == -1


class TestOutvotedLeaderStepsDown:
    def leader(self):  # noqa: ANN201
        """pid 0 leading ballot (0, 0) of a crash-stop n = 3 log."""
        sim = Simulation()
        replica = LogReplica(0, sim, Network(sim), 3, leader_of=lambda: 0,
                             config=CONFIG)
        replica.owner.ballot = Ballot(0, 0)
        replica.phase = PHASE_LEADING
        sent: list = []
        replica.send = lambda peer, message: sent.append((peer, message))
        return replica, sent

    def test_a_leader_whose_acceptor_promised_higher_sends_no_propose(
            self) -> None:
        replica, sent = self.leader()
        replica.deliver(Prepare(2, Ballot(1, 2), 0))
        assert [type(message) for _, message in sent] == [Promise]
        assert replica.phase == PHASE_LEADING  # no Nack has come yet
        assert replica.submit("c", "x")
        # Its vote at (0, 0) is refused: a Propose carrying it would let
        # a follower learn a value no quorum accepted.
        assert not [message for _, message in sent
                    if isinstance(message, Propose)]
        assert replica.phase == PHASE_FOLLOWER
        assert not replica._open and not replica._in_flight
        assert "c" in replica.pending  # re-forwarded to the next leader

    def test_an_unrefused_leader_proposes_at_once(self) -> None:
        replica, sent = self.leader()
        assert replica.submit("c", "x")
        assert sorted(peer for peer, message in sent
                      if isinstance(message, Propose)) == [1, 2]
        assert replica.phase == PHASE_LEADING
