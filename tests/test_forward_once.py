"""Forward once (``consensus/replica.py``).

A ``Propose`` from the trusted leader, at a ballot the follower's
acceptor admits, acknowledges every pending command it carries: the
leader holds it, so the follower's tick does not forward it again.  An
acknowledgement belongs to the leader and ballot that made it — a new
Omega leader, or a ``Prepare`` or ``Propose`` at another ballot, voids
it — and one still unlearned after ``BACKOFF_CAP`` lapses, so a leader
that lost its queue in a crash the follower never saw gets the command
again.  Nagle's at-once forward fires when every *other* pending
command is acknowledged.  All on simulated time.
"""

from __future__ import annotations

from repro.consensus.config import BACKOFF_CAP, ConsensusConfig
from repro.consensus.messages import (
    Accepted,
    Ballot,
    Forward,
    Forwards,
    Prepare,
    Promise,
    Propose,
)
from repro.consensus.replica import Batch, LogReplica
from repro.sim.engine import Simulation
from repro.sim.network import Network

CONFIG = ConsensusConfig()  # tick 0.5
BALLOT = Ballot(1, 0)


def follower(trusts: dict[str, int] | None = None):  # noqa: ANN201
    """Replica 1 of an n = 5 log (no learning on its own accept) whose
    leader is ``trusts["leader"]`` (p0 by default), alone on its network,
    recording ``(time, peer, message)`` instead of sending."""
    trusts = trusts if trusts is not None else {"leader": 0}
    sim = Simulation()
    replica = LogReplica(1, sim, Network(sim), 5,
                         leader_of=lambda: trusts["leader"], config=CONFIG)
    sent: list = []
    replica.send = lambda peer, message: sent.append(
        (replica.now, peer, message))
    return sim, replica, sent


def forwards(sent: list) -> list[tuple[float, int, object]]:
    """``(time, peer, message)`` of every forward message sent."""
    return [entry for entry in sent
            if isinstance(entry[2], (Forward, Forwards))]


def forwarded_at(sent: list, at: float) -> set:
    """The ids of the commands forwarded at time ``at``."""
    return {command_id for time, _, message in forwards(sent) if time == at
            for command_id, _ in message.commands}


def tick(sim: Simulation, replica: LogReplica, at: float) -> None:
    sim.run_until(at)
    replica._drive()


class TestAcknowledgement:
    def test_an_acknowledged_command_is_not_re_forwarded(self) -> None:
        sim, replica, sent = follower()
        sim.run_until(0.1)
        replica.submit("a", 1)  # at once; the next tick skips its id
        replica.deliver(Propose(0, BALLOT, 0, ("a", 1), -1))
        for at in (0.5, 1.0, 1.5):
            tick(sim, replica, at)
        assert [(time, message) for time, _, message in forwards(sent)] \
            == [(0.1, Forward(1, "a", 1))]
        assert "a" in replica.pending  # n = 5: not learned yet

    def test_an_unacknowledged_command_is_re_forwarded_at_the_next_tick(
            self) -> None:
        sim, replica, sent = follower()
        sim.run_until(0.1)
        replica.submit("a", 1)  # at once
        replica.submit("b", 2)  # waits for the tick
        replica.deliver(Propose(0, BALLOT, 0, ("a", 1), -1))
        tick(sim, replica, 0.5)  # "b"'s Forward is lost
        assert forwarded_at(sent, 0.5) == {"b"}
        tick(sim, replica, 1.0)
        assert "b" in forwarded_at(sent, 1.0)

    def test_a_new_leader_gets_every_pending_command_at_the_next_tick(
            self) -> None:
        trusts = {"leader": 0}
        sim, replica, sent = follower(trusts)
        sim.run_until(0.1)
        replica.submit("a", 1)
        replica.submit("b", 2)
        replica.deliver(Propose(0, BALLOT, 0,
                                Batch((("a", 1), ("b", 2))), -1))
        tick(sim, replica, 0.5)
        trusts["leader"] = 2
        tick(sim, replica, 1.0)
        assert [(peer, message) for time, peer, message in forwards(sent)
                if time == 1.0] == [(2, Forwards(1, (("a", 1), ("b", 2))))]

    def test_a_prepare_at_another_ballot_voids_the_acknowledgements(
            self) -> None:
        sim, replica, sent = follower()
        sim.run_until(0.1)
        replica.submit("a", 1)
        replica.deliver(Propose(0, BALLOT, 0, ("a", 1), -1))
        tick(sim, replica, 0.5)
        # Same leader, new ballot (say, it crashed and recovered).
        replica.deliver(Prepare(0, Ballot(2, 0), 0))
        tick(sim, replica, 1.0)
        assert forwards(sent)[1:] == [(1.0, 0, Forward(1, "a", 1))]

    def test_a_propose_at_a_refused_ballot_acknowledges_nothing(
            self) -> None:
        sim, replica, sent = follower()
        replica.deliver(Prepare(3, Ballot(5, 3), 0))  # promises above p0's
        sim.run_until(0.1)
        replica.submit("a", 1)
        replica.deliver(Propose(0, BALLOT, 0, ("a", 1), -1))
        assert [message for _, _, message in sent
                if isinstance(message, Accepted)] == []
        tick(sim, replica, 0.5)
        tick(sim, replica, 1.0)
        assert forwards(sent)[1:] == [(1.0, 0, Forward(1, "a", 1))]

    def test_an_acknowledgement_lapses_after_the_backoff_cap(self) -> None:
        sim, replica, sent = follower()
        sim.run_until(0.1)
        replica.submit("a", 1)
        replica.deliver(Propose(0, BALLOT, 0, ("a", 1), -1))
        at = 0.5
        while at <= 0.1 + BACKOFF_CAP + CONFIG.tick:
            tick(sim, replica, at)
            at += CONFIG.tick
        # Again at the first tick at or after 8.1 s, unacknowledged now.
        assert forwards(sent)[1:] == [(8.5, 0, Forward(1, "a", 1))]


class TestAtOnceForward:
    def test_it_fires_when_every_other_pending_command_is_acknowledged(
            self) -> None:
        sim, replica, sent = follower()
        sim.run_until(0.1)
        replica.submit("a", 1)  # at once: the queue was empty
        replica.deliver(Propose(0, BALLOT, 0, ("a", 1), -1))
        sim.run_until(0.2)
        replica.submit("b", 2)  # at once: "a" is acknowledged
        replica.submit("c", 3)  # waits: "b" is not
        assert [(time, message) for time, _, message in forwards(sent)] \
            == [(0.1, Forward(1, "a", 1)), (0.2, Forward(1, "b", 2))]
        tick(sim, replica, 0.5)
        assert forwards(sent)[2:] == [(0.5, 0, Forward(1, "c", 3))]


class TestCrashRecoveredLeader:
    # Persisted n = 3, every replica trusting p0 throughout.  p1 submits
    # "c"; p0 proposes it, and p1's acceptor accepts it (an
    # acknowledgement), but no Accepted reaches p0, p2 gets no copy, and
    # p0 crashes before its own vote is durable: its queue and its vote
    # are gone.  Recovered, p0 is prepared by {p0, p2}, since p1's
    # Promise is lost, so no report of "c" reaches it.  Only p1 still
    # holds "c", and no client resubmits it.

    SYNC = 0.2  # p0's vote is still in flight when it crashes

    def run(self, drop_prepares: bool):  # noqa: ANN201
        sim = Simulation()
        network = Network(sim)
        config = ConsensusConfig(sync_latency=self.SYNC)
        replicas = [LogReplica(pid, sim, network, 3, leader_of=lambda: 0,
                               config=config, persist=True)
                    for pid in range(3)]
        drops: set[tuple[int, int, type]] = set()
        for replica in replicas:
            def send(dst, message, src=replica.pid,  # noqa: ANN001
                     send=replica.send) -> None:
                if (src, dst, type(message)) not in drops:
                    send(dst, message)
            replica.send = send
        p0, p1, _ = replicas
        for replica in replicas:
            replica.start()
        sim.run_until(2.05)
        assert p0._leading()
        drops |= {(0, 2, Propose), (1, 0, Accepted)}
        p1.submit("c", "x")
        sim.run_until(2.2)
        assert p1.accepted[0][1] == ("c", "x")  # an acknowledgement
        assert ("acc", 0) not in p0.storage.durable_keys()
        p0.crash()
        sim.run_until(3.0)
        drops.clear()
        drops.add((1, 0, Promise))
        if drop_prepares:  # p1 never hears of p0's new ballot
            drops.add((0, 1, Prepare))
        p0.recover()
        return sim, replicas

    def test_a_new_ballot_has_the_follower_forward_again(self) -> None:
        sim, replicas = self.run(drop_prepares=False)
        sim.run_until(5.0)
        assert all("c" in replica.committed_ids for replica in replicas)

    def test_the_backoff_cap_covers_a_ballot_the_follower_never_saw(
            self) -> None:
        sim, replicas = self.run(drop_prepares=True)
        sim.run_until(2.1 + BACKOFF_CAP - 0.5)
        assert not any("c" in replica.committed_ids for replica in replicas)
        sim.run_until(2.1 + BACKOFF_CAP + 2.0)
        assert all("c" in replica.committed_ids for replica in replicas)
