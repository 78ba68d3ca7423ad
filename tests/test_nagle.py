"""Nagle's rule for the replicated log (``consensus/replica.py``).

An idle pipeline moves a command on at once: a follower whose pending
queue was empty forwards it to its leader, and a leader with no open
slot proposes it.  With any slot open, new commands wait for the tick,
which batches them as a tick-paced log does.  A ``Propose`` sent
between ticks is resent only once its peer's RTO has passed in
seconds.  All on simulated time.
"""

from __future__ import annotations

from repro.consensus.config import ConsensusConfig
from repro.consensus.messages import (
    Accepted,
    Ballot,
    Forward,
    Forwards,
    Propose,
)
from repro.consensus.replica import CLOSED_KEPT, PHASE_LEADING, LogReplica
from repro.consensus.retransmit import RoundTripTimer
from repro.sim.engine import Simulation
from repro.sim.network import Network

CONFIG = ConsensusConfig()  # tick 0.5, max_batch 8, batch_size 1


def capture_sends(process: LogReplica) -> list:
    """Log ``(time, peer, message)`` for everything ``process`` sends,
    and deliver none of it."""
    sent: list = []
    process.send = lambda peer, message: sent.append(
        (process.now, peer, message))
    return sent


def hand_driven_leader(n: int = 5, persist: bool = False):  # noqa: ANN201
    """A log leader holding a prepared ballot, alone on its network."""
    sim = Simulation()
    leader = LogReplica(0, sim, Network(sim), n, leader_of=lambda: 0,
                        config=CONFIG, persist=persist)
    leader.owner.ballot = Ballot(0, 0)
    leader.phase = PHASE_LEADING
    return sim, leader, capture_sends(leader)


def proposes(sent: list) -> list[tuple[float, int, int]]:
    """``(time, peer, instance)`` of every ``Propose`` sent."""
    return [(time, peer, message.instance) for time, peer, message in sent
            if isinstance(message, Propose)]


class TestIdleCommit:
    def test_a_follower_submit_between_ticks_is_decided_before_the_next_tick(
            self) -> None:
        # Lossless n = 3 (links deliver within 50 ms): p0 leads.
        sim = Simulation()
        network = Network(sim)
        replicas = [LogReplica(pid, sim, network, 3, leader_of=lambda: 0,
                               config=CONFIG) for pid in range(3)]
        for replica in replicas:
            replica.start()
        sim.run_until(1.2)
        leader, follower = replicas[0], replicas[1]
        assert leader.phase == PHASE_LEADING and not leader._open
        assert follower.submit("c", "x")
        sim.run_until(1.5 - 1e-9)  # the next tick is at 1.5
        assert "c" in leader.committed_ids
        assert 1.2 < leader.decision_times[0] < 1.5
        # At n = 3 the follower learned it on its own accept, before the
        # leader heard that accept (tests/test_learn_at_accept.py).
        assert follower.log.get(0) == ("c", "x")
        assert follower.decision_times[0] < leader.decision_times[0]

    def test_an_idle_follower_forwards_at_once_and_the_tick_the_rest(
            self) -> None:
        sim = Simulation()
        follower = LogReplica(1, sim, Network(sim), 3, leader_of=lambda: 0,
                              config=CONFIG)
        sent = capture_sends(follower)
        sim.run_until(0.1)
        follower.submit("a", 1)  # the queue was empty: at once
        follower.submit("b", 2)  # behind "a": waits for the tick
        assert [(time, message) for time, _, message in sent] \
            == [(0.1, Forward(1, "a", 1))]
        # The tick forwards what did not go to this leader since the
        # previous tick; the next one re-forwards everything pending.
        sim.run_until(0.5)
        follower._drive()
        sim.run_until(1.0)
        follower._drive()
        assert [message for _, _, message in sent[1:]] == [
            Forward(1, "b", 2), Forwards(1, (("a", 1), ("b", 2)))]

    def test_a_tick_at_the_instant_of_an_at_once_forward_sends_nothing(
            self) -> None:
        # One forward message per follower per instant: "b" waits.
        sim = Simulation()
        follower = LogReplica(1, sim, Network(sim), 3, leader_of=lambda: 0,
                              config=CONFIG)
        sent = capture_sends(follower)
        sim.run_until(0.5)
        follower.submit("a", 1)
        follower.submit("b", 2)
        follower._drive()
        assert len(sent) == 1
        sim.run_until(1.0)
        follower._drive()
        assert [message for _, _, message in sent[1:]] == [
            Forwards(1, (("a", 1), ("b", 2)))]


class TestLoadWaitsForTheTick:
    def test_a_leader_with_an_open_slot_opens_no_partial_slot(self) -> None:
        sim, leader, sent = hand_driven_leader()
        sim.run_until(0.1)
        leader.submit("a", 1)  # no slot open: proposed at once
        assert proposes(sent) == [(0.1, peer, 0) for peer in range(1, 5)]
        sim.run_until(0.2)
        leader.submit("b", 2)
        sim.run_until(0.3)
        leader.deliver(Forward(2, "c", 3))
        assert list(leader._open) == [0] and len(proposes(sent)) == 4
        sim.run_until(0.5)
        leader._drive()
        assert list(leader._open) == [0, 1, 2]
        assert {(time, instance) for time, _, instance in proposes(sent)} \
            == {(0.1, 0), (0.5, 1), (0.5, 2)}

    def test_an_idle_leader_opens_every_waiting_command_on_a_forward(
            self) -> None:
        sim, leader, sent = hand_driven_leader()
        commands = tuple((index, "w") for index in range(CONFIG.max_batch + 2))
        sim.run_until(0.2)
        leader.deliver(Forwards(1, commands))
        # The pipeline budget, one command a slot; the rest wait.
        assert list(leader._open) == list(range(CONFIG.max_batch))
        assert {time for time, _, _ in proposes(sent)} == {0.2}

    def test_a_submit_pump_is_a_gate_pass_of_its_own(self) -> None:
        # Persisted n = 3.  Slot 0 goes to both peers at 0.0; peer 1
        # answers at 0.01, then both fall silent.  The 1.0 tick sends
        # each the decision, so the gate admitted both in that pass and
        # backs off (peer 1 to 1.5, peer 2 to 2.0).  A submit at 1.2 is
        # a pass of its own: it opens the slot at once, but the tick's
        # verdicts do not carry over to it, so no copy leaves yet.
        sim, leader, sent = hand_driven_leader(n=3, persist=True)
        leader.submit("a", 1)
        sim.run_until(0.01)
        leader.deliver(Accepted(1, leader.ballot, 0))
        for at in (0.5, 1.0):
            sim.run_until(at)
            leader._drive()
        assert leader.commit_index == 0 and not leader._open
        assert {peer for time, peer, _ in sent if time == 1.0} == {1, 2}
        sim.run_until(1.2)
        leader.submit("b", 2)
        assert list(leader._open) == [1]
        assert [copy for copy in proposes(sent) if copy[0] == 1.2] == []
        sim.run_until(1.5)
        leader._drive()
        assert [copy for copy in proposes(sent) if copy[2] == 1] \
            == [(1.5, 1, 1)]


class TestBetweenTickCopies:
    def test_a_copy_sent_between_ticks_waits_its_rto_in_seconds(
            self) -> None:
        sim, leader, sent = hand_driven_leader()
        sim.run_until(0.2)
        leader.submit("a", 1)
        for at in (0.5, 1.0):
            sim.run_until(at)
            leader._drive()
        # Not at the 0.5 tick, 0.3 s after the copy: the floor is 0.5 s.
        assert [time for time, peer, _ in proposes(sent) if peer == 1] \
            == [0.2, 1.0]

    def test_the_timer_counts_a_between_tick_copy_in_seconds(self) -> None:
        # Ticks at 0.7 and 1.2, then one early, as a live clock's may
        # be: the copy the 1.2 tick sent is due, one sent at 1.2 between
        # the 0.7 and 1.5 ticks is not.
        tick_copy, between = RoundTripTimer(CONFIG), RoundTripTimer(CONFIG)
        for at in (0.7, 1.2, 1.499):
            tick_copy.begin_tick(at)
        for at in (0.7, 1.499):
            between.begin_tick(at)
        assert tick_copy.due(1, 1.2, 1.499) \
            and not between.due(1, 1.2, 1.499)
        between.begin_tick(1.998)
        assert between.due(1, 1.2, 1.998)


class TestLateAccepted:
    def test_an_accepted_after_the_quorum_still_times_a_round_trip(
            self) -> None:
        sim, leader, _ = hand_driven_leader()
        leader.submit("a", 1)
        for at, peer in ((0.1, 3), (0.1, 4), (0.3, 1)):
            sim.run_until(at)
            leader.deliver(Accepted(peer, leader.ballot, 0))
        assert leader.commit_index == 0 and not leader._open
        # Peer 1's reply came after the quorum: SRTT 0.3, RTTVAR 0.15.
        assert abs(leader._rtt.rto(1) - 0.6) < 1e-9
        # A duplicate of it is no second sample.
        sim.run_until(0.9)
        leader.deliver(Accepted(1, leader.ballot, 0))
        assert abs(leader._rtt.rto(1) - 0.6) < 1e-9

    def test_karn_holds_for_a_closed_slot_and_the_record_is_bounded(
            self) -> None:
        sim, leader, _ = hand_driven_leader()
        leader.submit("a", 1)
        sim.run_until(0.5)
        leader._drive()  # resends to every unmeasured peer
        for peer in (3, 4, 2):
            leader.deliver(Accepted(peer, leader.ballot, 0))
        assert leader.commit_index == 0
        assert leader._rtt.rto(2) == CONFIG.tick  # which copy? no sample
        kept = CLOSED_KEPT * CONFIG.max_batch
        for instance in range(1, kept + 2):
            leader.submit(instance, "w")
            for peer in (3, 4):
                leader.deliver(Accepted(peer, leader.ballot, instance))
        assert len(leader._closed) == kept and 0 not in leader._closed
