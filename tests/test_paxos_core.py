"""The Paxos core with no simulator: plain objects, driven by hand.

:class:`Acceptor` and :class:`BallotOwner` take no clock, transport or
process, so everything here builds them directly and plays the network
itself — the shape the exhaustive explorer (ROADMAP item 1(b)) will
enumerate.  The closing property is the invariant agreement rests on:
once a value is chosen under ballot ``b``, every ballot above ``b``
proposes that value.
"""

from __future__ import annotations

import random
from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.messages import (
    BOTTOM_BALLOT,
    Accepted,
    Ballot,
    Nack,
    Prepare,
    Promise,
    Propose,
)
from repro.consensus.paxos import (K_ACC, K_PROMISED, K_ROUND, Acceptor,
                                  BallotOwner)
from repro.sim.messages import Message
from repro.sim.storage import StableStorage


class TestAcceptor:
    def test_promise_only_grows(self) -> None:
        acceptor = Acceptor(0)
        seen = [acceptor.promised]
        for round_, proposer in [(3, 1), (1, 2), (3, 0), (4, 2), (2, 1)]:
            acceptor.on_prepare(Prepare(proposer, Ballot(round_, proposer), 0))
            acceptor.on_propose(
                Propose(proposer, Ballot(round_ - 1, proposer), 0, "x", -1))
            seen.append(acceptor.promised)
        assert seen == sorted(seen)
        assert seen[0] == BOTTOM_BALLOT and seen[-1] == Ballot(4, 2)

    def test_stale_prepare_and_propose_are_nacked_with_no_writes(self) -> None:
        acceptor = Acceptor(0)
        acceptor.on_propose(Propose(1, Ballot(5, 1), 2, "kept", -1))
        for stale in (Prepare(2, Ballot(4, 2), 0),
                      Propose(2, Ballot(4, 2), 2, "lost", -1)):
            handler = (acceptor.on_prepare if isinstance(stale, Prepare)
                       else acceptor.on_propose)
            reply, writes = handler(stale)
            assert isinstance(reply, Nack)
            assert (reply.sender, reply.ballot, reply.promised) \
                == (0, Ballot(4, 2), Ballot(5, 1))
            assert writes == ()
        assert acceptor.promised == Ballot(5, 1)
        assert acceptor.accepted == {2: (Ballot(5, 1), "kept")}

    def test_a_vote_never_lands_below_the_promise(self) -> None:
        # The owner's implicit vote: refused below the promise its
        # acceptor made after the owner started, accepted at or above it.
        acceptor = Acceptor(0)
        acceptor.promise(Ballot(3, 1), 0)
        assert acceptor.vote(Ballot(2, 0), 4, "stale") == ()
        assert acceptor.accepted == {}
        assert acceptor.promised == Ballot(3, 1)
        assert dict(acceptor.vote(Ballot(3, 1), 4, "v")) == {
            K_PROMISED: Ballot(3, 1), (K_ACC, 4): (Ballot(3, 1), "v")}

    def test_every_reply_names_the_keys_it_reports(self) -> None:
        acceptor = Acceptor(3)
        reply, writes = acceptor.on_propose(
            Propose(1, Ballot(2, 1), 7, "v", -1))
        assert reply == Accepted(3, Ballot(2, 1), 7)
        assert dict(writes) == {K_PROMISED: Ballot(2, 1),
                                (K_ACC, 7): (Ballot(2, 1), "v")}
        reply, writes = acceptor.on_prepare(Prepare(2, Ballot(3, 2), 0))
        assert reply == Promise(3, Ballot(3, 2), 0,
                                ((7, (Ballot(2, 1), "v")),))
        assert dict(writes) == {K_PROMISED: Ballot(3, 2)}
        # An equal ballot is not stale: retransmissions answer alike.
        assert acceptor.on_prepare(Prepare(2, Ballot(3, 2), 0)) \
            == (reply, writes)

    def test_report_is_the_sorted_suffix(self) -> None:
        acceptor = Acceptor(0)
        for instance in (9, 2, 5, 4):
            acceptor.vote(Ballot(1, 1), instance, f"v{instance}")
        assert [instance for instance, _ in acceptor.report(4)] == [4, 5, 9]
        assert acceptor.report(10) == ()
        assert acceptor.report(0)[0] == (2, (Ballot(1, 1), "v2"))

    def test_restore_round_trips_through_stable_storage(self) -> None:
        # sync_latency=0.0 commits inside sync(): no clock is consulted.
        storage = StableStorage(0, None, sync_latency=0.0)
        acceptor = Acceptor(0)
        handled = [acceptor.on_propose(Propose(1, Ballot(1, 1), 0, "a", -1)),
                   acceptor.on_propose(Propose(1, Ballot(1, 1), 3, "b", -1)),
                   acceptor.on_prepare(Prepare(2, Ballot(4, 2), 0))]
        for _, writes in handled:
            for key, value in writes:
                storage.put(key, value)
        storage.put(("log", 0), "not the acceptor's")
        storage.sync()
        recovered = Acceptor(0)
        recovered.restore(storage)
        assert recovered.promised == acceptor.promised == Ballot(4, 2)
        assert recovered.accepted == acceptor.accepted
        fresh = Acceptor(1)
        fresh.restore(StableStorage(1, None, sync_latency=0.0))
        assert (fresh.promised, fresh.accepted) == (BOTTOM_BALLOT, {})


class TestBallotOwner:
    def test_never_reuses_a_round_once_the_seen_round_is_restored(
            self) -> None:
        owner = BallotOwner(2, majority=2)
        assert owner.start(0) == Ballot(0, 2)
        owner.observe(Ballot(6, 0))
        owner.observe(Ballot(3, 1))  # lower: ignored
        assert owner.start(0) == Ballot(7, 2)
        storage = StableStorage(2, None, sync_latency=0.0)
        storage.put(K_ROUND, owner.ballot.round)  # the durable round
        storage.sync()
        recovered = BallotOwner(2, majority=2)
        recovered.restore(storage, BOTTOM_BALLOT)
        assert recovered.start(0) == Ballot(8, 2)
        # ... and above the promise its acceptor restored.
        recovered = BallotOwner(2, majority=2)
        recovered.restore(storage, Ballot(9, 0))
        assert recovered.start(0) == Ballot(10, 2)

    def test_ignores_a_promise_for_another_prepare(self) -> None:
        owner = BallotOwner(0, majority=2)
        ballot = owner.start(4)
        assert owner.prepare() == Prepare(0, ballot, 4)
        assert not owner.on_promise(Promise(1, Ballot(9, 0), 4, ()))
        assert not owner.on_promise(Promise(1, ballot, 3, ()))
        assert owner.promises == {} and not owner.prepared()
        assert owner.on_promise(Promise(1, ballot, 4, ()))
        assert owner.on_promise(Promise(2, ballot, 4, ()))
        assert owner.prepared()
        owner.start(4)  # a fresh ballot starts from no promises
        assert owner.promises == {} and not owner.prepared()

    def test_merged_picks_the_highest_ballot_per_instance(self) -> None:
        owner = BallotOwner(0, majority=2)
        ballot = owner.start(0)
        low, high = Ballot(1, 1), Ballot(2, 2)
        owner.on_promise(Promise(1, ballot, 0, ((0, (low, "a")),
                                                (2, (high, "c")))))
        owner.on_promise(Promise(2, ballot, 0, ((0, (high, "b")),
                                                (2, (low, "d")),
                                                (5, (low, "e")))))
        assert owner.merged() == {0: (high, "b"), 2: (high, "c"),
                                  5: (low, "e")}


# ----------------------------------------------------------------------
# The invariant: a chosen value is re-proposed by every higher ballot
# ----------------------------------------------------------------------

OWNERS = (0, 1)
# ``newest`` delivers the message sent last (fresh traffic overtaking
# old); a ``fatal`` delivery is one the receiver does not survive: if it
# promised, it crashes right after the promise leaves and recovers at
# once, trusting itself (Omega's output is arbitrary before it settles).
ACTIONS = ("start", "drop") + ("deliver", "newest") * 2 \
    + ("fatal", "fatal newest")


class World:
    """Three acceptors, a ballot owner on each of processes 0 and 1, and
    a bag of addressed messages in flight that the test delivers or drops
    in any order (requests to an acceptor pid, replies to an owner pid).

    The owners sit beside their acceptors the way
    :class:`~repro.consensus.paxos.PaxosProcess` pairs them: an owner
    promises and votes for its own ballot on its own acceptor with no
    message (``Acceptor.promise``, which checks nothing, and
    ``Acceptor.vote``, which refuses a ballot below the promise),
    observes every ballot that acceptor is sent, and writes each round it
    starts to stable storage.  A prepared owner re-proposes what it
    merged and opens one fresh instance, as a log leader does.  Every
    acceptor write is durable before the reply leaves, and a crash loses
    everything else: the process comes back with its acceptor restored
    from its writes and its owner through ``BallotOwner.restore``, as
    ``on_recover`` does.  A refused self-vote is not counted, as in
    both drivers.
    """

    def __init__(self) -> None:
        self.acceptors = [Acceptor(pid) for pid in range(3)]
        # sync_latency=0.0 commits inside sync(): no clock is consulted.
        self.storages = [StableStorage(pid, None, sync_latency=0.0)
                         for pid in range(3)]
        self.owners = {pid: BallotOwner(pid, majority=2) for pid in OWNERS}
        self.in_flight: list[tuple[int, Message]] = []
        # What each owner proposes under its current ballot, once prepared.
        self.proposing: dict[int, dict[int, Any]] = {pid: {} for pid in OWNERS}
        self.starts = dict.fromkeys(OWNERS, 0)  # own values differ per start
        self.proposed: dict[tuple[int, Ballot], Any] = {}
        self.votes: dict[tuple[int, Ballot], set[int]] = {}

    def step(self, action: str, argument: int) -> None:
        if action == "start":
            self.start(argument % 2)
            return
        if not self.in_flight:
            return
        newest = action.endswith("newest")
        pid, message = self.in_flight.pop(
            -1 if newest else argument % len(self.in_flight))
        if action == "drop":
            return
        self.deliver(pid, message)
        if (action.startswith("fatal") and pid in self.owners
                and isinstance(message, Prepare)
                and self.acceptors[pid].promised == message.ballot):
            self.crash(pid)
            self.start(pid)

    def start(self, pid: int) -> None:
        owner = self.owners[pid]
        ballot = owner.start(0)
        self.starts[pid] += 1
        self.proposing[pid] = {}
        report, writes = self.acceptors[pid].promise(ballot, 0)
        self.write(pid, writes + ((K_ROUND, ballot.round),))
        owner.promises[pid] = report
        self.resend(pid)

    def crash(self, pid: int) -> None:
        acceptor = self.acceptors[pid] = Acceptor(pid)
        acceptor.restore(self.storages[pid])
        owner = self.owners[pid] = BallotOwner(pid, majority=2)
        owner.restore(self.storages[pid], acceptor.promised)
        self.proposing[pid] = {}

    def write(self, pid: int, writes: tuple) -> None:
        storage = self.storages[pid]
        for key, value in writes:
            storage.put(key, value)
        storage.sync()

    def resend(self, pid: int) -> None:
        """(Re)transmit what the owner is waiting on to the other acceptors."""
        owner = self.owners[pid]
        if owner.ballot is None:
            return
        outgoing = [Propose(pid, owner.ballot, instance, value, -1)
                    for instance, value in self.proposing[pid].items()] \
            or [owner.prepare()]
        for message in outgoing:
            for acceptor in self.acceptors:
                if acceptor.pid != pid:
                    self.send(acceptor.pid, message)

    def send(self, pid: int, message: Message) -> None:
        # A bag, not a queue of copies: a retransmission of something
        # still in flight adds nothing, which keeps the walk short.
        if (pid, message) not in self.in_flight:
            self.in_flight.append((pid, message))

    def deliver(self, pid: int, message: Message) -> None:
        if isinstance(message, (Prepare, Propose)):
            owner = self.owners.get(pid)
            if owner is not None:
                owner.observe(message.ballot)
            acceptor = self.acceptors[pid]
            before = acceptor.promised
            reply, writes = (acceptor.on_prepare(message)
                             if isinstance(message, Prepare)
                             else acceptor.on_propose(message))
            assert acceptor.promised >= before
            assert bool(writes) != isinstance(reply, Nack)
            self.write(pid, writes)
            if isinstance(reply, Accepted):
                self.vote(reply.instance, reply.ballot, pid)
            self.send(message.sender, reply)
            return
        owner = self.owners[pid]
        if isinstance(message, Nack):
            owner.observe(message.promised)
        elif isinstance(message, Promise) and owner.on_promise(message) \
                and owner.prepared() and not self.proposing[pid]:
            merged = owner.merged()
            for instance in range(max(merged, default=-1) + 2):
                value = (merged[instance][1] if instance in merged
                         else f"own-{pid}.{self.starts[pid]}.{instance}")
                self.proposing[pid][instance] = value
                # One value per ballot and instance, whatever happens.
                assert self.proposed.setdefault(
                    (instance, owner.ballot), value) == value
                writes = self.acceptors[pid].vote(owner.ballot, instance,
                                                  value)
                if writes:
                    self.write(pid, writes)
                    self.vote(instance, owner.ballot, pid)
            self.resend(pid)

    def vote(self, instance: int, ballot: Ballot, pid: int) -> None:
        self.votes.setdefault((instance, ballot), set()).add(pid)

    def chosen(self) -> dict[tuple[int, Ballot], Any]:
        return {key: self.proposed[key] for key, voters in self.votes.items()
                if len(voters) >= 2}


def check_chosen_values_bind_higher_ballots(world: World) -> int:
    chosen = world.chosen()
    for (instance, ballot), value in chosen.items():
        for (other, higher), proposal in world.proposed.items():
            if other == instance and higher > ballot:
                assert proposal == value, (
                    f"instance {instance}: {value!r} chosen under {ballot}, "
                    f"yet {higher} proposes {proposal!r}")
    return len(chosen)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=500, deadline=None)
def test_a_chosen_value_is_proposed_by_every_higher_ballot(seed: int) -> None:
    # Hypothesis draws the seed, the walk itself is uniform: its list
    # strategies favour short, tidy interleavings, and against six
    # seeded mutations of the core a uniform walk trips on five: stale
    # proposes accepted (43 % of runs), reports that skip
    # ``from_instance`` (100 %), promises counted for another ballot
    # (33 %), ``merged`` picking the lowest ballot (20 %), and a
    # recovered owner restored to its own last round only (1.1 %: it
    # needs a fatal delivery, a fresh ballot overtaking older traffic and
    # an acceptor that lags, hence 500 examples).  The sixth, reused
    # rounds, is the unit test above.  Votes and proposals are never
    # retracted, so a violation at any step is still visible at the end.
    rng = random.Random(seed)
    world = World()
    for _ in range(120):
        world.step(rng.choice(ACTIONS), rng.randrange(40))
    check_chosen_values_bind_higher_ballots(world)


def test_the_property_is_not_vacuous() -> None:
    # A scripted duel, everything delivered first in, first out: each
    # prepared ballot re-proposes what was chosen before it and opens a
    # fresh instance, and all of them get chosen.
    def settle(world: World) -> None:
        while world.in_flight:
            world.step("deliver", 0)

    world = World()
    world.start(0)
    settle(world)
    first = dict(world.proposing[0])
    assert list(first) == [0]
    assert check_chosen_values_bind_higher_ballots(world) == 1
    world.start(1)  # owner 1 saw Ballot(0, 0): it starts above it
    settle(world)
    assert world.owners[1].ballot == Ballot(1, 1)
    assert list(world.proposing[1]) == [0, 1]
    assert world.proposing[1][0] == first[0]
    world.start(0)
    settle(world)
    assert world.owners[0].ballot == Ballot(2, 0)
    second = dict(world.proposing[0])
    assert list(second) == [0, 1, 2]
    world.resend(1)  # stale by now: nacked, and the nack is observed
    settle(world)
    world.crash(1)  # back from storage: above every ballot it promised
    world.start(1)
    settle(world)
    assert world.owners[1].ballot == Ballot(3, 1)
    assert {instance: world.proposing[1][instance]
            for instance in second} == second
    assert check_chosen_values_bind_higher_ballots(world) == 1 + 2 + 3 + 4
