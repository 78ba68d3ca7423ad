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
from repro.consensus.paxos import K_ACC, K_PROMISED, Acceptor, BallotOwner
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
        recovered = BallotOwner(2, majority=2)
        recovered.max_round_seen = owner.max_round_seen  # the durable round
        assert recovered.start(0) == Ballot(8, 2)

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

INSTANCES = (0, 1)
ACTIONS = ("start", "resend", "drop") + ("deliver",) * 4


class World:
    """Three acceptors, two ballot owners, and a bag of addressed
    messages in flight that the test delivers or drops in any order
    (requests to an acceptor pid, replies to an owner pid)."""

    def __init__(self) -> None:
        self.acceptors = [Acceptor(pid) for pid in range(3)]
        self.owners = {pid: BallotOwner(pid, majority=2) for pid in (0, 1)}
        self.in_flight: list[tuple[int, Message]] = []
        # What each owner proposes under its current ballot, once prepared.
        self.proposing: dict[int, dict[int, Any]] = {0: {}, 1: {}}
        self.starts = {0: 0, 1: 0}  # own values differ from start to start
        self.proposed: dict[tuple[int, Ballot], Any] = {}
        self.votes: dict[tuple[int, Ballot], set[int]] = {}

    def step(self, action: str, argument: int) -> None:
        if action == "start":
            pid = argument % 2
            self.owners[pid].start(0)
            self.starts[pid] += 1
            self.proposing[pid] = {}
            self.resend(pid)
        elif action == "resend":
            self.resend(argument % 2)
        elif self.in_flight:
            addressed = self.in_flight.pop(argument % len(self.in_flight))
            if action == "deliver":
                self.deliver(*addressed)

    def resend(self, pid: int) -> None:
        """(Re)transmit what the owner is waiting on, to every acceptor."""
        owner = self.owners[pid]
        if owner.ballot is None:
            return
        outgoing = [Propose(pid, owner.ballot, instance, value, -1)
                    for instance, value in self.proposing[pid].items()] \
            or [owner.prepare()]
        for message in outgoing:
            for acceptor in self.acceptors:
                self.send(acceptor.pid, message)

    def send(self, pid: int, message: Message) -> None:
        # A bag, not a queue of copies: a retransmission of something
        # still in flight adds nothing, which keeps the walk short.
        if (pid, message) not in self.in_flight:
            self.in_flight.append((pid, message))

    def deliver(self, pid: int, message: Message) -> None:
        if isinstance(message, (Prepare, Propose)):
            acceptor = self.acceptors[pid]
            before = acceptor.promised
            reply, writes = (acceptor.on_prepare(message)
                             if isinstance(message, Prepare)
                             else acceptor.on_propose(message))
            assert acceptor.promised >= before
            assert bool(writes) != isinstance(reply, Nack)
            if isinstance(reply, Accepted):
                self.votes.setdefault((reply.instance, reply.ballot),
                                      set()).add(pid)
            self.send(message.sender, reply)
            return
        owner = self.owners[pid]
        if isinstance(message, Nack):
            owner.observe(message.promised)
        elif isinstance(message, Promise) and owner.on_promise(message) \
                and owner.prepared() and not self.proposing[pid]:
            merged = owner.merged()
            for instance in INSTANCES:
                value = (merged[instance][1] if instance in merged
                         else f"own-{pid}.{self.starts[pid]}.{instance}")
                self.proposing[pid][instance] = value
                # One value per ballot and instance, whatever happens.
                assert self.proposed.setdefault(
                    (instance, owner.ballot), value) == value
            self.resend(pid)

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
@settings(max_examples=200, deadline=None)
def test_a_chosen_value_is_proposed_by_every_higher_ballot(seed: int) -> None:
    # Hypothesis draws the seed, the walk itself is uniform: its list
    # strategies favour short, tidy interleavings, and against five
    # seeded mutations of the core (stale proposes accepted, reports
    # that skip ``from_instance``, reused rounds, promises counted for
    # another ballot, ``merged`` picking the lowest ballot) a
    # 300-example list strategy caught one where a uniform walk trips on
    # four in 6-18 % of its runs each (the fifth is the unit test above).
    # Votes and proposals are never retracted, so a violation at any
    # step is still visible at the end.
    rng = random.Random(seed)
    world = World()
    for _ in range(120):
        world.step(rng.choice(ACTIONS), rng.randrange(40))
    check_chosen_values_bind_higher_ballots(world)


def test_the_property_is_not_vacuous() -> None:
    # A scripted duel, everything delivered first in, first out: owner 0
    # gets both instances chosen; each later ballot must re-propose them.
    def settle(world: World) -> None:
        while world.in_flight:
            world.step("deliver", 0)

    world = World()
    world.step("start", 0)
    settle(world)
    first = dict(world.proposing[0])
    assert sorted(first) == list(INSTANCES)
    assert check_chosen_values_bind_higher_ballots(world) == len(INSTANCES)
    world.step("start", 1)  # Ballot(0, 1) outranks Ballot(0, 0)
    settle(world)
    assert world.proposing[1] == first
    world.step("start", 0)
    settle(world)
    assert world.owners[0].ballot == Ballot(1, 0)
    assert world.proposing[0] == first
    world.step("resend", 1)  # stale by now: nacked, and the nack is observed
    settle(world)
    world.step("start", 1)
    settle(world)
    assert world.owners[1].ballot == Ballot(2, 1)
    assert world.proposing[1] == first
    assert check_chosen_values_bind_higher_ballots(world) \
        == 4 * len(INSTANCES)
