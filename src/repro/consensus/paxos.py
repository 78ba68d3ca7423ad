"""One Paxos: the ballot protocol under every consensus class (result R5).

Two layers, so that what agreement rests on sits in one place that does
no I/O, and the effects sit in one place that takes no decisions.

**The protocol proper** — :class:`Acceptor` and :class:`BallotOwner` —
is plain state: no clock, no transport, no process.  A handler takes a
message and returns the reply together with the *writes* (storage
``(key, value)`` pairs) that must be durable before the reply may leave.
The proof obligations of Omega ⇒ consensus live here and nowhere else:

* **promises only grow** — an acceptor answers a ballot below its
  promise with a :class:`~repro.consensus.messages.Nack` and no writes;
* **one value per ballot and instance** — an owner never reuses a round
  (``max_round_seen`` covers every ballot it saw *or started*), and
  after a prepare quorum it re-proposes, per instance, the value
  reported under the highest ballot (:meth:`BallotOwner.merged`);
* **quorum intersection** — a ``Promise`` reports every value accepted
  at or above the prepare's ``from_instance``, so any later prepare
  quorum meets any earlier accept quorum in a reporting acceptor;
* **an owner starts above its own acceptor's promise** — its implicit
  promise and vote skip the ``Nack`` check, so :meth:`BallotOwner.start`
  must outrank every ballot that acceptor promised, across a recovery
  too (:meth:`BallotOwner.restore`).  A higher promise made *after* the
  start does not yet stop the owner (docs/RECOVERY.md, "Known gap").

A prepare covers *all* instances from ``from_instance`` on; single
decree is the ``from_instance = 0``, instance-0-only use of the same
objects.

**The shell** — :class:`PaxosProcess` — is the
:class:`~repro.sim.process.Process` both drivers
(:class:`~repro.consensus.single.SingleDecreeConsensus`,
:class:`~repro.consensus.replica.LogReplica`) extend.  It owns the tick,
the type-keyed dispatch, retransmission over fair-lossy links (through
the per-pass :class:`~repro.consensus.retransmit.RetransmitGate` with
``persist=True``), recovery, and — the crash-recovery discipline of
docs/RECOVERY.md — :meth:`PaxosProcess._when_durable`, the one function
through which everything a peer may count toward a quorum waits for its
write to commit: a fresh ballot's prepares, the owner's own votes, every
``Promise`` and ``Accepted``, and the log's decide acks.  Without
``persist`` nothing touches storage and a recovered process comes back
amnesiac — deliberately: that is the control case showing why Paxos
needs stable storage in the crash-recovery model.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable

from repro.consensus.config import ConsensusConfig
from repro.consensus.messages import (
    BOTTOM_BALLOT,
    Accepted,
    Ballot,
    Nack,
    Prepare,
    Promise,
    Propose,
)
from repro.consensus.retransmit import RetransmitGate
from repro.sim.engine import Simulation
from repro.sim.messages import Message
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.storage import StableStorage

__all__ = ["Acceptor", "BallotOwner", "PaxosProcess"]

# Stable-storage keys (persist=True only).  Per-instance state uses
# tuple keys so one flat store holds every instance.
K_PROMISED = "promised"
K_ROUND = "round"
K_ACC = "acc"  # (("acc", instance) -> (ballot, value))

_TICK = "tick"

Report = tuple[tuple[int, tuple[Ballot, Any]], ...]
Writes = tuple[tuple[Hashable, Any], ...]


class Acceptor:
    """Acceptor state: one promise covering all instances, plus the
    accepted ``(ballot, value)`` per instance."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.promised: Ballot = BOTTOM_BALLOT
        self.accepted: dict[int, tuple[Ballot, Any]] = {}

    def on_prepare(self, message: Prepare) -> tuple[Message, Writes]:
        """Phase 1b: a ``Promise`` carrying :meth:`report`, or a ``Nack``."""
        if message.ballot < self.promised:
            return Nack(self.pid, message.ballot, -1, self.promised), ()
        report, writes = self.promise(message.ballot, message.from_instance)
        return Promise(self.pid, message.ballot, message.from_instance,
                       report), writes

    def on_propose(self, message: Propose) -> tuple[Message, Writes]:
        """Phase 2b: accept and answer ``Accepted``, or a ``Nack``."""
        if message.ballot < self.promised:
            return Nack(self.pid, message.ballot, message.instance,
                        self.promised), ()
        return (Accepted(self.pid, message.ballot, message.instance),
                self.vote(message.ballot, message.instance, message.value))

    def promise(self, ballot: Ballot,
                from_instance: int) -> tuple[Report, Writes]:
        """Raise the promise to ``ballot`` (it never falls) and report.

        Also the co-located owner's implicit promise to its own ballot.
        """
        self.promised = max(self.promised, ballot)
        return self.report(from_instance), ((K_PROMISED, self.promised),)

    def vote(self, ballot: Ballot, instance: int, value: Any) -> Writes:
        """Accept ``value`` at ``ballot``; also the owner's implicit vote."""
        self.promised = max(self.promised, ballot)
        slot = self.accepted[instance] = (ballot, value)
        return ((K_PROMISED, self.promised), ((K_ACC, instance), slot))

    def report(self, from_instance: int) -> Report:
        """Everything accepted at or above ``from_instance``, sorted."""
        return tuple(sorted(
            (instance, slot) for instance, slot in self.accepted.items()
            if instance >= from_instance))

    def restore(self, storage: StableStorage) -> None:
        """Reload the durable promise and accepted map (recovery)."""
        self.promised = storage.get(K_PROMISED, BOTTOM_BALLOT)
        self.accepted = {
            key[1]: storage.get(key) for key in storage.durable_keys()
            if isinstance(key, tuple) and key[0] == K_ACC}


class BallotOwner:
    """Proposer-side ballot state: the rounds seen, the ballot owned, and
    the promises collected for it."""

    def __init__(self, pid: int, majority: int) -> None:
        self.pid = pid
        self.majority = majority
        self.max_round_seen = -1
        self.ballot: Ballot | None = None
        self.prepare_from = 0
        self.promises: dict[int, Report] = {}

    def observe(self, ballot: Ballot) -> None:
        """Note a ballot seen anywhere: the next :meth:`start` outgrows it."""
        if ballot.round > self.max_round_seen:
            self.max_round_seen = ballot.round

    def restore(self, storage: StableStorage, promised: Ballot) -> None:
        """Reload the durable round (recovery), raised to the restored
        ``promised``: the co-located acceptor's promise binds the owner
        too, since the owner's own promise and vote skip the check."""
        # The durable round was started (its prepares may have escaped),
        # so it counts as used; rounds above it never got past the
        # write-ahead sync and are free to reuse.
        self.max_round_seen = storage.get(K_ROUND, -1)
        self.observe(promised)

    def start(self, prepare_from: int) -> Ballot:
        """Own a fresh ballot, above every round seen, covering the
        instances from ``prepare_from`` on."""
        self.max_round_seen += 1
        self.ballot = Ballot(self.max_round_seen, self.pid)
        self.prepare_from = prepare_from
        self.promises = {}
        return self.ballot

    def prepare(self) -> Prepare:
        """The phase-1a message of the current ballot."""
        assert self.ballot is not None
        return Prepare(self.pid, self.ballot, self.prepare_from)

    def on_promise(self, message: Promise) -> bool:
        """Count a promise; ``False`` if it answers some other prepare."""
        if (message.ballot != self.ballot
                or message.from_instance != self.prepare_from):
            return False
        self.promises[message.sender] = message.accepted
        return True

    def prepared(self) -> bool:
        """Whether a majority has promised the current ballot."""
        return len(self.promises) >= self.majority

    def merged(self) -> dict[int, tuple[Ballot, Any]]:
        """Per instance, the reported ``(ballot, value)`` of the highest
        ballot: what a prepared owner must re-propose there."""
        merged: dict[int, tuple[Ballot, Any]] = {}
        for report in self.promises.values():
            for instance, slot in report:
                current = merged.get(instance)
                if current is None or slot[0] > current[0]:
                    merged[instance] = slot
        return merged


class PaxosProcess(Process):
    """The effectful shell around one :class:`Acceptor` and one
    :class:`BallotOwner`; see the module docstring.

    A driver names its phases (``IDLE``, ``PREPARING``), extends
    ``HANDLERS``, and implements :meth:`_pass` (one driver pass),
    :meth:`_on_prepared` (phase 2), :meth:`_step_down`, :meth:`_reset`
    and :meth:`_restore`.  ``persist`` is read at call time: the live
    backend switches it on, and attaches file storage, after construction.
    """

    IDLE = PREPARING = ""
    HANDLERS: dict[type, str] = {Prepare: "_on_prepare",
                                 Promise: "_on_promise",
                                 Propose: "_on_propose", Nack: "_on_nack"}

    def __init__(self, pid: int, sim: Simulation, network: Network, n: int,
                 leader_of: Callable[[], int],
                 config: ConsensusConfig | None, persist: bool) -> None:
        super().__init__(pid, sim, network)
        if n < 2:
            raise ValueError("n must be at least 2")
        self.n = n
        self.majority = n // 2 + 1
        self.leader_of = leader_of
        self.config = config if config is not None else ConsensusConfig()
        self.persist = persist
        if persist:
            self.attach_storage(StableStorage(
                pid, sim, hub=network.hub,
                sync_latency=self.config.sync_latency))
        # Bounded retransmission backoff toward silent peers — consulted
        # only with persistence, where a peer may be down for a long
        # stretch and come back.  Its counters survive recovery.
        self._gate = RetransmitGate(self.config)
        self._handlers = {kind: getattr(self, name)
                          for kind, name in self.HANDLERS.items()}
        self._reset()

    @property
    def promised(self) -> Ballot:
        """The acceptor's promise."""
        return self.acceptor.promised

    @property
    def ballot(self) -> Ballot | None:
        """The ballot this process last owned (``None`` before the first)."""
        return self.owner.ballot

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _reset(self) -> None:
        """Volatile state of a fresh incarnation (drivers extend)."""
        self.acceptor = Acceptor(self.pid)
        self.owner = BallotOwner(self.pid, self.majority)
        self.phase = self.IDLE

    def _restore(self, storage: StableStorage) -> None:
        """Reload the driver's own durable state (drivers override)."""

    def on_start(self) -> None:
        self.set_periodic(_TICK, self.config.tick)
        self._drive()

    def on_timer(self, key: Hashable) -> None:
        if key == _TICK:
            self._drive()

    def on_recover(self) -> None:
        """Come back as a fresh incarnation, owning no ballot.

        Everything volatile dies with the old incarnation.  With
        persistence the acceptor state, the ballot round and the
        driver's durable state come back from stable storage; without
        it this is deliberate amnesia (see the module docstring).
        """
        self._reset()
        self._gate.forget()
        if self.persist:
            self.acceptor.restore(self.storage)
            self.owner.restore(self.storage, self.acceptor.promised)
            self._restore(self.storage)
        self.set_periodic(_TICK, self.config.tick)
        self._drive()

    # ------------------------------------------------------------------
    # Passes: a timer fire or a delivery, (re)transmitting what is owed
    # ------------------------------------------------------------------

    def _drive(self) -> None:
        if self.persist:
            self._gate.begin_pass()
        self._pass()

    def _pass(self) -> None:
        raise NotImplementedError

    def on_message(self, message: Message) -> None:
        if self.persist:
            # A delivery is a driver pass of its own (a Promise or an
            # Accepted may pump), and a sign of life from the sender.
            self._gate.begin_pass(heard=message.sender)
        handler = self._handlers.get(type(message))
        if handler is not None:
            handler(message)

    def _retransmit(self, peer: int, message: Message) -> None:
        """Send — unconditionally in crash-stop runs (the classic
        once-per-tick retransmission), through the per-pass backoff gate
        with persistence."""
        if not self.persist or self._gate.admits(peer, self.now):
            self.send(peer, message)

    def _retransmit_to(self, heard: Iterable[int], message: Message) -> None:
        """Retransmit ``message`` to every peer not yet in ``heard``."""
        for peer in range(self.n):
            if peer != self.pid and peer not in heard:
                self._retransmit(peer, message)

    def _when_durable(self, writes: Writes, then: Callable[[], None]) -> None:
        """Run ``then`` once ``writes`` (and everything buffered before
        them) are on stable storage — at once without ``persist``.

        The one place the crash-recovery rules are enforced: what
        escapes the process waits for its write, and a callback that
        outlives its incarnation (the process crashed and recovered
        while the sync was in flight) is dropped.
        """
        if not self.persist:
            then()
            return
        storage = self.storage
        for key, value in writes:
            storage.put(key, value)
        incarnation = self.incarnation

        def durable() -> None:
            if self.incarnation == incarnation:
                then()

        storage.sync(on_durable=durable)

    # ------------------------------------------------------------------
    # Acceptor side
    # ------------------------------------------------------------------

    def _on_prepare(self, message: Prepare) -> None:
        self.owner.observe(message.ballot)
        self._reply_durably(message.sender,
                            *self.acceptor.on_prepare(message))

    def _on_propose(self, message: Propose) -> None:
        self.owner.observe(message.ballot)
        reply, writes = self.acceptor.on_propose(message)
        self._reply_durably(message.sender, reply, writes)
        if writes:
            self._after_accept(message)

    def _after_accept(self, message: Propose) -> None:
        """Hook: ``message`` was just accepted (the log's commit hint)."""

    def _reply_durably(self, peer: int, reply: Message,
                       writes: Writes) -> None:
        """Send an acceptor's reply: the proposer will count it toward a
        quorum, so with persistence it waits until the state it reports
        is durable.  A ``Nack`` promises nothing and leaves at once."""
        if writes:
            self._when_durable(writes, lambda: self.send(peer, reply))
        else:
            self.send(peer, reply)

    # ------------------------------------------------------------------
    # Ballot-owner side
    # ------------------------------------------------------------------

    def _start_ballot(self, prepare_from: int) -> None:
        """Open a fresh ballot over the instances from ``prepare_from``.

        The write-ahead rule: the round and the owner's promise to
        itself must be durable before any prepare escapes — a recovered
        owner must never reuse a round (ballots propose a unique value),
        and its own report joins the quorum, so it must survive crashes.
        """
        ballot = self.owner.start(prepare_from)
        self.phase = self.PREPARING
        report, writes = self.acceptor.promise(ballot, prepare_from)

        def launch() -> None:
            if self.owner.ballot == ballot and self.phase == self.PREPARING:
                self.owner.promises[self.pid] = report
                self._send_prepares()
                self._maybe_prepared()

        self._when_durable(writes + ((K_ROUND, ballot.round),), launch)

    def _send_prepares(self) -> None:
        owner = self.owner
        if self.pid in owner.promises:  # else the write-ahead is in flight
            self._retransmit_to(owner.promises, owner.prepare())

    def _on_promise(self, message: Promise) -> None:
        if self.phase == self.PREPARING and self.owner.on_promise(message):
            self._maybe_prepared()

    def _maybe_prepared(self) -> None:
        if self.owner.prepared():
            self._on_prepared(self.owner.merged())

    def _on_prepared(self, merged: dict[int, tuple[Ballot, Any]]) -> None:
        raise NotImplementedError

    def _on_nack(self, message: Nack) -> None:
        self.owner.observe(message.promised)
        if message.ballot == self.owner.ballot and self.phase != self.IDLE:
            # Outpaced: fall back; the next tick starts a higher ballot
            # if Omega still points here.
            self._step_down("nacked")

    def _step_down(self, why: str) -> None:
        """Give up the ballot in progress (the acceptor state stays —
        that is what safety rests on).  Drivers extend."""
        self.phase = self.IDLE
