"""Single-decree consensus driven by Omega (result R5).

A ballot-based (Paxos-style) protocol solving one consensus instance in
the paper's weak systems: up to ``f < n/2`` crashes, links possibly only
fair-lossy, liveness hinging solely on the Omega module eventually
pointing everyone at the same correct process.

Roles are combined in one process, as usual:

* **Acceptor** — promises ballots and accepts values, replying to every
  (re)transmission idempotently; its state (``promised``, ``accepted``)
  is what quorum intersection protects.
* **Proposer** — only runs while the local Omega output equals the local
  pid.  Classic two phases: collect a majority of promises, propose the
  accepted value of the highest reported ballot (or its own proposal),
  collect a majority of accepts, decide.
* **Learner** — a decided proposer broadcasts ``Decide`` and keeps
  retransmitting to peers until each acknowledges.

Fair-lossy links are handled by the *driver tick*: every ``tick`` the
process retransmits whatever it is still waiting on (prepares to peers
that have not promised, proposals to peers that have not accepted,
decisions to peers that have not acked).  Each retransmission stream
repeats one message type on one link, exactly what typed fairness needs.

Safety (agreement, validity, integrity) is independent of Omega and of
timing — the property-based tests attack it with random schedules,
crashes and competing proposers.  Termination of correct processes
follows once Omega stabilizes: a single correct proposer eventually runs
unopposed, its ballot outgrows every Nack, both quorum phases complete
(majority of correct acceptors + fair links), and Decide reaches every
correct peer.

With ``persist=True`` the process additionally survives the
crash-*recovery* model (docs/RECOVERY.md): the acceptor state and the
ballot round are written to :class:`~repro.sim.storage.StableStorage`,
and everything that *escapes* the process — a ``Promise`` or
``Accepted`` reply, a fresh ballot's ``Prepare``, the proposer counting
its own implicit vote — waits until the write commits.  Quorum
intersection then keeps holding across restarts: no acceptor can forget
a promise or vote any peer has ever observed, and no recovered proposer
can reuse a ballot for a different value.  Without ``persist`` a
recovered process comes back amnesiac — deliberately so; that is the
control case the soak harness uses to demonstrate the safety violation
stable storage exists to prevent.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

from repro.consensus.config import ConsensusConfig
from repro.consensus.messages import (
    BOTTOM_BALLOT,
    Accepted,
    Ballot,
    Decide,
    DecideAck,
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

__all__ = ["SingleDecreeConsensus"]

_TICK = "tick"
_INSTANCE = 0  # single decree: everything lives in instance 0

# Stable-storage keys (persist=True only).
_K_PROMISED = "promised"
_K_ACCEPTED = "accepted"
_K_ROUND = "round"
_K_DECISION = "decision"  # stored as (value, time) so None proposals work

PHASE_IDLE = "idle"
PHASE_PREPARE = "prepare"
PHASE_PROPOSE = "propose"


class SingleDecreeConsensus(Process):
    """One process of a single-decree consensus ensemble.

    Parameters
    ----------
    pid, sim, network:
        As for :class:`~repro.sim.process.Process`.
    n:
        Ensemble size (pids ``0..n-1``); the majority quorum is
        ``n // 2 + 1``.
    proposal:
        This process's initial value (validity: any decision is some
        process's ``proposal``).
    leader_of:
        The Omega output — a callable returning the currently trusted
        pid.  Wired to a real Omega instance by
        :mod:`repro.consensus.node`; tests may pass a stub.
    config:
        Timing knobs.
    persist:
        Run in the crash-recovery model: keep the acceptor state (and
        the ballot round, and any decision) on stable storage so a
        :meth:`~repro.sim.process.Process.recover` restores it.  Off by
        default — crash-stop runs never touch storage.
    """

    def __init__(self, pid: int, sim: Simulation, network: Network, n: int,
                 proposal: Any, leader_of: Callable[[], int],
                 config: ConsensusConfig | None = None,
                 persist: bool = False) -> None:
        super().__init__(pid, sim, network)
        if n < 2:
            raise ValueError("n must be at least 2")
        self.n = n
        self.majority = n // 2 + 1
        self.proposal = proposal
        self.leader_of = leader_of
        self.config = config if config is not None else ConsensusConfig()
        self.persist = persist
        if persist:
            self.attach_storage(StableStorage(
                pid, sim, hub=network.hub,
                sync_latency=self.config.sync_latency))
        # Bounded retransmission backoff toward silent peers — consulted
        # only with persistence (crash-recovery stacks), where a peer
        # may be down for a long stretch and come back later.
        self._gate = RetransmitGate(self.config)

        # Acceptor state.
        self.promised: Ballot = BOTTOM_BALLOT
        self.accepted: tuple[Ballot, Any] | None = None

        # Proposer state.
        self.phase: str = PHASE_IDLE
        self.ballot: Ballot | None = None
        self.ballot_value: Any = None
        self._promises: dict[int, tuple[Ballot, Any] | None] = {}
        self._accept_acks: set[int] = set()
        self._max_round_seen = -1

        # Learner state.
        self.decision: Any = None
        self.decision_time: float | None = None
        self._decide_acks: set[int] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def on_start(self) -> None:
        self.set_periodic(_TICK, self.config.tick)
        self._drive()

    def on_timer(self, key: Hashable) -> None:
        if key == _TICK:
            self._drive()

    def on_recover(self) -> None:
        """Come back as a fresh incarnation.

        Everything volatile dies with the old incarnation.  With
        persistence the acceptor state, the ballot round and any
        decision come back from stable storage; without it this is
        deliberate amnesia — the control case showing why Paxos needs
        stable storage in the crash-recovery model.
        """
        self.phase = PHASE_IDLE
        self.ballot = None
        self.ballot_value = None
        self._promises = {}
        self._accept_acks = set()
        self._max_round_seen = -1
        self.promised = BOTTOM_BALLOT
        self.accepted = None
        self.decision = None
        self.decision_time = None
        self._decide_acks = set()
        self._gate.forget()
        if self.persist:
            self.promised = self.storage.get(_K_PROMISED, BOTTOM_BALLOT)
            self.accepted = self.storage.get(_K_ACCEPTED)
            # The durable round was started (its prepares may have
            # escaped), so it counts as used; rounds above it never got
            # past the write-ahead sync and are free to reuse.
            self._max_round_seen = self.storage.get(_K_ROUND, -1)
            stored = self.storage.get(_K_DECISION)
            if stored is not None:
                self.decision, self.decision_time = stored
        if self.decision is not None:
            self._decide_acks = {self.pid}
        self.set_periodic(_TICK, self.config.tick)
        self._drive()

    # ------------------------------------------------------------------
    # Driver: (re)transmit whatever is outstanding
    # ------------------------------------------------------------------

    def _drive(self) -> None:
        if self.persist:
            self._gate.begin_pass()
        if self.decision is not None:
            self._spread_decision()
            return
        if self.leader_of() != self.pid:
            # Omega points elsewhere: abandon any in-flight ballot (the
            # acceptor state stays — that is what safety rests on).
            if self.phase != PHASE_IDLE:
                self._end_phase_span("abandoned")
                self.phase = PHASE_IDLE
            return
        if self.phase == PHASE_IDLE:
            self._start_ballot()
        elif self.phase == PHASE_PREPARE:
            self._send_prepares()
        elif self.phase == PHASE_PROPOSE:
            self._send_proposals()

    def _end_phase_span(self, detail: str) -> None:
        """Close the open ballot-phase span, if any, on the observer hub."""
        if self.phase == PHASE_PREPARE:
            self.network.hub.span_end(self.now, self.pid, "ballot.prepare",
                                      detail)
        elif self.phase == PHASE_PROPOSE:
            self.network.hub.span_end(self.now, self.pid, "ballot.propose",
                                      detail)

    def _start_ballot(self) -> None:
        round_number = self._max_round_seen + 1
        self.ballot = Ballot(round_number, self.pid)
        self._max_round_seen = round_number
        self.phase = PHASE_PREPARE
        self.network.hub.span_begin(self.now, self.pid, "ballot.prepare",
                                    round_number)
        # Self-promise.  With persistence the write-ahead rule applies:
        # the round and the promise must be durable before anything
        # escapes — a recovered proposer must never reuse a round
        # (ballots propose a unique value), and our own implicit vote
        # counts toward the quorum so it must survive our crashes.
        self.promised = max(self.promised, self.ballot)
        self._promises = {}
        self._accept_acks = set()
        if self.persist:
            ballot = self.ballot
            reported = self.accepted
            self._put_acceptor_state()
            self.storage.put(_K_ROUND, round_number)
            incarnation = self.incarnation

            def launch() -> None:
                if (self.incarnation != incarnation or self.ballot != ballot
                        or self.phase != PHASE_PREPARE):
                    return
                self._promises[self.pid] = reported
                self._send_prepares()
                self._maybe_finish_prepare()

            self.storage.sync(on_durable=launch)
        else:
            self._promises[self.pid] = self.accepted
            self._send_prepares()
            self._maybe_finish_prepare()

    def _send_prepares(self) -> None:
        assert self.ballot is not None
        if self.persist and self.pid not in self._promises:
            return  # the round's write-ahead sync is still in flight
        for peer in self._peers():
            if peer != self.pid and peer not in self._promises:
                self._retransmit(peer, Prepare(self.pid, self.ballot, _INSTANCE))

    def _send_proposals(self) -> None:
        assert self.ballot is not None
        for peer in self._peers():
            if peer != self.pid and peer not in self._accept_acks:
                self._retransmit(peer, Propose(self.pid, self.ballot, _INSTANCE,
                                               self.ballot_value, -1))

    def _spread_decision(self) -> None:
        for peer in self._peers():
            if peer != self.pid and peer not in self._decide_acks:
                self._retransmit(peer, Decide(self.pid, _INSTANCE, self.decision))

    def _retransmit(self, peer: int, message: Message) -> None:
        """Send — unconditionally in crash-stop runs (the classic
        once-per-tick retransmission), through the per-pass backoff gate
        with persistence."""
        if not self.persist or self._gate.admits(peer, self.now):
            self.send(peer, message)

    def _peers(self) -> range:
        return range(self.n)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        if self.persist:
            # A delivery is a driver pass of its own (a Promise or an
            # Accepted may pump), and a sign of life from the sender.
            self._gate.begin_pass(heard=message.sender)
        if isinstance(message, Prepare):
            self._on_prepare(message)
        elif isinstance(message, Promise):
            self._on_promise(message)
        elif isinstance(message, Propose):
            self._on_propose(message)
        elif isinstance(message, Accepted):
            self._on_accepted(message)
        elif isinstance(message, Nack):
            self._on_nack(message)
        elif isinstance(message, Decide):
            self._on_decide(message)
        elif isinstance(message, DecideAck):
            self._decide_acks.add(message.sender)

    # --- acceptor ------------------------------------------------------

    def _on_prepare(self, message: Prepare) -> None:
        self._observe_round(message.ballot)
        if message.ballot >= self.promised:
            self.promised = message.ballot
            accepted = ()
            if self.accepted is not None:
                accepted = ((_INSTANCE, self.accepted),)
            self._reply_durably(
                message.sender,
                Promise(self.pid, message.ballot, _INSTANCE, accepted))
        else:
            self.send(message.sender,
                      Nack(self.pid, message.ballot, _INSTANCE, self.promised))

    def _on_propose(self, message: Propose) -> None:
        self._observe_round(message.ballot)
        if message.ballot >= self.promised:
            self.promised = message.ballot
            self.accepted = (message.ballot, message.value)
            self._reply_durably(
                message.sender,
                Accepted(self.pid, message.ballot, _INSTANCE))
        else:
            self.send(message.sender,
                      Nack(self.pid, message.ballot, _INSTANCE, self.promised))

    def _put_acceptor_state(self) -> None:
        self.storage.put(_K_PROMISED, self.promised)
        self.storage.put(_K_ACCEPTED, self.accepted)

    def _reply_durably(self, peer: int, reply: Message) -> None:
        """Send a reply that reports acceptor state.

        With persistence the reply waits until the reported state is on
        stable storage: the proposer will count it toward a quorum, so
        the state must survive our crashes (quorum intersection is what
        agreement rests on).  Nacks promise nothing and are sent
        directly, never through here.
        """
        if not self.persist:
            self.send(peer, reply)
            return
        self._put_acceptor_state()
        incarnation = self.incarnation

        def deliver() -> None:
            if self.incarnation == incarnation:
                self.send(peer, reply)

        self.storage.sync(on_durable=deliver)

    # --- proposer ------------------------------------------------------

    def _on_promise(self, message: Promise) -> None:
        if self.phase != PHASE_PREPARE or message.ballot != self.ballot:
            return
        reported = dict(message.accepted).get(_INSTANCE)
        self._promises[message.sender] = reported
        self._maybe_finish_prepare()

    def _maybe_finish_prepare(self) -> None:
        if self.phase != PHASE_PREPARE or len(self._promises) < self.majority:
            return
        # Choose the value of the highest-ballot accepted report, if any;
        # otherwise we are free to propose our own value.
        best: tuple[Ballot, Any] | None = None
        for reported in self._promises.values():
            if reported is not None and (best is None or reported[0] > best[0]):
                best = reported
        self.ballot_value = self.proposal if best is None else best[1]
        self._end_phase_span("promised")
        self.phase = PHASE_PROPOSE
        assert self.ballot is not None
        self.network.hub.span_begin(self.now, self.pid, "ballot.propose",
                                    self.ballot.round)
        # Self-accept; with persistence our own vote counts toward the
        # quorum only once the accepted pair is durable.
        self.promised = max(self.promised, self.ballot)
        self.accepted = (self.ballot, self.ballot_value)
        if self.persist:
            ballot = self.ballot
            self._put_acceptor_state()
            self._accept_acks = set()
            incarnation = self.incarnation

            def count_self_accept() -> None:
                if (self.incarnation != incarnation or self.ballot != ballot
                        or self.phase != PHASE_PROPOSE):
                    return
                self._accept_acks.add(self.pid)
                self._maybe_decide()

            self.storage.sync(on_durable=count_self_accept)
        else:
            self._accept_acks = {self.pid}
        self._send_proposals()
        self._maybe_decide()

    def _on_accepted(self, message: Accepted) -> None:
        if self.phase != PHASE_PROPOSE or message.ballot != self.ballot:
            return
        self._accept_acks.add(message.sender)
        self._maybe_decide()

    def _maybe_decide(self) -> None:
        if self.phase == PHASE_PROPOSE and len(self._accept_acks) >= self.majority:
            self._learn(self.ballot_value)
            self._spread_decision()

    def _on_nack(self, message: Nack) -> None:
        self._observe_round(message.promised)
        if message.ballot == self.ballot and self.phase != PHASE_IDLE:
            # Outpaced: abandon; the next tick starts a higher ballot if
            # we still lead.
            self._end_phase_span("nacked")
            self.phase = PHASE_IDLE

    def _observe_round(self, ballot: Ballot) -> None:
        self._max_round_seen = max(self._max_round_seen, ballot.round)

    # --- learner -------------------------------------------------------

    def _on_decide(self, message: Decide) -> None:
        self._learn(message.value)
        # Always (re-)ack: our previous ack may have been lost and the
        # announcer retransmits until it hears one.
        self.send(message.sender, DecideAck(self.pid, _INSTANCE))

    def _learn(self, value: Any) -> None:
        if self.decision is None:
            self._end_phase_span("decided")
            self.decision = value
            self.decision_time = self.now
            self.phase = PHASE_IDLE
            self._decide_acks.add(self.pid)
            self.network.hub.decide(self.now, self.pid, value)
            if self.persist:
                # Persisted for liveness only (a recovered process
                # resumes spreading instead of re-running the protocol);
                # nothing waits on this sync — if the write is lost,
                # quorum intersection re-derives the same value.
                self.storage.put(_K_DECISION, (value, self.now))
                self.storage.sync()
        elif self.decision != value:  # pragma: no cover - would be a safety bug
            raise AssertionError(
                f"process {self.pid} saw two different decisions: "
                f"{self.decision!r} vs {value!r}"
            )
