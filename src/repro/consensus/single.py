"""Single-decree consensus driven by Omega (result R5).

One consensus instance in the paper's weak systems: up to ``f < n/2``
crashes, links possibly only fair-lossy, liveness hinging solely on the
Omega module eventually pointing everyone at the same correct process.
The ballot protocol itself — acceptor, ballot ownership, write-ahead
persistence — is :mod:`repro.consensus.paxos`; this module is what is
*single-decree* about it.  Roles are combined in one process:

* **Acceptor** — the shell's, used for instance 0 only.
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
"""

from __future__ import annotations

from typing import Any, Callable

from repro.consensus.config import ConsensusConfig
from repro.consensus.messages import (
    Accepted,
    Ballot,
    Decide,
    DecideAck,
    Propose,
)
from repro.consensus.paxos import PaxosProcess
from repro.sim.engine import Simulation
from repro.sim.network import Network
from repro.sim.storage import StableStorage

__all__ = ["SingleDecreeConsensus"]

_INSTANCE = 0  # single decree: everything lives in instance 0
_K_DECISION = "decision"  # stored as (value, time) so None proposals work

PHASE_IDLE = "idle"
PHASE_PREPARE = "prepare"
PHASE_PROPOSE = "propose"


class SingleDecreeConsensus(PaxosProcess):
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

    IDLE, PREPARING = PHASE_IDLE, PHASE_PREPARE
    HANDLERS = {**PaxosProcess.HANDLERS, Accepted: "_on_accepted",
                Decide: "_on_decide", DecideAck: "_on_decide_ack"}

    def __init__(self, pid: int, sim: Simulation, network: Network, n: int,
                 proposal: Any, leader_of: Callable[[], int],
                 config: ConsensusConfig | None = None,
                 persist: bool = False) -> None:
        self.proposal = proposal
        super().__init__(pid, sim, network, n, leader_of, config, persist)

    @property
    def accepted(self) -> tuple[Ballot, Any] | None:
        """The accepted ``(ballot, value)`` pair, if any."""
        return self.acceptor.accepted.get(_INSTANCE)

    def _reset(self) -> None:
        super()._reset()
        self.ballot_value: Any = None
        self._accept_acks: set[int] = set()
        self.decision: Any = None
        self.decision_time: float | None = None
        self._decide_acks: set[int] = set()

    def _restore(self, storage: StableStorage) -> None:
        stored = storage.get(_K_DECISION)
        if stored is not None:
            self.decision, self.decision_time = stored
            self._decide_acks = {self.pid}

    # ------------------------------------------------------------------
    # Driver: (re)transmit whatever is outstanding
    # ------------------------------------------------------------------

    def _pass(self) -> None:
        if self.decision is not None:
            self._spread_decision()
        elif self.leader_of() != self.pid:
            # Omega points elsewhere: abandon any in-flight ballot.
            self._step_down("abandoned")
        elif self.phase == PHASE_IDLE:
            self.network.hub.span_begin(self.now, self.pid, "ballot.prepare",
                                        self.owner.max_round_seen + 1)
            self._start_ballot(_INSTANCE)
        elif self.phase == PHASE_PREPARE:
            self._send_prepares()
        else:
            self._send_proposals()

    def _end_phase_span(self, detail: str) -> None:
        """Close the open ballot-phase span, if any, on the observer hub."""
        if self.phase != PHASE_IDLE:
            self.network.hub.span_end(self.now, self.pid,
                                      f"ballot.{self.phase}", detail)

    def _step_down(self, why: str) -> None:
        self._end_phase_span(why)
        self.phase = PHASE_IDLE

    def _send_proposals(self) -> None:
        self._retransmit_to(self._accept_acks, Propose(
            self.pid, self.ballot, _INSTANCE, self.ballot_value, -1))

    def _spread_decision(self) -> None:
        self._retransmit_to(self._decide_acks,
                            Decide(self.pid, _INSTANCE, self.decision))

    # ------------------------------------------------------------------
    # Proposer: phase 2
    # ------------------------------------------------------------------

    def _on_prepared(self, merged: dict[int, tuple[Ballot, Any]]) -> None:
        # Choose the value of the highest-ballot accepted report, if any;
        # otherwise we are free to propose our own value.
        reported = merged.get(_INSTANCE)
        self.ballot_value = self.proposal if reported is None else reported[1]
        ballot = self.owner.ballot
        self._end_phase_span("promised")
        self.phase = PHASE_PROPOSE
        self.network.hub.span_begin(self.now, self.pid, "ballot.propose",
                                    ballot.round)
        self._accept_acks = set()

        def count_self_accept() -> None:
            if self.owner.ballot == ballot and self.phase == PHASE_PROPOSE:
                self._accept_acks.add(self.pid)
                self._maybe_decide()

        # Self-accept; with persistence our own vote counts toward the
        # quorum only once the accepted pair is durable.
        self._when_durable(
            self.acceptor.vote(ballot, _INSTANCE, self.ballot_value),
            count_self_accept)
        self._send_proposals()
        self._maybe_decide()

    def _on_accepted(self, message: Accepted) -> None:
        if self.phase == PHASE_PROPOSE and message.ballot == self.ballot:
            self._accept_acks.add(message.sender)
            self._maybe_decide()

    def _maybe_decide(self) -> None:
        if self.phase == PHASE_PROPOSE \
                and len(self._accept_acks) >= self.majority:
            self._learn(self.ballot_value)
            self._spread_decision()

    # ------------------------------------------------------------------
    # Learner
    # ------------------------------------------------------------------

    def _on_decide(self, message: Decide) -> None:
        self._learn(message.value)
        # Always (re-)ack: our previous ack may have been lost and the
        # announcer retransmits until it hears one.
        self.send(message.sender, DecideAck(self.pid, _INSTANCE))

    def _on_decide_ack(self, message: DecideAck) -> None:
        self._decide_acks.add(message.sender)

    def _learn(self, value: Any) -> None:
        if self.decision is None:
            self._step_down("decided")
            self.decision = value
            self.decision_time = self.now
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
