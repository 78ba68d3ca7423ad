"""Repeated consensus: a replicated log with a stable-leader fast path.

This is the paper's "consensus" deliverable in its long-lived form: an
unbounded sequence of consensus instances (log slots) driven by Omega,
with the classic multi-decree optimization — a leader establishes one
ballot with a single prepare phase *covering all instances at once*, and
thereafter commits each client command with one round trip:

    leader --Propose--> all,   all --Accepted--> leader

so in steady state only the ``2(n-1)`` leader-adjacent links carry
traffic: the consensus analogue of the paper's communication efficiency
(experiment E9).  Decisions additionally propagate through explicit
``Decide``/``DecideAck`` exchanges (retransmitted until acknowledged —
links may be fair-lossy) plus a safe piggyback: a ``Propose`` carries the
leader's ``commit_through`` index, and a follower may mark an instance
``i <= commit_through`` decided if *its accepted ballot for i equals the
message's ballot* — then its accepted value is exactly the value the
leader proposed (ballots propose a unique value per instance) and hence
the decided one.

Client commands enter through :meth:`LogReplica.submit` on any node;
non-leaders forward their whole pending queue to their Omega leader
every tick (at-least-once, deduplicated by command id at propose and
apply time).

The tick-paced driver sends **at most one message of a kind to a peer
per pass**: the pending queue travels as one ``Forwards``, the pass's
decisions for a peer as one ``Decides``, answered by one ``DecideAcks``
— typed fair-lossy links promise delivery per message *type*, not per
command.  A pass with a single entry sends the plain ``Forward`` /
``Decide`` / ``DecideAck``, so low-rate schedules are unchanged.

Safety is the ballot protocol of :mod:`repro.consensus.paxos` — one
acceptor and one ballot owner, shared with the single-decree class — and
does not depend on Omega; the property tests replay random schedules
with duelling leaders, crashes and loss, asserting that committed
prefixes never diverge.  This module is what is a *log* about it: slots
and the proposal pump, forwarding, decision spreading, the commit
piggyback, the learner.

With ``persist=True`` the replica survives the crash-recovery model
(docs/RECOVERY.md): besides the shell's acceptor state and ballot round,
the learned log entries live on stable storage, and a ``DecideAck``
waits for its entries' write like every quorum vote does.  A recovered
replica rejoins as a follower with its acceptor state and committed
prefix intact.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable

from repro.consensus.config import ConsensusConfig
from repro.consensus.messages import (
    Accepted,
    Ballot,
    Decide,
    DecideAck,
    DecideAcks,
    Decides,
    Forward,
    Forwards,
    Propose,
)
from repro.consensus.paxos import PaxosProcess
from repro.sim.engine import Simulation
from repro.sim.network import Network
from repro.sim.storage import StableStorage

__all__ = ["Batch", "LogReplica", "NOOP", "entry_commands"]

# Most commands one forward message carries; a longer pending queue is
# split.  256 load-generator commands encode to under a quarter of
# ``repro.live.codec.MAX_FRAME``.
FORWARD_SPLIT = 256

_K_LOG = "log"  # stable storage: (("log", instance) -> decided value)

NOOP = None
"""Filler value proposed for recovered-but-empty slots."""


@dataclass(frozen=True, slots=True)
class Batch:
    """Several client commands packed into one log instance.

    With ``config.batch_size > 1`` the leader drains up to that many
    pending commands into a single slot, so one Propose/Accepted round
    trip commits them all.  A slot that drains exactly one command stays
    a plain ``(command_id, command)`` pair — the ``batch_size=1``
    default is therefore bit-identical to the unbatched protocol.
    """

    entries: tuple[tuple[Hashable, Any], ...]
    """The packed ``(command_id, command)`` pairs, in submission order."""


def entry_commands(entry: Any) -> tuple[tuple[Hashable, Any], ...]:
    """The ``(command_id, command)`` pairs a decided log entry carries.

    ``NOOP`` fillers carry none, a :class:`Batch` carries its entries,
    and anything else is a single plain pair.  Every consumer that walks
    committed entries (checkers, state machines, workloads) goes through
    here so batched and unbatched logs look alike.
    """
    if entry is NOOP:
        return ()
    if isinstance(entry, Batch):
        return entry.entries
    return (entry,)

PHASE_FOLLOWER = "follower"
PHASE_PREPARING = "preparing"
PHASE_LEADING = "leading"


class _OpenSlot:
    """A leader-side in-flight instance."""

    __slots__ = ("value", "acks")

    def __init__(self, value: Any, acks: set[int]) -> None:
        self.value = value
        self.acks = acks


class LogReplica(PaxosProcess):
    """One replica of the Omega-driven replicated log.

    Parameters
    ----------
    pid, sim, network:
        As for :class:`~repro.sim.process.Process`.
    n:
        Ensemble size; the quorum is ``n // 2 + 1``.
    leader_of:
        The Omega output for this node.
    config:
        Timing and pipelining knobs.
    persist:
        Run in the crash-recovery model: keep the acceptor state and
        the learned log on stable storage so a
        :meth:`~repro.sim.process.Process.recover` restores them.  Off
        by default — crash-stop runs never touch storage.
    """

    IDLE, PREPARING = PHASE_FOLLOWER, PHASE_PREPARING
    HANDLERS = {**PaxosProcess.HANDLERS, Accepted: "_on_accepted",
                Decide: "_on_decide", Decides: "_on_decide",
                DecideAck: "_on_decide_ack", DecideAcks: "_on_decide_ack",
                Forward: "_on_forward", Forwards: "_on_forward"}

    def __init__(self, pid: int, sim: Simulation, network: Network, n: int,
                 leader_of: Callable[[], int],
                 config: ConsensusConfig | None = None,
                 persist: bool = False) -> None:
        super().__init__(pid, sim, network, n, leader_of, config, persist)
        # Load counters (observability; like the gate's, they survive
        # recovery — they describe the machine's whole lifetime).
        self.shed_count = 0
        self.max_queue_depth = 0
        self.batch_histogram: dict[int, int] = {}

    @property
    def accepted(self) -> dict[int, tuple[Ballot, Any]]:
        """The acceptor's per-instance accepted ``(ballot, value)`` map."""
        return self.acceptor.accepted

    def _reset(self) -> None:
        super()._reset()
        # Learner state.
        self.log: dict[int, Any] = {}
        self.commit_index = -1  # highest i with 0..i all decided
        self.committed_ids: set[Hashable] = set()
        self.decision_times: dict[int, float] = {}
        self._decide_acks: dict[int, set[int]] = {}
        self._spread_cursor = 0
        # Leader state; ``_in_flight`` holds the ids of the commands the
        # open slots carry (kept in step with ``_open`` by
        # _open_slot/_maybe_close/_abandon_open).
        self._open: dict[int, _OpenSlot] = {}
        self._in_flight: set[Hashable] = set()
        self._next_instance = 0
        # Client command intake (insertion ordered).
        self.pending: "OrderedDict[Hashable, Any]" = OrderedDict()

    def _restore(self, storage: StableStorage) -> None:
        for key in storage.durable_keys():
            if isinstance(key, tuple) and key[0] == _K_LOG:
                value = self.log[key[1]] = storage.get(key)
                self.committed_ids.update(
                    command_id for command_id, _ in entry_commands(value))
        while self.commit_index + 1 in self.log:
            self.commit_index += 1

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def submit(self, command_id: Hashable, command: Any) -> bool:
        """Hand a client command to this node (any node will do).

        At-least-once: callers may resubmit; ids deduplicate everywhere.

        Returns ``True`` when the command is accepted into (or already
        sits in) this replica's pipeline, and ``False`` when it is
        **shed**: the node is crashed, or ``config.queue_limit`` is set
        and the pending queue is full.  A shed is the backpressure
        signal — the caller should defer and resubmit later, possibly to
        another node.  Commands already committed report ``True``.
        """
        if self._crashed:
            return False
        pending = self.pending
        if command_id in self.committed_ids or command_id in pending:
            return True
        depth = len(pending)
        limit = self.config.queue_limit
        if limit is not None and depth >= limit:
            self.shed_count += 1
            return False
        pending[command_id] = command
        if depth >= self.max_queue_depth:
            self.max_queue_depth = depth + 1
        return True

    def committed_prefix(self) -> list[Any]:
        """Values of the contiguous decided prefix (``NOOP`` fillers included)."""
        return [self.log[i] for i in range(self.commit_index + 1)]

    def applied_commands(self) -> list[Any]:
        """The state machine's view: prefix minus noops and duplicate ids."""
        seen: set[Hashable] = set()
        out: list[Any] = []
        for entry in self.committed_prefix():
            for command_id, command in entry_commands(entry):
                if command_id in seen:
                    continue
                seen.add(command_id)
                out.append(command)
        return out

    def load_stats(self) -> dict[str, Any]:
        """Lifetime load counters: sheds, queue high-water, batch sizes,
        and the driver sends the ``persist=True`` backoff gate admitted
        and suppressed (both 0 without it: nothing is ever gated)."""
        return {
            "shed": self.shed_count,
            "max_queue_depth": self.max_queue_depth,
            "batch_sizes": dict(sorted(self.batch_histogram.items())),
            "retransmits_sent": self._gate.sent,
            "retransmits_gated": self._gate.gated,
        }

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------

    def _pass(self) -> None:
        self._spread_decisions()
        if self.leader_of() != self.pid:
            self._step_down("abandoned")
            self._forward_pending()
        elif self.phase == PHASE_FOLLOWER:
            self._start_ballot(self.commit_index + 1)
        elif self.phase == PHASE_PREPARING:
            self._send_prepares()
        else:
            self._pump_proposals()

    def _step_down(self, why: str) -> None:
        # Commands in open slots that fail to commit re-enter via client
        # re-forwarding.
        self.phase = PHASE_FOLLOWER
        self._abandon_open()

    def _forward_pending(self) -> None:
        leader = self.leader_of()
        if leader == self.pid or not self.pending:
            return
        # Everything pending, every pass: typed fairness then covers
        # every command.  Split only to bound the frame size.
        commands = tuple(self.pending.items())
        for start in range(0, len(commands), FORWARD_SPLIT):
            chunk = commands[start:start + FORWARD_SPLIT]
            self.send(leader, Forwards(self.pid, chunk) if len(chunk) > 1
                      else Forward(self.pid, *chunk[0]))

    # --- leadership acquisition ----------------------------------------

    def _on_prepared(self, merged: dict[int, tuple[Ballot, Any]]) -> None:
        # Per instance, the reported accepted value of the highest
        # ballot must be re-proposed; unreported gaps get noops.
        prepare_from = self.owner.prepare_from
        self.phase = PHASE_LEADING
        self._abandon_open()
        top = max(merged) if merged else prepare_from - 1
        for instance in range(prepare_from, top + 1):
            reported = merged.get(instance)
            value = reported[1] if reported is not None else NOOP
            self._open_slot(instance, value)
        self._next_instance = top + 1
        self._pump_proposals()

    # --- steady-state leading -------------------------------------------

    def _pump_proposals(self) -> None:
        # Open new slots for pending commands, up to the pipeline budget
        # (``max_batch`` concurrent instances), packing up to
        # ``batch_size`` commands per slot.  Commands stay in ``pending``
        # until committed — if leadership is lost mid-flight they are
        # simply re-forwarded/re-proposed later, deduplicated by id here
        # and at apply time.
        if len(self._open) < self.config.max_batch:
            committed, in_flight = self.committed_ids, self._in_flight
            # A snapshot of the candidates only: a slot that closes at
            # once (n = 1) pops its commands from ``pending``.
            candidates = [(command_id, command)
                          for command_id, command in self.pending.items()
                          if command_id not in committed
                          and command_id not in in_flight]
            batch: list[tuple[Hashable, Any]] = []
            for item in candidates:
                if len(self._open) >= self.config.max_batch:
                    break
                batch.append(item)
                if len(batch) >= self.config.batch_size:
                    self._open_batch(batch)
                    batch = []
            if batch and len(self._open) < self.config.max_batch:
                self._open_batch(batch)
        # (Re)transmit every open slot to peers that have not accepted.
        ballot = self.owner.ballot
        for instance, slot in self._open.items():
            self._retransmit_to(slot.acks, Propose(
                self.pid, ballot, instance, slot.value, self.commit_index))

    def _open_batch(self, batch: list[tuple[Hashable, Any]]) -> None:
        value: Any = batch[0] if len(batch) == 1 else Batch(tuple(batch))
        self.batch_histogram[len(batch)] = \
            self.batch_histogram.get(len(batch), 0) + 1
        self._open_slot(self._next_instance, value)
        self._next_instance += 1

    def _abandon_open(self) -> None:
        self._open.clear()
        self._in_flight.clear()

    def _open_slot(self, instance: int, value: Any) -> None:
        slot = self._open[instance] = _OpenSlot(value, set())
        self._in_flight.update(
            command_id for command_id, _ in entry_commands(value))

        def count_self_accept() -> None:
            if self._open.get(instance) is slot:
                slot.acks.add(self.pid)
                self._maybe_close(instance)

        # Self-accept; with persistence the leader's own vote counts
        # toward the quorum only once the accepted pair is durable.
        self._when_durable(
            self.acceptor.vote(self.owner.ballot, instance, value),
            count_self_accept)

    def _maybe_close(self, instance: int) -> None:
        slot = self._open.get(instance)
        if slot is None or len(slot.acks) < self.majority:
            return
        del self._open[instance]
        self._in_flight.difference_update(
            command_id for command_id, _ in entry_commands(slot.value))
        self._learn(instance, slot.value)
        if self.persist:
            self.storage.sync()  # liveness only; nothing waits on it
        # Only the deciding leader announces: followers learning through
        # Decide or the commit piggyback must stay silent, or everyone
        # would re-broadcast and communication efficiency would be lost.
        self._decide_acks.setdefault(instance, {self.pid})

    # --- decision propagation -------------------------------------------

    def _spread_decisions(self) -> None:
        # Retransmit unacknowledged decisions, capped per tick so a
        # crashed peer (which will never ack) cannot turn every tick into
        # a flood proportional to the log length.  The cap rotates
        # round-robin over the unacked instances — picking "oldest first"
        # would let instances blocked solely on a crashed peer starve the
        # spreading of newer decisions forever.
        done = [instance for instance, acks in self._decide_acks.items()
                if len(acks) == self.n]
        for instance in done:
            del self._decide_acks[instance]
        outstanding = sorted(self._decide_acks)
        if not outstanding:
            return
        budget = min(self.config.max_batch, len(outstanding))
        start = self._spread_cursor % len(outstanding)
        self._spread_cursor += budget
        chosen = [outstanding[(start + offset) % len(outstanding)]
                  for offset in range(budget)]
        for peer in range(self.n):
            if peer == self.pid:
                continue
            entries = tuple((instance, self.log[instance])
                            for instance in chosen
                            if peer not in self._decide_acks[instance])
            if entries:
                self._retransmit(
                    peer, Decides(self.pid, entries) if len(entries) > 1
                    else Decide(self.pid, *entries[0]))

    def _learn(self, instance: int, value: Any) -> None:
        log = self.log
        known = log.get(instance)
        if known is not None or instance in log:
            if known != value:  # pragma: no cover - would be a safety bug
                raise AssertionError(
                    f"replica {self.pid} instance {instance}: "
                    f"{known!r} vs {value!r}"
                )
            return
        now = self.now
        log[instance] = value
        self.decision_times[instance] = now
        if self.persist:
            # Buffered here, synced by the caller: the deciding leader
            # fires a plain sync (nothing waits on it), a follower
            # learning through Decide defers its DecideAck on it.
            self.storage.put((_K_LOG, instance), value)
        decided = (instance, value)
        for callback in self.network.hub.decide_cbs:
            callback(now, self.pid, decided)
        committed, pending = self.committed_ids, self.pending
        for command_id, _ in entry_commands(value):
            committed.add(command_id)
            pending.pop(command_id, None)
        index = self.commit_index
        while index + 1 in log:
            index += 1
        self.commit_index = index

    # ------------------------------------------------------------------
    # Message handling (the acceptor and ballot handlers are the shell's)
    # ------------------------------------------------------------------

    def _on_forward(self, message: Forward | Forwards) -> None:
        # A follower re-forwards its whole queue every pass, so most ids
        # are already known here; submit() would accept those unchanged.
        pending, committed = self.pending, self.committed_ids
        for command_id, command in message.commands:
            if command_id not in pending and command_id not in committed:
                self.submit(command_id, command)

    def _after_accept(self, message: Propose) -> None:
        # Safe piggyback (see module docstring): an instance at or below
        # the leader's commit index whose accepted ballot *is* the
        # message's ballot holds exactly the leader's (decided) value.
        accepted = self.acceptor.accepted
        for instance in range(self.commit_index + 1,
                              message.commit_through + 1):
            slot = accepted.get(instance)
            if slot is not None and slot[0] == message.ballot \
                    and instance not in self.log:
                self._learn(instance, slot[1])
        if self.persist and self.storage.dirty:
            self.storage.sync()  # flush piggyback-learned entries

    def _on_accepted(self, message: Accepted) -> None:
        if self.phase != PHASE_LEADING \
                or message.ballot != self.owner.ballot:
            return
        slot = self._open.get(message.instance)
        if slot is not None:
            slot.acks.add(message.sender)
            self._maybe_close(message.instance)

    def _on_decide(self, message: Decide | Decides) -> None:
        entries = message.entries
        for instance, value in entries:
            self._learn(instance, value)
        instances = tuple(instance for instance, _ in entries)
        ack = (DecideAcks(self.pid, instances) if len(instances) > 1
               else DecideAck(self.pid, *instances))
        # With persistence the ack waits for the one sync that covers
        # every entry (``_learn`` buffered them): an acked decide is
        # never retransmitted, so an ack for an entry that then
        # evaporated in a crash would leave the recovered log with a
        # permanent hole.
        self._when_durable((), lambda: self.send(message.sender, ack))

    def _on_decide_ack(self, message: DecideAck | DecideAcks) -> None:
        for instance in message.instances:
            acks = self._decide_acks.get(instance)
            if acks is not None:
                acks.add(message.sender)
