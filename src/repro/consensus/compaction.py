"""Log compaction and snapshot transfer for the replicated log.

A long-lived replicated log cannot keep every entry forever.
:class:`CompactingReplica` extends :class:`~repro.consensus.replica.LogReplica`
with the standard production mechanism:

* the replica applies its committed prefix to an embedded
  :class:`~repro.consensus.statemachine.StateMachine` as instances
  commit;
* once the committed prefix outgrows ``keep_tail`` retained entries, the
  older entries (log, acceptor state, decision bookkeeping) are
  discarded — the machine state *is* their summary;
* a peer that still needs a discarded entry receives a
  :class:`SnapshotOffer` instead: the sender's current machine snapshot,
  its commit index, and the applied command-id set (so exactly-once
  semantics survive the transfer).  Offers are retransmitted until
  acknowledged, like every other message here.

Safety around leader change (the subtle part)
---------------------------------------------
A new leader's ``Prepare(from_instance)`` asks acceptors to report what
they accepted from ``from_instance`` on; gaps in the merged report are
filled with no-ops.  An acceptor that compacted instances at or above
``from_instance`` can no longer report them — answering anyway could let
a *decided* value be overwritten by a no-op.  A compacting acceptor
therefore **withholds its promise** when ``from_instance`` falls below
its compaction floor and sends a :class:`SnapshotOffer` instead; the
laggard installs the snapshot (its commit index jumps past the floor)
and restarts its prepare from the new frontier.  Promise quorums thus
consist only of acceptors whose reports are complete above
``from_instance``, and the usual quorum-intersection argument goes
through: any decided instance at or above ``from_instance`` is
uncompacted at every quorum member (compaction only ever covers the
committed prefix, and their floors are at most ``from_instance``), so
its value is reported and re-proposed.

Checking compacted runs
-----------------------
``committed_prefix()`` is meaningless once entries are gone, so
:func:`check_compacting_log` replaces the prefix comparison: machine
snapshots must agree wherever commit indexes agree, retained entries
must agree pairwise on overlaps, and retained commands must come from
the submitted set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable

from repro.consensus.messages import Prepare
from repro.consensus.replica import LogReplica, entry_commands
from repro.consensus.statemachine import StateMachine
from repro.sim.engine import Simulation
from repro.sim.messages import Message
from repro.sim.network import Network

__all__ = [
    "SnapshotOffer",
    "SnapshotAck",
    "CompactingReplica",
    "CompactingLogReport",
    "check_compacting_log",
]


@dataclass(frozen=True, slots=True)
class SnapshotOffer(Message):
    """State transfer: the sender's machine state through ``through``.

    ``applied_ids`` carries the command ids folded into the state so the
    receiver keeps deduplicating retried commands after installation.
    """

    through: int
    state: Any
    applied_ids: tuple[Hashable, ...]


@dataclass(frozen=True, slots=True)
class SnapshotAck(Message):
    """Acknowledgement of a :class:`SnapshotOffer`."""

    through: int


class CompactingReplica(LogReplica):
    """A log replica with an embedded state machine and log compaction.

    Parameters
    ----------
    machine_factory:
        Builds this replica's state machine (each replica owns one).
    keep_tail:
        Number of most recent committed entries retained in the log;
        older entries are compacted away.  Must be positive — the tail
        lets slightly-lagging peers catch up through ordinary ``Decide``
        traffic without a full snapshot.
    snapshot_retry:
        Minimum interval between snapshot offers to the same debtor
        (snapshots are bulky; a crashed debtor should not be showered
        with one per tick).
    """

    HANDLERS = {**LogReplica.HANDLERS, SnapshotOffer: "_on_snapshot_offer",
                SnapshotAck: "_on_snapshot_ack"}

    def __init__(self, pid: int, sim: Simulation, network: Network, n: int,
                 leader_of: Callable[[], int],
                 machine_factory: Callable[[], StateMachine],
                 keep_tail: int = 32, snapshot_retry: float = 2.5,
                 config=None) -> None:  # noqa: ANN001
        super().__init__(pid, sim, network, n, leader_of, config)
        if keep_tail < 1:
            raise ValueError("keep_tail must be positive")
        if snapshot_retry <= 0:
            raise ValueError("snapshot_retry must be positive")
        self.machine = machine_factory()
        self.keep_tail = keep_tail
        self.snapshot_retry = snapshot_retry
        self._last_offer: dict[int, float] = {}
        self.compact_floor = 0          # log[i] for i < floor is discarded
        self.applied_ids: set[Hashable] = set()
        self._applied_through = -1
        self._snapshot_debtors: set[int] = set()
        self.snapshots_installed = 0
        self.snapshots_sent = 0

    # ------------------------------------------------------------------
    # State machine application (on commit)
    # ------------------------------------------------------------------

    def _learn(self, instance: int, value: Any) -> None:
        super()._learn(instance, value)
        self._apply_committed()

    def _apply_committed(self) -> None:
        while self._applied_through < self.commit_index:
            self._applied_through += 1
            entry = self.log.get(self._applied_through)
            for command_id, command in entry_commands(entry):
                if command_id in self.applied_ids:
                    continue
                self.applied_ids.add(command_id)
                self.machine.apply(command)

    def machine_snapshot(self) -> Any:
        """The embedded machine's state (entries applied on commit)."""
        return self.machine.snapshot()

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def _pass(self) -> None:
        super()._pass()
        self._maybe_compact()
        self._offer_snapshots()

    def _maybe_compact(self) -> None:
        new_floor = self.commit_index - self.keep_tail + 1
        if new_floor <= self.compact_floor:
            return
        for instance in range(self.compact_floor, new_floor):
            self.log.pop(instance, None)
            self.accepted.pop(instance, None)
            self.decision_times.pop(instance, None)
            acks = self._decide_acks.pop(instance, None)
            if acks is not None and len(acks) < self.n:
                # Peers that never acknowledged this decision can no
                # longer be served the entry: they owe us a snapshot.
                self._snapshot_debtors |= {
                    peer for peer in range(self.n)
                    if peer != self.pid and peer not in acks}
        self.compact_floor = new_floor

    def _offer_snapshots(self) -> None:
        if not self._snapshot_debtors:
            return
        due = [peer for peer in self._snapshot_debtors
               if self.now - self._last_offer.get(peer, -1e18)
               >= self.snapshot_retry]
        if not due:
            return
        offer = SnapshotOffer(self.pid, self.commit_index,
                              self.machine_snapshot(),
                              tuple(sorted(self.applied_ids, key=repr)))
        for peer in due:
            self.send(peer, offer)
            self._last_offer[peer] = self.now
            self.snapshots_sent += 1

    # ------------------------------------------------------------------
    # Messages
    # ------------------------------------------------------------------

    def _on_snapshot_ack(self, message: SnapshotAck) -> None:
        if message.through >= self.compact_floor - 1:
            self._snapshot_debtors.discard(message.sender)

    def _on_snapshot_offer(self, message: SnapshotOffer) -> None:
        if message.through > self.commit_index:
            self._install_snapshot(message)
        self.send(message.sender, SnapshotAck(self.pid, message.through))

    def _install_snapshot(self, message: SnapshotOffer) -> None:
        self.machine.restore(message.state)
        self.applied_ids = set(message.applied_ids)
        self.committed_ids |= set(message.applied_ids)
        for command_id in message.applied_ids:
            self.pending.pop(command_id, None)
        for instance in list(self.log):
            if instance <= message.through:
                del self.log[instance]
        for instance in list(self.accepted):
            if instance <= message.through:
                del self.accepted[instance]
        for instance in list(self._decide_acks):
            if instance <= message.through:
                del self._decide_acks[instance]
        self.commit_index = message.through
        self._applied_through = message.through
        self.compact_floor = message.through + 1
        self.snapshots_installed += 1
        # Entries decided above the snapshot may already be in the log;
        # re-extend the committed prefix over them.
        while self.commit_index + 1 in self.log:
            self.commit_index += 1
        self._apply_committed()
        # Any in-flight prepare of ours covered instances the snapshot
        # superseded; restart from the new frontier.
        self._step_down("snapshot")

    # --- prepare handling with a floor ---------------------------------

    def _on_prepare(self, message: Prepare) -> None:
        if message.from_instance < self.compact_floor:
            # Our report would be incomplete (see module docstring):
            # withhold the promise, ship state instead.  The preparer
            # installs it and re-prepares from its new commit frontier.
            offer = SnapshotOffer(self.pid, self.commit_index,
                                  self.machine_snapshot(),
                                  tuple(sorted(self.applied_ids, key=repr)))
            self.send(message.sender, offer)
            self.snapshots_sent += 1
            return
        super()._on_prepare(message)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def retained_entries(self) -> dict[int, Any]:
        """Committed entries still present in the log (≥ the floor)."""
        return {instance: value for instance, value in self.log.items()
                if instance <= self.commit_index}

    def log_size(self) -> int:
        """Number of log entries currently held (committed or open)."""
        return len(self.log)


@dataclass(frozen=True)
class CompactingLogReport:
    """Verdict for a run of compacting replicas."""

    correct: tuple[int, ...]
    agreement: bool
    validity: bool
    commit_index_by_pid: dict[int, int]
    floor_by_pid: dict[int, int]
    divergences: tuple[str, ...]

    @property
    def max_commit(self) -> int:
        """Highest commit index across correct replicas."""
        if not self.commit_index_by_pid:
            return -1
        return max(self.commit_index_by_pid.values())


def check_compacting_log(system, submitted: set[Any]) -> CompactingLogReport:  # noqa: ANN001
    """Safety verdict for a finished compacting-replica run.

    Agreement checks (the compaction-aware analogue of prefix
    comparison): replicas with equal commit indexes must hold equal
    machine snapshots, and retained entries must agree on every overlap.
    Validity: every retained command payload was submitted.
    """
    correct = tuple(system.up_pids())
    replicas: dict[int, CompactingReplica] = {}
    for pid in system.pids:
        replica = system.node(pid).agreement
        if not isinstance(replica, CompactingReplica):
            raise TypeError(f"node {pid} does not run a compacting replica")
        replicas[pid] = replica

    divergences: list[str] = []
    valid = True
    for pid, replica in replicas.items():
        for instance, entry in replica.retained_entries().items():
            for _, command in entry_commands(entry):
                if command not in submitted:
                    valid = False

    pids = sorted(replicas)
    for left_index, left in enumerate(pids):
        for right in pids[left_index + 1:]:
            a, b = replicas[left], replicas[right]
            if (a.commit_index == b.commit_index
                    and a.machine_snapshot() != b.machine_snapshot()):
                divergences.append(
                    f"replicas {left} and {right} disagree at commit "
                    f"{a.commit_index}")
            overlap_a = a.retained_entries()
            overlap_b = b.retained_entries()
            for instance in overlap_a.keys() & overlap_b.keys():
                if overlap_a[instance] != overlap_b[instance]:
                    divergences.append(
                        f"entry {instance} differs between {left} and {right}")

    return CompactingLogReport(
        correct=correct,
        agreement=not divergences,
        validity=valid,
        commit_index_by_pid={pid: replicas[pid].commit_index
                             for pid in pids},
        floor_by_pid={pid: replicas[pid].compact_floor for pid in pids},
        divergences=tuple(divergences),
    )
