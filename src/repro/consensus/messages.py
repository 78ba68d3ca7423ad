"""Wire messages of the consensus layer.

The consensus algorithms are ballot-based (Paxos-style): safety comes
from quorum intersection over ballots, liveness from the Omega module
eventually pointing every process at the same correct proposer.  Because
links may be merely fair-lossy, **every** message here is retransmitted
by its sender until the corresponding acknowledgement arrives; handlers
are idempotent, and the class-level fairness type guarantees that a
message retransmitted forever on a fair-lossy link is delivered.

Single-decree messages carry the ``instance`` they belong to: the same
acceptor code (:class:`repro.consensus.paxos.Acceptor`) serves the
repeated-consensus replica.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, NamedTuple

from repro.sim.messages import Message

__all__ = [
    "Ballot",
    "BOTTOM_BALLOT",
    "Prepare",
    "Promise",
    "Propose",
    "Accepted",
    "Nack",
    "Decide",
    "DecideAck",
    "Forward",
    "Forwards",
    "Decides",
]


class Ballot(NamedTuple):
    """A totally ordered ballot number: ``(round, proposer pid)``."""

    round: int
    proposer: int


BOTTOM_BALLOT = Ballot(-1, -1)
"""Sorts below every real ballot; the initial promise of an acceptor."""


@dataclass(frozen=True, slots=True)
class Prepare(Message):
    """Phase-1a: ``sender`` asks for promises for ``ballot``.

    In the replicated log the prepare covers *all* instances at or above
    ``from_instance`` (multi-Paxos leader takeover); single-decree uses
    ``from_instance = 0``.
    """

    ballot: Ballot
    from_instance: int


@dataclass(frozen=True, slots=True)
class Promise(Message):
    """Phase-1b: acceptor promises ``ballot`` and reports what it accepted.

    ``accepted`` maps instance -> (ballot, value) for every instance at
    or above the prepare's ``from_instance`` with a non-⊥ accepted value.
    ``commit_through`` is the sender's watermark (see :class:`DecideAck`),
    so a new log leader knows what each promiser holds.
    """

    ballot: Ballot
    from_instance: int
    accepted: tuple[tuple[int, tuple[Ballot, Any]], ...]
    commit_through: int = -1


@dataclass(frozen=True, slots=True)
class Propose(Message):
    """Phase-2a: accept request for ``value`` in ``instance`` at ``ballot``.

    ``commit_through`` piggybacks the sender's highest contiguous decided
    instance, letting followers learn decisions without separate traffic
    (the replicated log's steady state stays on leader-adjacent links).
    """

    ballot: Ballot
    instance: int
    value: Any
    commit_through: int


@dataclass(frozen=True, slots=True)
class Accepted(Message):
    """Phase-2b: acceptor accepted ``instance`` at ``ballot``.

    ``commit_through`` is the sender's watermark (see :class:`DecideAck`),
    counting what the accepted ``Propose``'s own piggyback taught it.
    """

    ballot: Ballot
    instance: int
    commit_through: int = -1


@dataclass(frozen=True, slots=True)
class Nack(Message):
    """Rejection of a prepare/propose: the acceptor already promised higher.

    ``promised`` lets the rejected proposer jump its next ballot past it.
    """

    ballot: Ballot
    instance: int
    promised: Ballot


@dataclass(frozen=True, slots=True)
class Decide(Message):
    """Decision announcement for ``instance``; resent until the
    receiver's watermark covers it."""

    instance: int
    value: Any

    @property
    def entries(self) -> tuple[tuple[int, Any], ...]:
        """The one-entry case of :attr:`Decides.entries`."""
        return ((self.instance, self.value),)


@dataclass(frozen=True, slots=True)
class DecideAck(Message):
    """Cumulative acknowledgement: the sender's *watermark*.

    ``commit_through`` is the sender's highest contiguous decided
    instance (its ``commit_index``; ``-1`` for none), so one ack answers
    every :class:`Decide` or :class:`Decides` below it.  With
    persistence a watermark never runs ahead of the durable log.
    """

    commit_through: int


@dataclass(frozen=True, slots=True)
class Forward(Message):
    """Client command forwarded to the process its sender believes leads.

    ``command_id`` deduplicates at-least-once forwarding in the log.
    """

    command_id: Hashable
    command: Any

    @property
    def commands(self) -> tuple[tuple[Any, Any], ...]:
        """The one-entry case of :attr:`Forwards.commands`."""
        return ((self.command_id, self.command),)


# The replicated log's driver sends each peer at most one message of a
# kind per pass.  A pass with a single entry sends the plain class above
# (low-rate schedules stay bit-identical, as with ``Batch`` slots); more
# entries travel in the plural form, which handlers read through the
# same ``commands`` / ``entries`` attribute.


@dataclass(frozen=True, slots=True)
class Forwards(Message):
    """A sender's pending ``(command_id, command)`` pairs in one message."""

    commands: tuple[tuple[Any, Any], ...]


@dataclass(frozen=True, slots=True)
class Decides(Message):
    """Decided ``(instance, value)`` pairs one pass has for one peer."""

    entries: tuple[tuple[int, Any], ...]
