"""Wire messages of the Omega algorithms.

Four message classes cover the whole leader-election layer:

:class:`Heartbeat`
    The baseline's unconditional I-am-alive beacon.

:class:`Alive`
    Candidate heartbeat carrying the sender's *accusation counter* (its
    leadership priority — smaller is better) and its current *phase*
    (incremented with the counter so stale accusations can be told apart).

:class:`Accusation`
    "Your heartbeat timed out on me", sent to the suspected leader,
    echoing the phase of the last ``Alive`` the accuser saw.  On a
    matching phase the accused increments its own counter.

:class:`FsAlive` / :class:`Suspect`
    The ◇f-source algorithm's heartbeat (gossiping the full counter
    vector, max-merged by receivers) and its broadcast suspicion notice
    ("I timed out on ``target`` during its epoch ``epoch``"); counters
    advance only when ``n - f`` distinct suspectors of the same epoch
    are observed.

:class:`Beat`
    The packet-efficient algorithm's heartbeat: *bounded* fields only —
    no accusation counter — so its wire size never grows with run
    length (the whole point of packet accounting; see
    docs/DEGRADATION.md).  The optional ``lease`` announces how many η
    periods this beat covers when the adaptive degradation mode batches.

:class:`BatchedAlive`
    An :class:`Alive` carrying a ``lease``: the adaptive degradation
    mode's fewer-but-larger heartbeat for degraded links.  Receivers
    treat it exactly like ``Alive`` plus a watch extension.

All are frozen dataclasses; the default fairness type (the class name)
is the right granularity for the typed fair-lossy links — each protocol
sends each class on a given link infinitely often whenever it matters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.messages import Message

__all__ = ["Heartbeat", "Alive", "BatchedAlive", "Accusation", "FsAlive",
           "Suspect", "Beat"]


@dataclass(frozen=True, slots=True)
class Heartbeat(Message):
    """Plain heartbeat of the all-timely baseline."""


@dataclass(frozen=True, slots=True)
class Alive(Message):
    """Leader-candidate heartbeat with priority and phase.

    Attributes
    ----------
    counter:
        The sender's accusation counter; ``(counter, sender)`` is its
        leadership priority, smallest wins.
    phase:
        The sender's accusation phase; accusations must echo it to count.
    """

    counter: int
    phase: int


@dataclass(frozen=True, slots=True)
class BatchedAlive(Alive):
    """An ``Alive`` whose sender will stay quiet for ``lease`` periods.

    Attributes
    ----------
    lease:
        How many η heartbeat periods this message covers.  The receiver
        extends its watch on the sender by ``(lease - 1) · η`` so the
        announced silence is not mistaken for a failure.
    """

    lease: int = 1


@dataclass(frozen=True, slots=True)
class Accusation(Message):
    """Timeout report sent to the process whose heartbeat went silent.

    Attributes
    ----------
    target:
        The accused process (also the message's destination; carried in
        the payload so handlers need not trust routing).
    phase:
        Phase of the last ``Alive`` the accuser received from the target.
    """

    target: int
    phase: int


@dataclass(frozen=True, slots=True)
class FsAlive(Message):
    """◇f-source algorithm heartbeat gossiping the counter vector.

    Attributes
    ----------
    counters:
        The sender's current view of every process's accusation counter,
        indexed by pid.  Receivers max-merge componentwise (counters are
        monotone, so the merge converges).
    """

    counters: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class Beat(Message):
    """Bounded-size heartbeat of the packet-efficient algorithm.

    Attributes
    ----------
    lease:
        How many η periods this beat covers (1 outside the adaptive
        degradation mode).  Bounded by :data:`repro.core.adaptive.BATCH_LIMIT`, so
        unlike ``Alive`` the message never grows: every ``Beat`` fits a
        constant number of packets for the whole run.
    """

    lease: int = 1


@dataclass(frozen=True, slots=True)
class Suspect(Message):
    """Broadcast suspicion for the quorum-confirmed counters of R3.

    Attributes
    ----------
    target:
        The suspected process.
    epoch:
        The suspecting process's current value of ``counter[target]``;
        a counter only advances past ``epoch`` once ``n - f`` distinct
        processes have suspected that same epoch.
    """

    target: int
    epoch: int
