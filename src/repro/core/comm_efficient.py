"""Communication-efficient Omega — the paper's headline algorithm (R2).

Identical bookkeeping to :class:`~repro.core.source_omega.SourceOmega`
(accusation counters as priority, adoption on receipt, demotion on
timeout, phase-tagged accusations), with one change that is the entire
point of the paper:

    **only a process that currently trusts itself sends heartbeats.**

Run in the eventually-timely-source system (``source_links``), this makes
the protocol *communication-efficient*: there is a time after which only
one process — the elected leader — sends messages, i.e. only its ``n-1``
output links ever carry traffic again.

Why efficiency and correctness still hold:

* Every process starts as its own leader, so initially everyone sends —
  candidates discover each other and the usual priority race runs.
* A process that adopts a better candidate goes silent.  Its only future
  sends are accusations, and those cease: after GST the final leader's
  heartbeats are timely and each watcher's timeout eventually outgrows
  η + δ, so watchers stop suspecting it forever.
* Duelling candidates always resolve: both broadcast, each eventually
  receives the other's ``Alive`` over at worst a fair-lossy link
  (heartbeats of a persistent candidate are sent infinitely often, so
  fairness guarantees infinitely many get through), and the worse
  priority yields.
* A candidate that keeps being genuinely untimely to some watcher is
  accused over and over; fairness delivers infinitely many accusations,
  its counter grows past the source's bounded counter, and it loses
  every future duel.  The source's counter is bounded exactly as in the
  basic algorithm.

The experiments show the flip side (R6): in a system with only an
◇f-source (f < n−1), a lone sender's heartbeats do *not* timely-reach
every watcher, accusations never stop, and either stability or
efficiency is lost — communication efficiency genuinely needs the
stronger ◇(n−1)-source synchrony (bench E7).
"""

from __future__ import annotations

from repro.core.source_omega import SourceOmega

__all__ = ["CommEfficientOmega"]


class CommEfficientOmega(SourceOmega):
    """Omega where eventually only the leader sends messages.

    A process that does not trust itself also holds no heartbeat timer:
    its η tick stops (:meth:`~repro.core.omega.OmegaProtocol._silence`)
    and resumes on the same grid when it promotes itself, so a follower's
    steady state is one watch deadline moved per received ``Alive``.
    """

    def _sends_heartbeat(self) -> bool:
        return self.leader() == self.pid
