"""Packet-efficient Omega: bounded heartbeats, candidate silence.

Reconstruction of the premise of Bramas/Foreback/Nesterenko/Tixeuil,
*Packet Efficient Implementation of the Omega Failure Detector*
(arXiv:1505.05025; PAPERS.md carries only the abstract, so this is a
documented reconstruction, not a transcription).  Their observation: an
algorithm can be *message*-efficient yet not *packet*-efficient — the
accusation-counter heartbeat ``Alive(counter, phase)`` of R1/R2 grows
without bound, so as counters climb, one "message" costs ever more
bounded-size packets.  A packet-efficient algorithm must keep every
message's size bounded **and** eventually have only the leader send.

This variant achieves both under the stronger synchrony the bounded
budget demands — **every** link eventually timely (the ``all-et``
system, as for :class:`~repro.core.all_timely.AllTimelyOmega`):

* The only message is :class:`~repro.core.messages.Beat`, whose fields
  are bounded for the whole run (``sender`` plus a lease capped by
  ``BATCH_LIMIT``): wire size is constant, so packets ≡ messages.
* **Candidate rule** (communication efficiency): a process beats iff it
  currently trusts itself.  Initially everyone does; adopting a
  smaller-id candidate silences a process, so candidates thin out until
  only the smallest-id correct process beats — eventually exactly
  ``n - 1`` links carry (bounded) packets.
* **Min-id adoption with adaptive watch**: on a beat from ``q``, adopt
  ``q`` iff ``q ≤ leader`` (equality just refreshes the watch).  When
  the watch expires, grow the suspect's timeout
  (:class:`~repro.core.config.AdaptiveTimeouts`) and self-promote —
  *no accusation is sent*: suspicion is local, so no unbounded counter
  ever crosses the wire.

Why Omega holds (all links ◇timely, crash-stop): after GST the beats of
the smallest-id correct candidate ``r`` reach everyone within δ.  Each
false suspicion of ``r`` grows the watcher's timeout, so each watcher
falsely suspects ``r`` finitely often; after the last false suspicion
every process adopts ``r`` on ``r``'s next beat and never leaves — and
``r`` itself can never adopt anyone (adoption requires a smaller id).
Larger-id candidates fall silent on adopting ``r``; a crashed leader
stops beating, its watchers' timers fire once more, and they promote
themselves until ``r``'s beats re-silence them.

Why the *weaker* systems are out of reach for this rule: in the ◇source
system a small-id non-source process is only fair-lossy-connected, so
its silences are unbounded and min-id flaps forever — that is exactly
the job the unbounded accusation counters of R1/R2 do.  Bounded packets
buy graceful accounting; they cost link synchrony.

With ``OmegaConfig.adaptive_qos`` the variant plugs into the adaptive
degradation layer (:mod:`repro.core.adaptive`).  Receiver side, the
watch stretches with the estimated heartbeat gap and backs off
exponentially (bounded, decaying on recovery).  Sender side there is no
per-link feedback at all — suspicion is local, so a stable leader hears
*nothing* — hence batching ramps with leadership **tenure**: the longer
a leader has been unchallenged, the longer the lease its beats
announce, up to ``BATCH_LIMIT`` periods per beat.  Steady state thus
costs up to ``BATCH_LIMIT`` times fewer packets, and receivers extend
their watch by the announced lease so detection QoS degrades only by
the bounded lease, never silently.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.adaptive import BATCH_LIMIT, AdaptiveController
from repro.core.messages import Beat
from repro.core.omega import _HEARTBEAT, OmegaProtocol

from repro.sim.messages import Message

__all__ = ["PacketEfficientOmega"]

_WATCH = "watch"

# Adaptive mode: η-ticks of unchallenged leadership per extra lease
# level.  At the default η = 0.5 the lease reaches ``BATCH_LIMIT``
# after BATCH_LIMIT · 10 s of stable tenure.
_TENURE_TICKS = 20


class PacketEfficientOmega(OmegaProtocol):
    """Omega from bounded beats: min-id adoption, candidates-only send."""

    def __init__(self, pid, sim, network, config=None):  # noqa: ANN001
        super().__init__(pid, sim, network, config)
        self.adaptive = (AdaptiveController(self.config)
                         if self.config.adaptive_qos else None)
        self._lease: dict[int, int] = {}
        self._tenure = 0  # consecutive ticks spent trusting ourselves
        self._skip = 0    # ticks still covered by the last leased beat

    def on_start(self) -> None:
        super().on_start()
        self.set_periodic(_HEARTBEAT, self.config.eta)
        self._beat()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def _beat(self) -> None:
        if self.leader() != self.pid:
            # Not a candidate: stay silent (communication efficiency).
            # Only the η tick gets here — the direct calls follow a
            # self-promotion — so the cycle can stop until the next one.
            self._tenure = 0
            self._skip = 0
            self._silence()
            return
        if self.adaptive is None:
            self.broadcast(Beat(self.pid))
            return
        # Tenure-based batching: a leader nobody has displaced for a
        # while announces ever longer leases (bounded), skipping the
        # covered ticks — steady state sends up to BATCH_LIMIT× fewer
        # packets.
        self._tenure += 1
        if self._skip > 0:
            self._skip -= 1
            return
        lease = min(BATCH_LIMIT, 1 + self._tenure // _TENURE_TICKS)
        self._skip = lease - 1
        self.broadcast(Beat(self.pid, lease))

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    def on_timer(self, key: Hashable) -> None:
        if key == _HEARTBEAT:
            self._beat()
            return
        if key == _WATCH:
            self._leader_timed_out()

    def on_message(self, message: Message) -> None:
        if not isinstance(message, Beat):
            return
        peer = message.sender
        if self.adaptive is not None:
            self.adaptive.observe_heartbeat(peer, self.now)
            self._lease[peer] = message.lease
        if peer <= self.leader():
            # Smaller id wins; equality refreshes the watch on the
            # current leader (the pseudocode's "reset timer").
            self._adopt(peer)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _adopt(self, peer: int) -> None:
        self._output(peer)
        base = self.timeouts.get(peer)
        if self.adaptive is None:
            self.set_timer(_WATCH, base)
        else:
            self.set_timer(_WATCH, self.adaptive.watch_delay(
                peer, base, self._lease.get(peer, 1)))

    def _leader_timed_out(self) -> None:
        suspect = self.leader()
        if suspect == self.pid:  # pragma: no cover - watch only runs on others
            return
        # Suspicion is local: grow the timeout (so a false suspicion is
        # not repeated at the same silence) and promote ourselves.  No
        # accusation crosses the wire — the packet budget stays bounded.
        self.timeouts.grow(suspect)
        if self.adaptive is not None:
            self.adaptive.suspicion(suspect)
        self._output(self.pid)
        self._beat()  # announce candidacy now rather than next tick
