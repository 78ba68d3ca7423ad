"""Omega with an eventually timely source — the paper's R1 algorithm.

System (DESIGN.md §1, ``source_links``): some unknown correct process has
◇timely *output* links to everyone; every other link is only (typed)
fair-lossy.  No process knows which one is the source.

Mechanism — *accusation counters as leadership priority*:

* Every process ``p`` broadcasts ``Alive(p, counter_p, phase_p)`` every η
  (this basic variant is deliberately not communication-efficient; the
  subclass in :mod:`repro.core.comm_efficient` restricts who sends).
* ``(counter_p, p)`` is ``p``'s priority — lexicographically smallest
  wins.  Receivers remember the latest counter of each candidate and
  *adopt* the best candidate they hear from; the current leader is
  monitored with an adaptive timeout.
* When the watch timer on the adopted leader ``q`` expires, the watcher
  sends ``Accusation(q, phase_q)`` to ``q``, grows its timeout for ``q``,
  and promotes itself.  If ``q`` receives an accusation matching its
  *current* phase, it increments its counter and phase — its priority
  permanently worsens.  Phase tagging makes stale accusations (sent
  before the last increment, or duplicated in flight) harmless.

Why this implements Omega in the source system:

* **The source's counter is bounded.**  After GST its heartbeats reach
  every process within δ.  Each accuser's timeout for the source grows
  on every false suspicion, so each accuses finitely often; phases make
  each accusation count at most once.
* **Counters of crashed processes freeze, but crashed processes are
  never re-adopted**: adoption happens only on *receipt* of an ``Alive``,
  and the crashed stay silent.  A watcher stuck on a crashed leader
  times out and self-promotes.
* **Counters are owner-authoritative**: only ``q`` increments
  ``counter_q`` and everyone learns it from ``q``'s own heartbeats, so
  all processes converge to the same final values and hence the same
  minimum.  If some non-source process ends up with the smallest stable
  counter, electing it is equally valid — its counter being stable means
  it stopped being suspected forever.
* **Liveness of demotion** relies on the fair-lossy return path: a
  watcher that keeps timing out on ``q`` re-adopts and re-accuses ``q``
  forever, so infinitely many ``Accusation`` messages cross the (typed
  fair-lossy) link and infinitely many arrive — ``counter_q`` grows
  without bound and ``q`` eventually ranks below the source everywhere.
"""

from __future__ import annotations

from typing import Collection, Hashable

from repro.core.adaptive import AdaptiveController
from repro.core.messages import Accusation, Alive, BatchedAlive
from repro.core.omega import _HEARTBEAT, OmegaProtocol

from repro.sim.messages import Message

__all__ = ["SourceOmega"]

_WATCH = "watch"


class SourceOmega(OmegaProtocol):
    """Accusation-counter Omega; every process heartbeats forever.

    With ``OmegaConfig.adaptive_qos`` the adaptive degradation layer
    (:mod:`repro.core.adaptive`, docs/DEGRADATION.md) is active: watch
    timeouts stretch with the estimated heartbeat gap and back off
    exponentially (bounded, decaying on recovery), and heartbeats to
    peers that keep accusing us — the sender-side evidence of a
    degraded outgoing link — are batched into leased
    :class:`~repro.core.messages.BatchedAlive` messages covering
    several η periods.  Off by default; the static algorithm is
    bit-for-bit unchanged.
    """

    def __init__(self, pid, sim, network, config=None):  # noqa: ANN001
        super().__init__(pid, sim, network, config)
        self.counter = 0
        self.phase = 0
        self.counters: dict[int, int] = {}
        self.phases: dict[int, int] = {}
        self.accusations_received = 0
        self.stale_accusations = 0
        self.adaptive = (AdaptiveController(self.config)
                         if self.config.adaptive_qos else None)
        self._lease: dict[int, int] = {}
        # Per peer, when it was last sent a stamp since the last beat,
        # and which one.
        self._stamped: dict[int, tuple[float, tuple[int, int]]] = {}

    def on_start(self) -> None:
        super().on_start()
        self.set_periodic(_HEARTBEAT, self.config.eta)
        self._heartbeat()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def _sends_heartbeat(self) -> bool:
        """Whether this process beats this η-tick; the basic variant always does."""
        return True

    def _heartbeat(self) -> None:
        if self.adaptive is None:
            alive = Alive(self.pid, self.counter, self.phase)
            covered = self._covered()
            if not covered:
                self.broadcast(alive)
                return
            for dst in self.network.pids:
                if dst != self.pid and dst not in covered:
                    self.send(dst, alive)
            return
        # Adaptive degradation mode: per-peer batching.  A peer whose
        # accusations keep arriving is behind a degraded outgoing link;
        # beating it harder feeds the storm, so its heartbeats coalesce
        # into one leased message covering several periods (the receiver
        # extends its watch by the announced lease).
        now = self.now
        for dst in self.network.pids:
            if dst == self.pid:
                continue
            lease = self.adaptive.next_send(dst, now)
            if lease == 0:
                continue
            if lease == 1:
                self.send(dst, Alive(self.pid, self.counter, self.phase))
            else:
                self.send(dst, BatchedAlive(self.pid, self.counter,
                                            self.phase, lease))

    def _covered(self) -> Collection[int]:
        """The peers sent a stamp equal to the current ``(counter,
        phase)`` since the last beat and within the last η, window ends
        included.  The stamps are then forgotten: each covers one beat."""
        if not self._stamped:
            return ()
        since = self.now - self.config.eta
        current = (self.counter, self.phase)
        covered = {dst for dst, (at, stamp) in self._stamped.items()
                   if at >= since and stamp == current}
        self._stamped.clear()
        return covered

    def stamp(self, dst: int) -> tuple[int, int] | None:
        if self.adaptive is not None or self._leader != self.pid:
            return None
        stamp = (self.counter, self.phase)
        self._stamped[dst] = (self.now, stamp)
        return stamp

    def on_stamp(self, sender: int, stamp: tuple[int, int]) -> None:
        if self.adaptive is None and self._started and not self._crashed:
            self._heard(sender, *stamp)

    def on_crash(self) -> None:
        super().on_crash()
        self._stamped.clear()

    # ------------------------------------------------------------------
    # Priorities
    # ------------------------------------------------------------------

    def priority(self, pid: int) -> tuple[int, int]:
        """``(counter, id)`` of ``pid`` in this process's current view."""
        counter = self.counter if pid == self.pid else self.counters.get(pid, 0)
        return (counter, pid)

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    def on_timer(self, key: Hashable) -> None:
        if key == _HEARTBEAT:
            if self._sends_heartbeat():
                self._heartbeat()
            else:
                self._silence()
            return
        if key == _WATCH:
            self._leader_timed_out()

    def on_message(self, message: Message) -> None:
        if isinstance(message, Alive):
            self._on_alive(message)
        elif isinstance(message, Accusation):
            self._on_accusation(message)

    def _on_alive(self, message: Alive) -> None:
        peer = message.sender
        if self.adaptive is not None:
            self.adaptive.observe_heartbeat(peer, self.now)
            self._lease[peer] = (message.lease
                                 if isinstance(message, BatchedAlive) else 1)
        self._heard(peer, message.counter, message.phase)

    def _heard(self, peer: int, counter: int, phase: int) -> None:
        """``peer`` announced ``(counter, phase)``, by ``Alive`` or stamp."""
        known = self.counters.get(peer)
        if known is None or counter > known:
            self.counters[peer] = counter
        else:
            counter = known
        known = self.phases.get(peer)
        if known is None or phase > known:
            self.phases[peer] = phase
        if peer == self._leader:
            # Steady state, the pseudocode's "reset timer_p": the beat is
            # from the leader we already trust, so only the watch moves —
            # unless its counter just rose past ours.
            self._watch(peer)
            if (self.counter, self.pid) < (counter, peer):
                self._adopt(self.pid)
            return
        if (counter, peer) <= self.priority(self._leader):
            self._adopt(peer)
        if self.priority(self.pid) < self.priority(self._leader):
            # Our own priority outranks the leader's: reclaim leadership
            # locally.
            self._adopt(self.pid)

    def _on_accusation(self, message: Accusation) -> None:
        if message.target != self.pid:
            return  # misrouted; links cannot create messages, so impossible
        self.accusations_received += 1
        if self.adaptive is not None:
            # Even a stale accusation is evidence our heartbeats reach
            # this peer late: raise its batching pressure.
            self.adaptive.accused_by(message.sender, self.now)
        if self.config.phase_tagged_accusations and message.phase != self.phase:
            self.stale_accusations += 1
            return
        self.counter += 1
        self.phase += 1

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _adopt(self, peer: int) -> None:
        self._output(peer)
        if peer == self.pid:
            self.cancel_timer(_WATCH)
        else:
            self._watch(peer)

    def _watch(self, peer: int) -> None:
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
        self.timeouts.grow(suspect)
        if self.adaptive is not None:
            self.adaptive.suspicion(suspect)
        self.send(suspect, Accusation(self.pid, suspect,
                                      self.phases.get(suspect, 0)))
        self._output(self.pid)
