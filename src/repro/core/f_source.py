"""Omega with only an eventual f-source — the paper's weak-synchrony result (R3).

System (``f_source_links``): some unknown correct process has ◇timely
output links to just ``f`` peers (``f`` = the maximum number of crashes,
targets fixed but unknown and possibly faulty); *every* other link is
merely typed fair-lossy.  This is drastically weaker than the
eventually-timely-source system — and the paper's matching lower bound
(R4) says one fewer timely link makes Omega unimplementable.

The self-managed accusation counter of R1/R2 breaks here: watchers
behind non-timely links would accuse the source forever and its counter
would grow without bound.  The fix is to make suspicion *globally
confirmed* before it counts:

* Every process heartbeats ``FsAlive(counters)`` every η to everyone,
  gossiping its whole counter vector (max-merged by receivers — counters
  are monotone, so views converge over fair-lossy links).
* Every process watches every peer with an adaptive timeout.  On
  expiry for peer ``q`` it broadcasts ``Suspect(q, epoch)`` where
  ``epoch = counter[q]`` in its current view, re-arms the watch, and
  keeps going — a crashed peer must keep being suspected forever.
* ``counter[q]`` advances from ``k`` to ``k+1`` at a process only once
  it has seen ``n - f`` **distinct** suspectors of epoch ``(q, k)``.
* The output is simply ``min((counter[q], q))`` over all processes.

Why the quorum ``n - f`` is exactly right (the load-bearing constant —
ablated in E10, lower bound demonstrated in E6):

* **Source bounded.**  Consider any epoch of the source ``s`` that
  starts after GST, after all crashes have happened, and after the
  timeouts of ``s``'s ``f`` timely targets outgrew η + δ.  Suspectors of
  that epoch can only be processes then alive that are not timely
  targets of ``s``.  With ``c`` of the targets crashed and ``k ≥ c``
  crashes in total, that is ``(n - k) - 1 - (f - c) ≤ n - 1 - f < n - f``
  — the quorum can never be met, so ``counter[s]`` freezes.
* **Crashed processes unbounded.**  After a crash, *all* live processes
  — at least ``n - f`` of them — time out on the silent process in every
  one of its epochs, so its counter grows forever and it eventually
  ranks below every bounded-counter process in every view.
* **Agreement.**  Counters are monotone and gossiped; bounded ones reach
  the same final value everywhere, unbounded ones eventually exceed any
  bound in every view, so all correct outputs converge to the same
  minimum — a correct process, since the source is a correct process
  with a bounded counter.

With a quorum of ``n - f`` but only ``f - 1`` timely links (R4), the
``n - f`` processes behind non-timely links meet the quorum by
themselves infinitely often and the would-be source's counter never
stabilizes — leadership flaps forever, which is what bench E6 shows.

This algorithm is deliberately *not* communication-efficient (everyone
heartbeats and gossips forever); per R6, that is unavoidable at this
level of synchrony.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

from repro.core.config import OmegaConfig
from repro.core.messages import FsAlive, Suspect
from repro.core.omega import OmegaProtocol
from repro.sim.messages import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulation
    from repro.sim.network import Network

__all__ = ["FSourceOmega"]

_HEARTBEAT = "heartbeat"


class FSourceOmega(OmegaProtocol):
    """Omega via quorum-confirmed suspicion counters.

    Parameters
    ----------
    n:
        Total number of processes (pids ``0..n-1``).
    f:
        Maximum number of crashes the run may contain; the suspicion
        quorum is ``n - f``.  Requires ``1 <= f < n``.
    quorum_override:
        Test/ablation hook: use this quorum instead of ``n - f``.
    """

    def __init__(self, pid: int, sim: Simulation, network: Network,
                 config: OmegaConfig | None = None, n: int = 0, f: int = 1,
                 quorum_override: int | None = None) -> None:
        super().__init__(pid, sim, network, config)
        if n < 2:
            raise ValueError("n must be at least 2")
        if not 1 <= f < n:
            raise ValueError("f must satisfy 1 <= f < n")
        self.n = n
        self.f = f
        self.quorum = quorum_override if quorum_override is not None else n - f
        if self.quorum < 1:
            raise ValueError("quorum must be at least 1")
        self.counters = [0] * n
        self._suspectors: dict[tuple[int, int], set[int]] = {}

    def on_start(self) -> None:
        super().on_start()
        self.set_periodic(_HEARTBEAT, self.config.eta)
        self.broadcast(FsAlive(self.pid, tuple(self.counters)))
        for peer in range(self.n):
            if peer != self.pid:
                self.set_timer(("watch", peer), self.timeouts.get(peer))
        self._recompute()

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    def on_timer(self, key: Hashable) -> None:
        if key == _HEARTBEAT:
            self.broadcast(FsAlive(self.pid, tuple(self.counters)))
            return
        kind, peer = key
        if kind != "watch":  # pragma: no cover - no other timers exist
            return
        # Silent peer: broadcast a suspicion of its current epoch, grow
        # the timeout, and keep watching — crashed peers must accumulate
        # suspicions forever, that is what unseats them.
        self.timeouts.grow(peer)
        epoch = self.counters[peer]
        self._note_suspicion(self.pid, peer, epoch)
        self.broadcast(Suspect(self.pid, peer, epoch))
        self.set_timer(("watch", peer), self.timeouts.get(peer))

    def on_message(self, message: Message) -> None:
        peer = message.sender
        # Any message is proof of life: refresh the sender's watch.
        self.set_timer(("watch", peer), self.timeouts.get(peer))
        if isinstance(message, FsAlive):
            self._merge(message.counters)
        elif isinstance(message, Suspect):
            self._note_suspicion(peer, message.target, message.epoch)
        self._recompute()

    # ------------------------------------------------------------------
    # Counter machinery
    # ------------------------------------------------------------------

    def _merge(self, remote: tuple[int, ...]) -> None:
        for target in range(self.n):
            if remote[target] > self.counters[target]:
                self.counters[target] = remote[target]
                self._prune(target)

    def _note_suspicion(self, suspector: int, target: int, epoch: int) -> None:
        if epoch > self.counters[target]:
            # The suspector's view is ahead of ours; its epoch value is
            # itself valid gossip (counters are monotone).
            self.counters[target] = epoch
            self._prune(target)
        if epoch < self.counters[target]:
            return  # stale suspicion of an already-advanced epoch
        key = (target, epoch)
        suspectors = self._suspectors.setdefault(key, set())
        suspectors.add(suspector)
        if len(suspectors) >= self.quorum:
            self.counters[target] = epoch + 1
            self._prune(target)

    def _prune(self, target: int) -> None:
        current = self.counters[target]
        stale = [key for key in self._suspectors
                 if key[0] == target and key[1] < current]
        for key in stale:
            del self._suspectors[key]

    def _recompute(self) -> None:
        self._output(min(range(self.n), key=lambda q: (self.counters[q], q)))

    # ------------------------------------------------------------------
    # Introspection used by experiments
    # ------------------------------------------------------------------

    def counter_of(self, pid: int) -> int:
        """This process's current view of ``counter[pid]``."""
        return self.counters[pid]
