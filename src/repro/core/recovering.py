"""Crash-recovery Omega: accusation counters that survive restarts.

:class:`RecoveringOmega` extends the communication-efficient algorithm
(:mod:`repro.core.comm_efficient`) to the crash-recovery model of the
Larrea line of leader-election papers: a process may crash, lose all
volatile state, and later come back as a fresh incarnation.  Three
ingredients make the accusation-counter mechanism survive that:

1. **Persist before you announce.**  The ``(counter, phase)`` pair is
   the process's priority; it is written to
   :class:`~repro.sim.storage.StableStorage` and the *visible* values
   (the ones heartbeats broadcast and ``priority()`` compares) advance
   only when the write commits.  Every value a peer has ever heard is
   therefore durable, so a restart can never roll the broadcast history
   backward — which would let a recovered process outrank peers' memory
   of it and wedge the election with two everlasting leaders.

2. **A recovery penalty.**  On :meth:`on_recover`, the process reloads
   its durable pair and bumps both by one.  The bump covers whatever
   increments were buffered but unsynced at crash time and charges a
   price for instability: a process that keeps bouncing keeps worsening
   its own priority, so the stable processes eventually outrank it —
   the crash-recovery analogue of the counter-boundedness argument.

3. **A durable epoch.**  The incarnation count is persisted alongside,
   so checkers and reports can observe a monotone epoch number across
   restarts even when the in-memory incarnation resets with the harness.

Volatile views (peers' counters and phases, adaptive timeouts) are
rebuilt from live traffic after recovery; the phase bump makes every
accusation still in flight against the previous incarnation stale.

Corrupted storage (a checksum failure on read) is treated as a missing
value: the process restarts from the default with the same penalty
applied, trading a slower re-demotion for availability.
"""

from __future__ import annotations

from repro.core.comm_efficient import CommEfficientOmega
from repro.core.config import AdaptiveTimeouts
from repro.core.messages import Accusation
from repro.core.omega import _HEARTBEAT
from repro.sim.storage import StableStorage, StorageError

__all__ = ["RecoveringOmega"]

_K_COUNTER = "counter"
_K_PHASE = "phase"
_K_EPOCH = "epoch"


class RecoveringOmega(CommEfficientOmega):
    """Communication-efficient Omega for the crash-recovery model.

    Parameters
    ----------
    pid, sim, network, config:
        As for :class:`~repro.core.source_omega.SourceOmega`.
    sync_latency:
        Seconds a stable-storage sync takes; the window in which a crash
        loses buffered writes (covered by the recovery penalty).
    """

    def __init__(self, pid, sim, network, config=None,  # noqa: ANN001
                 sync_latency: float = 0.02) -> None:
        super().__init__(pid, sim, network, config)
        self.attach_storage(StableStorage(pid, sim, hub=network.hub,
                                          sync_latency=sync_latency))
        self.epoch = 0
        self.recoveries = 0
        self.corrupt_reads = 0
        # Targets include increments whose sync is still in flight; the
        # visible counter/phase lag behind until the commit applies them.
        self._counter_target = 0
        self._phase_target = 0

    def on_start(self) -> None:
        super().on_start()
        self._persist()  # establish the durable epoch-0 record

    # ------------------------------------------------------------------
    # Persist-before-announce accusation handling
    # ------------------------------------------------------------------

    def _on_accusation(self, message: Accusation) -> None:
        if message.target != self.pid:
            return
        self.accusations_received += 1
        if (self.config.phase_tagged_accusations
                and message.phase != self.phase):
            self.stale_accusations += 1
            return
        self._counter_target += 1
        self._phase_target += 1
        counter, phase = self._counter_target, self._phase_target
        storage = self.storage
        storage.put(_K_COUNTER, counter)
        storage.put(_K_PHASE, phase)
        storage.put(_K_EPOCH, self.epoch)
        incarnation = self.incarnation

        def apply() -> None:
            if self.incarnation != incarnation:
                return  # committed into a life that has since ended
            self.counter = max(self.counter, counter)
            self.phase = max(self.phase, phase)

        storage.sync(on_durable=apply)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def on_recover(self) -> None:
        self.recoveries += 1
        self.counter = self._read(_K_COUNTER) + 1
        self.phase = self._read(_K_PHASE) + 1
        self.epoch = self._read(_K_EPOCH) + 1
        self._counter_target = self.counter
        self._phase_target = self.phase
        self._persist()
        # Volatile views died with the old incarnation; rebuild from
        # live traffic, starting from fresh adaptive timeouts.
        self.counters.clear()
        self.phases.clear()
        self.timeouts = AdaptiveTimeouts(self.config)
        self._output(self.pid)
        self.set_periodic(_HEARTBEAT, self.config.eta)
        self._heartbeat()

    def _persist(self) -> None:
        storage = self.storage
        storage.put(_K_COUNTER, self.counter)
        storage.put(_K_PHASE, self.phase)
        storage.put(_K_EPOCH, self.epoch)
        storage.sync()

    def _read(self, key: str, default: int = 0) -> int:
        try:
            return self.storage.get(key, default)
        except StorageError:
            self.corrupt_reads += 1
            return default
