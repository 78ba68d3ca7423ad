"""Base class for Omega (eventual leader election) implementations.

An Omega module continuously outputs one process id — the process it
currently *trusts*.  The Omega property (DESIGN.md §1.2) asks that
eventually all correct processes trust the same correct process forever.

:class:`OmegaProtocol` supplies what every algorithm in this repository
needs: the configuration, the adaptive timeout table, and an exact
*output history* — every change of the trusted leader is recorded with
its simulated timestamp, so the checker can compute stabilization times
without sampling error — and, for the algorithms where only a
self-trusting process sends, the η heartbeat cycle that exists only
while the process trusts itself (:meth:`OmegaProtocol._silence`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.config import AdaptiveTimeouts, OmegaConfig
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulation
    from repro.sim.network import Network

__all__ = ["OmegaProtocol"]

# Timer key of the periodic η tick.
_HEARTBEAT = "heartbeat"


class OmegaProtocol(Process):
    """A process running an Omega failure detector.

    Subclasses drive :meth:`_output` whenever their trusted leader
    changes; the current value is exposed as :meth:`leader`.

    Parameters
    ----------
    pid, sim, network:
        As for :class:`~repro.sim.process.Process`.
    config:
        Shared tunables (heartbeat period, timeouts, growth policy).
    """

    def __init__(self, pid: int, sim: Simulation, network: Network,
                 config: OmegaConfig | None = None) -> None:
        super().__init__(pid, sim, network)
        self.config = config if config is not None else OmegaConfig()
        self.timeouts = AdaptiveTimeouts(self.config)
        self._leader: int = pid
        self.history: list[tuple[float, int]] = []
        # Next η grid point of a heartbeat cycle stopped by _silence().
        self._beat_due: float | None = None

    # ------------------------------------------------------------------
    # Omega interface
    # ------------------------------------------------------------------

    def leader(self) -> int:
        """The process this module currently trusts."""
        return self._leader

    @property
    def leader_changes(self) -> int:
        """How many times the output changed after the initial value."""
        return max(0, len(self.history) - 1)

    # ------------------------------------------------------------------
    # Subclass plumbing
    # ------------------------------------------------------------------

    def _output(self, leader: int) -> None:
        """Set the trusted leader, recording the change in the history.

        Each change is also dispatched to the network's observer hub: a
        ``leader_change`` event plus the end of the previous leadership
        ``epoch`` span and the begin of the new one, so reports can
        render leader timelines and epoch durations without sampling.
        """
        if self.history and leader == self._leader:
            return
        hub = self.network.hub
        now = self.now
        if self.history:
            hub.span_end(now, self.pid, "epoch", self._leader)
        self._leader = leader
        self.history.append((now, leader))
        hub.leader_change(now, self.pid, leader)
        hub.span_begin(now, self.pid, "epoch", leader)
        if leader == self.pid and self._beat_due is not None:
            # Promoted while silent: resume the η cycle on the grid it
            # left.  Stepping by ``+= eta`` reproduces the floats of the
            # periodic re-arm, so every beat leaves when it always did.
            due, eta = self._beat_due, self.config.eta
            while due < now:
                due += eta
            self._beat_due = None
            self.set_periodic(_HEARTBEAT, eta, first=due)

    def _silence(self) -> None:
        """Stop the heartbeat cycle of a process that does not trust itself.

        For algorithms where only a self-trusting process beats: call
        from the η tick that finds ``leader() != pid``.  A silent
        process then holds no timer besides its watch; :meth:`_output`
        restarts the cycle when it promotes the process.
        """
        self._beat_due = self.now + self.config.eta
        self.cancel_timer(_HEARTBEAT)

    def on_crash(self) -> None:
        """A crash loses the silenced cycle along with every armed timer."""
        self._beat_due = None

    def on_start(self) -> None:
        """Record the initial output; subclasses call ``super().on_start()``."""
        self.history.append((self.now, self._leader))
        hub = self.network.hub
        hub.leader_change(self.now, self.pid, self._leader)
        hub.span_begin(self.now, self.pid, "epoch", self._leader)
