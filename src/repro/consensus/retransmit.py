"""Retransmission pacing of the ``persist=True`` consensus stacks.

A crash-recovery peer may stay down for minutes, so the driver backs
off toward a silent peer — but **once per driver pass**, never once per
message (docs/RECOVERY.md has the contract and its bounds).
"""

from __future__ import annotations

from repro.consensus.config import ConsensusConfig

__all__ = ["RetransmitGate"]


class RetransmitGate:
    """Per-peer bounded exponential backoff, decided once per pass.

    ``sent`` / ``gated`` count the messages admitted and suppressed over
    the owner's lifetime (they survive :meth:`forget`).
    """

    __slots__ = ("_tick", "_cap", "_retry_at", "_interval", "_verdicts",
                 "sent", "gated")

    def __init__(self, config: ConsensusConfig) -> None:
        self._tick = config.tick
        self._cap = config.backoff_cap
        self._retry_at: dict[int, float] = {}
        self._interval: dict[int, float] = {}
        # Pass state, not re-derived from the clock: a live clock moves
        # between two sends of one pass.
        self._verdicts: dict[int, bool] = {}
        self.sent = self.gated = 0

    def begin_pass(self, heard: int | None = None) -> None:
        """Open a driver pass (a timer fire or a delivery; storage
        callbacks continue the pass before them).  A message from
        ``heard`` triggered it: a sign of life resets that backoff."""
        self._verdicts.clear()
        if heard is not None and self._interval:
            self._retry_at.pop(heard, None)
            self._interval.pop(heard, None)

    def admits(self, peer: int, now: float) -> bool:
        """Whether this pass sends to ``peer``: asked first, a due peer's
        interval doubles (up to the cap); the answer holds all pass."""
        verdict = self._verdicts.get(peer)
        if verdict is None:
            verdict = now >= self._retry_at.get(peer, 0.0)
            if verdict:
                interval = self._interval.get(peer, self._tick)
                self._retry_at[peer] = now + interval
                self._interval[peer] = min(2 * interval, self._cap)
            self._verdicts[peer] = verdict
        if verdict:
            self.sent += 1
        else:
            self.gated += 1
        return verdict

    def forget(self) -> None:
        """Drop every backoff: a recovered incarnation starts afresh."""
        self._retry_at.clear()
        self._interval.clear()
