"""Retransmission pacing of the consensus stacks.

Two rules, applied in this order where both hold:

- :class:`RoundTripTimer` (the replicated log's leader, every run):
  an open slot's ``Propose`` goes to a peer again only once that peer's
  measured round trip has passed, not at every tick (nor at the first
  tick after a copy sent between ticks);
- :class:`RetransmitGate` (``persist=True`` only): a crash-recovery peer
  may stay down for minutes, so the driver backs off toward a silent
  peer — but **once per driver pass**, never once per message.

docs/RECOVERY.md has the contract and its bounds.
"""

from __future__ import annotations

from repro.consensus.config import BACKOFF_CAP, ConsensusConfig

__all__ = ["RetransmitGate", "RoundTripTimer"]


class RetransmitGate:
    """Per-peer bounded exponential backoff, decided once per pass.

    ``sent`` / ``gated`` count the messages admitted and suppressed over
    the owner's lifetime (they survive :meth:`forget`).
    """

    __slots__ = ("_tick", "_retry_at", "_interval", "_verdicts",
                 "sent", "gated")

    def __init__(self, config: ConsensusConfig) -> None:
        self._tick = config.tick
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
                self._interval[peer] = min(2 * interval, BACKOFF_CAP)
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


class RoundTripTimer:
    """Per-peer retransmission timeout (RTO) from measured round trips.

    The RFC 6298 estimator: ``SRTT`` / ``RTTVAR`` with gains 1/8 and
    1/4, and ``RTO = SRTT + 2 * RTTVAR`` — a variance weight of 2, not
    the RFC's 4, which held commit latency back on a saturated log
    (docs/PERFORMANCE.md).  The RTO is floored at one driver tick, so no
    peer is resent more often than at every tick, and capped at
    ``BACKOFF_CAP``; a peer with no sample yet sits at the floor.

    The floor counts ticks, not seconds: a copy is never resent in the
    tick pass that sent it, and an RTO at the floor has passed once the
    copy is a whole tick old — sent no later than the start of the
    previous tick — however early a live clock fires the current one.
    A copy sent in a tick pass is so at the next tick; one sent between
    ticks (the replicated log's idle leader proposes at once) at the
    tick after, so the next tick does not resend a copy that left just
    before it.  All state is volatile: a recovered incarnation measures
    afresh.
    """

    __slots__ = ("_floor", "_estimates", "_prev_at", "_tick_at")

    def __init__(self, config: ConsensusConfig) -> None:
        self._floor = config.tick
        self._estimates: dict[int, tuple[float, float]] = {}  # SRTT, RTTVAR
        self._prev_at = self._tick_at = float("-inf")

    def begin_tick(self, now: float) -> None:
        """Open a tick pass at ``now``: every copy sent before it is
        older than this tick, and every copy sent up to the previous
        tick's start a whole tick old."""
        self._prev_at, self._tick_at = self._tick_at, now

    def sample(self, peer: int, rtt: float) -> None:
        """Fold one round trip to ``peer`` into its estimate.  The caller
        keeps Karn's rule: no sample from a copy that was resent."""
        estimate = self._estimates.get(peer)
        if estimate is None:
            srtt, rttvar = rtt, rtt / 2
        else:
            srtt, rttvar = estimate
            rttvar = 0.75 * rttvar + 0.25 * abs(srtt - rtt)
            srtt = 0.875 * srtt + 0.125 * rtt
        self._estimates[peer] = (srtt, rttvar)

    def rto(self, peer: int) -> float:
        """``peer``'s current timeout in seconds."""
        estimate = self._estimates.get(peer)
        if estimate is None:
            return self._floor
        srtt, rttvar = estimate
        return min(max(srtt + 2 * rttvar, self._floor), BACKOFF_CAP)

    def due(self, peer: int, sent_at: float, now: float) -> bool:
        """Whether a copy sent to ``peer`` at ``sent_at`` may go again."""
        if sent_at >= self._tick_at:
            return False
        rto = self.rto(peer)
        return (rto == self._floor and sent_at <= self._prev_at) \
            or now - sent_at >= rto
