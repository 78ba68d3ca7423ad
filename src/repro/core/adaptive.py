"""Adaptive QoS layer: per-link quality estimation and graceful degradation.

Every Omega variant in this repository keeps one *static* policy per
peer: a timeout that only ever grows (the partial-synchrony device of
:class:`~repro.core.config.AdaptiveTimeouts`) and a heartbeat sent every
η to everyone.  Under hostile links — the degrade/flap/duplicate storms
the nemesis injects — that combination flaps: late heartbeats trigger
suspicions, suspicions trigger accusations and leadership changes, and
every new candidate starts broadcasting, multiplying the packets the
degraded network must carry exactly when it can least afford them.

This module adds the missing control loop, assembled from three pieces
that mirror the observer-side :class:`~repro.obs.timeliness.TimelinessInspector`
but run *inside* the protocol, on information a process legitimately has:

:class:`LinkQualityEstimator`
    An EWMA of heartbeat inter-arrival gaps per peer.  A leader beats
    every η, so the gap itself is the quality signal: a gap EWMA near η
    means the link behaves timely; multiples of η mean delay or loss.
    Classification uses the inspector's vocabulary (``timely`` /
    ``degraded`` / ``bad`` / ``insufficient-data``).

:class:`BackoffPolicy`
    Bounded-exponential scaling of watch timeouts: each suspicion of a
    peer raises its backoff level (capped), each sustained streak of
    timely heartbeats decays it.  Unlike the monotone
    ``AdaptiveTimeouts`` table this *recovers*: after the storm passes,
    detection latency returns toward the static behaviour.

:class:`AdaptiveController`
    The per-process facade protocols talk to.  Besides estimation and
    backoff it implements the degradation mode: when a peer keeps
    accusing us (the only per-peer signal a quiet comm-efficient leader
    receives about its *outgoing* link), heartbeats to that peer are
    batched — one message carrying a ``lease`` of several η periods
    replaces ``lease`` individual sends, and the receiver extends its
    watch accordingly.  Fewer, slightly larger packets at unchanged
    agreement QoS; the lease is bounded so messages stay bounded.

All state is per-process, deterministic, and driven only by simulated
time and received messages — no wall clock, no randomness.  Everything
is gated behind ``OmegaConfig.adaptive_qos`` (default off), so the
static algorithms are bit-for-bit unchanged unless asked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import OmegaConfig

__all__ = ["LinkQualityEstimator", "BackoffPolicy", "AdaptiveController"]

# Classification labels, shared with repro.obs.timeliness.
TIMELY = "timely"
DEGRADED = "degraded"
BAD = "bad"
INSUFFICIENT = "insufficient-data"

# Gaps are measured between heartbeats of the *same* peer; fewer than
# this many gaps is not enough signal to call a link anything.
_MIN_GAPS = 3

# The layer's constants; docs/DEGRADATION.md gives the reason for each.
EWMA_ALPHA = 0.3        # weight of the newest gap in the per-link EWMA
DEGRADE_RATIO = 2.0     # smoothed gap / η above which a link is degraded
BAD_RATIO = 4.0         # ... and above which it is bad
BACKOFF_BASE = 2.0      # watch-timeout scale per suspicion level
BACKOFF_CAP = 8.0       # most the backoff (and the gap stretch) may scale
RELAX_STREAK = 5        # timely heartbeats that decay one backoff level
GAP_MARGIN = 3.0        # watch at least this many estimated gaps
BATCH_LIMIT = 4         # most η periods one leased heartbeat covers
PRESSURE_DECAY = 5.0    # quiet seconds that decay one batching level


@dataclass
class LinkQualityEstimator:
    """EWMA of per-peer heartbeat inter-arrival gaps, with classification."""

    config: OmegaConfig
    _last_seen: dict[int, float] = field(default_factory=dict)
    _ewma: dict[int, float] = field(default_factory=dict)
    _gaps: dict[int, int] = field(default_factory=dict)

    def observe(self, peer: int, now: float) -> None:
        """Record a heartbeat arrival from ``peer`` at ``now``."""
        last = self._last_seen.get(peer)
        self._last_seen[peer] = now
        if last is None:
            return
        gap = now - last
        previous = self._ewma.get(peer)
        alpha = EWMA_ALPHA
        self._ewma[peer] = (gap if previous is None
                            else previous + alpha * (gap - previous))
        self._gaps[peer] = self._gaps.get(peer, 0) + 1

    def gap(self, peer: int) -> float | None:
        """Smoothed inter-arrival gap for ``peer`` (None before any gap)."""
        return self._ewma.get(peer)

    def classify(self, peer: int) -> str:
        """Timeliness class of the incoming link from ``peer``.

        The ratio of the smoothed gap to the heartbeat period η plays
        the role the observer-side inspector gives to measured delays:
        near 1 is timely, a few multiples is degraded (delay, moderate
        loss), beyond that the link is effectively down.
        """
        if self._gaps.get(peer, 0) < _MIN_GAPS:
            return INSUFFICIENT
        ratio = self._ewma[peer] / self.config.eta
        if ratio <= DEGRADE_RATIO:
            return TIMELY
        if ratio <= BAD_RATIO:
            return DEGRADED
        return BAD


@dataclass
class BackoffPolicy:
    """Bounded-exponential timeout backoff with decay on recovery."""

    _level: dict[int, int] = field(default_factory=dict)
    _streak: dict[int, int] = field(default_factory=dict)

    def suspect(self, peer: int) -> None:
        """A watch on ``peer`` expired: raise its backoff level (bounded)."""
        level = self._level.get(peer, 0) + 1
        if BACKOFF_BASE ** level > BACKOFF_CAP:
            level -= 1
        self._level[peer] = level
        self._streak[peer] = 0

    def relax(self, peer: int) -> None:
        """A timely heartbeat from ``peer``: decay after a sustained streak."""
        level = self._level.get(peer, 0)
        if level == 0:
            return
        streak = self._streak.get(peer, 0) + 1
        if streak >= RELAX_STREAK:
            self._level[peer] = level - 1
            self._streak[peer] = 0
        else:
            self._streak[peer] = streak

    def level(self, peer: int) -> int:
        """Current backoff level of ``peer``."""
        return self._level.get(peer, 0)

    def scale(self, peer: int) -> float:
        """Multiplier applied to ``peer``'s watch timeout (1 when calm)."""
        level = self._level.get(peer, 0)
        if level == 0:
            return 1.0
        return min(BACKOFF_CAP, BACKOFF_BASE ** level)


class AdaptiveController:
    """Per-process adaptive QoS: estimation, backoff, heartbeat batching.

    One controller lives on each process running in adaptive mode; the
    protocol feeds it arrivals, suspicions and accusations, and asks it
    two questions: *how long should I watch this leader* and *should I
    send this peer a heartbeat this tick (and covering how many
    periods)*.
    """

    def __init__(self, config: OmegaConfig) -> None:
        self.config = config
        self.estimator = LinkQualityEstimator(config)
        self.backoff = BackoffPolicy()
        # Outgoing-link pressure: accusations received per peer, with
        # lazy time decay.  (peer -> (level, last_accusation_time))
        self._pressure: dict[int, tuple[int, float]] = {}
        # Per-peer countdown of η-ticks already covered by a lease.
        self._skip: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Incoming-link signals
    # ------------------------------------------------------------------

    def observe_heartbeat(self, peer: int, now: float) -> None:
        """Feed a heartbeat arrival into the estimator and the backoff."""
        self.estimator.observe(peer, now)
        if self.estimator.classify(peer) == TIMELY:
            self.backoff.relax(peer)

    def suspicion(self, peer: int) -> None:
        """The watch on ``peer`` expired."""
        self.backoff.suspect(peer)

    def watch_delay(self, peer: int, base: float, lease: int = 1) -> float:
        """How long to watch ``peer`` before suspecting it.

        ``base`` is the static adaptive-timeout value; the controller
        stretches it by the estimated gap (bounded by the backoff cap so
        a wild estimate cannot disable detection), scales it by the
        bounded-exponential backoff, and adds the periods an announced
        heartbeat lease legitimately covers.
        """
        gap = self.estimator.gap(peer)
        if gap is not None:
            estimated = min(gap * GAP_MARGIN, base * BACKOFF_CAP)
            base = max(base, estimated)
        extra = (lease - 1) * self.config.eta if lease > 1 else 0.0
        return base * self.backoff.scale(peer) + extra

    # ------------------------------------------------------------------
    # Outgoing-link degradation mode
    # ------------------------------------------------------------------

    def accused_by(self, peer: int, now: float) -> None:
        """``peer`` reported our heartbeat late: raise batching pressure.

        An accusation is evidence the outgoing link to ``peer`` is
        degraded (our beats arrive late or not at all).  Responding by
        beating *harder* would feed the storm; instead the degradation
        mode coalesces several periods into one leased heartbeat.
        """
        level = self._decayed_pressure(peer, now) + 1
        limit = max(0, BATCH_LIMIT.bit_length() - 1)
        self._pressure[peer] = (min(level, limit), now)

    def lease(self, peer: int, now: float) -> int:
        """Periods one heartbeat to ``peer`` should cover (1 = no batching)."""
        return min(BATCH_LIMIT, 2 ** self._decayed_pressure(peer, now))

    def next_send(self, peer: int, now: float) -> int:
        """Lease for this η-tick's heartbeat to ``peer``; 0 = skip the tick.

        Called once per peer per heartbeat tick.  When a lease of ``k``
        is granted, the following ``k - 1`` ticks for that peer return 0
        — the wire carries one packet where the static mode carries
        ``k``.
        """
        remaining = self._skip.get(peer, 0)
        if remaining > 0:
            self._skip[peer] = remaining - 1
            return 0
        lease = self.lease(peer, now)
        if lease > 1:
            self._skip[peer] = lease - 1
        return lease

    def _decayed_pressure(self, peer: int, now: float) -> int:
        entry = self._pressure.get(peer)
        if entry is None:
            return 0
        level, last = entry
        quiet = max(0.0, now - last)
        return max(0, level - int(quiet // PRESSURE_DECAY))
