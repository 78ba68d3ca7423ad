"""Configuration shared by the Omega algorithms.

The algorithms of the paper are parameterized by two local constants —
the heartbeat period ``η`` and an initial timeout — plus a rule for
growing a timeout after a false suspicion.  Growth on false suspicion is
the standard partial-synchrony device: because the real (unknown) bound
``δ`` exists, a timeout that grows without bound is eventually large
enough, after which suspicions of a timely peer cease forever.

:class:`AdaptiveTimeouts` packages the per-peer timeout table used by all
four algorithms; the growth policy (additive, as in the literature's
pseudocode, or multiplicative) is an ablation axis of experiment E10.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["OmegaConfig", "AdaptiveTimeouts"]

GROWTH_POLICIES = ("additive", "multiplicative")

# The multiplicative policy's factor per false suspicion.
GROWTH_FACTOR = 1.5


@dataclass(frozen=True)
class OmegaConfig:
    """Tunables of an Omega implementation.

    Attributes
    ----------
    eta:
        Heartbeat period η: leaders/processes send every ``eta``.
    initial_timeout:
        Starting value of every per-peer timeout.  Must exceed ``eta``
        or every heartbeat gap is a suspicion.
    growth_policy:
        ``"additive"`` (timeout += ``growth_step``; the pseudocode's
        ``Timeout[q] + 1``) or ``"multiplicative"`` (timeout *=
        ``GROWTH_FACTOR``), applied on every false suspicion.
    growth_step:
        Additive increment.
    phase_tagged_accusations:
        Whether accusations carry the phase of the heartbeat whose
        timeout triggered them, letting the accused discard stale blame
        (ablation E10; the reconstruction argues this guard is needed for
        counter boundedness under message reordering).
    adaptive_qos:
        Master switch for the adaptive degradation layer
        (:mod:`repro.core.adaptive`, docs/DEGRADATION.md).  Off by
        default: the static algorithms are bit-for-bit unchanged unless
        a run opts in; its constants live in that module.
    """

    eta: float = 0.5
    initial_timeout: float = 2.0
    growth_policy: str = "additive"
    growth_step: float = 0.5
    phase_tagged_accusations: bool = True
    adaptive_qos: bool = False

    def __post_init__(self) -> None:
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.initial_timeout <= self.eta:
            raise ValueError("initial_timeout must exceed eta")
        if self.growth_policy not in GROWTH_POLICIES:
            raise ValueError(f"growth_policy must be one of {GROWTH_POLICIES}")
        if self.growth_step <= 0:
            raise ValueError("growth_step must be positive")


@dataclass
class AdaptiveTimeouts:
    """Per-peer timeout table with configured growth on false suspicion."""

    config: OmegaConfig
    _table: dict[int, float] = field(default_factory=dict)

    def get(self, peer: int) -> float:
        """Current timeout for ``peer``."""
        return self._table.get(peer, self.config.initial_timeout)

    def grow(self, peer: int) -> float:
        """Record a (possibly false) suspicion of ``peer``; return new timeout."""
        current = self.get(peer)
        if self.config.growth_policy == "additive":
            grown = current + self.config.growth_step
        else:
            grown = current * GROWTH_FACTOR
        self._table[peer] = grown
        return grown

    def raise_to(self, peer: int, floor: float) -> float:
        """Ensure ``peer``'s timeout is at least ``floor``; return it."""
        current = self.get(peer)
        if floor > current:
            self._table[peer] = floor
            return floor
        return current
