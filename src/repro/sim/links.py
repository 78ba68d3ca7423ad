"""Per-link synchrony and reliability models.

The paper's results are parameterized by *which links* satisfy *which*
timeliness/loss property.  This module implements the four link types of
the model (Section 1.1 of DESIGN.md) as :class:`LinkPolicy` objects.  A
policy decides, per message, whether the message is delivered and with
what delay; all randomness comes from the per-link stream handed in by
the network, so runs are reproducible.

The four models
---------------
:class:`TimelyLink`
    Every message is delivered within ``delta``.

:class:`EventuallyTimelyLink`
    Before the (unknown to the algorithms) Global Stabilization Time
    ``gst``, messages may be lost or delayed arbitrarily; any message
    sent at ``t >= gst`` is delivered by ``t + delta``.

:class:`FairLossyLink`
    Typed fairness: if infinitely many messages of a type are sent,
    infinitely many of that type are delivered.  Realized in finite runs
    by bounding *consecutive* drops per ``(link, fairness_key)`` on top
    of base random loss.  Delay is finite but has no small bound.

:class:`LossyAsyncLink`
    May lose an arbitrary number of messages (possibly all, with
    ``loss=1.0``); delivered messages take a finite but unbounded delay.

A policy object is a link *law*, not a link: one instance serves every
link that obeys it.  The network names the link being crossed with an
opaque ``link`` token, and the only per-link state there is — the
fair-lossy drop streaks — is keyed by it, so the topology builders hand
out one instance per law per map (see :mod:`repro.sim.topology`).  A
direct caller that leaves ``link`` at ``None`` gets "this object serves
one link".

Link faults (loss and delay storms, flapping, duplication, netem
shapes, partitions) do not replace a pair's law: the nemesis
(:mod:`repro.sim.nemesis`) wraps it in a
:class:`~repro.sim.nemesis.PerturbedLink` that plans through the faults
open on that pair, with the meaning the live backend gives them too.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Collection, Hashable

from repro.sim.messages import Message

__all__ = [
    "LinkPolicy",
    "TimelyLink",
    "EventuallyTimelyLink",
    "FairLossyLink",
    "LossyAsyncLink",
    "DeadLink",
]


class LinkPolicy(ABC):
    """Decides the fate of each message crossing a unidirectional link.

    One instance may serve many links: ``link`` is an opaque hashable
    token naming the link being crossed (the network passes one int per
    ordered pair), and any per-link state must be keyed by it.
    """

    @abstractmethod
    def plan(self, message: Message, now: float, rng: random.Random,
             link: Hashable = None) -> float | None:
        """Return the delivery delay for ``message``, or None to drop it."""

    def plan_all(self, message: Message, now: float, rng: random.Random,
                 link: Hashable = None) -> list[float]:
        """Delivery delays for every copy of ``message`` (empty = dropped).

        The base models deliver at most one copy, so the default defers
        to :meth:`plan`.  A link under faults that duplicate messages
        (:class:`~repro.sim.nemesis.PerturbedLink`) overrides this.
        """
        delay = self.plan(message, now, rng, link)
        return [] if delay is None else [delay]

    def plan_many(self, message: Message, now: float,
                  rngs: Collection[random.Random],
                  links: Collection[Hashable]) -> list[float | None]:
        """One :meth:`plan` per ``(rng, link)``, in order, as one call.

        This is how the network plans a whole fan-out over links that
        share this policy.  Overrides exist only to hoist what is
        constant per fan-out out of the loop: they must make the same
        draws from the same streams in the same order as this default.
        ``rngs`` and ``links`` may be lazy: read their length and
        iterate them once each, never index them.
        """
        return [self.plan(message, now, rng, link)
                for rng, link in zip(rngs, links)]

    @abstractmethod
    def describe(self) -> str:
        """Short human-readable description for traces and reports."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}: {self.describe()}>"


def _uniform_delay(rng: random.Random, lo: float, hi: float) -> float:
    if hi < lo:
        raise ValueError(f"delay bounds reversed: [{lo}, {hi}]")
    if hi == lo:
        return lo
    # Random.uniform's own expression, minus its frame (once per copy).
    return lo + (hi - lo) * rng.random()


def _uniform_delays(rngs: Collection[random.Random], lo: float,
                    hi: float) -> list[float | None]:
    """``[_uniform_delay(rng, lo, hi) for rng in rngs]``, bounds checked once."""
    if hi < lo:
        raise ValueError(f"delay bounds reversed: [{lo}, {hi}]")
    if hi == lo:
        return [lo] * len(rngs)
    span = hi - lo
    return [lo + span * rng.random() for rng in rngs]


class TimelyLink(LinkPolicy):
    """A link that always delivers within ``delta``.

    Parameters
    ----------
    delta:
        Upper bound on message delay.
    min_delay:
        Lower bound on message delay (physical propagation floor).
    """

    def __init__(self, delta: float = 0.05, min_delay: float = 0.001) -> None:
        if delta <= 0:
            raise ValueError("delta must be positive")
        if not 0 <= min_delay <= delta:
            raise ValueError("min_delay must lie in [0, delta]")
        self.delta = delta
        self.min_delay = min_delay

    def plan(self, message: Message, now: float, rng: random.Random,
             link: Hashable = None) -> float | None:
        return _uniform_delay(rng, self.min_delay, self.delta)

    def plan_many(self, message: Message, now: float,
                  rngs: Collection[random.Random],
                  links: Collection[Hashable]) -> list[float | None]:
        return _uniform_delays(rngs, self.min_delay, self.delta)

    def describe(self) -> str:
        return f"timely(delta={self.delta})"


class EventuallyTimelyLink(LinkPolicy):
    """A link that becomes timely after the global stabilization time.

    Parameters
    ----------
    gst:
        Global stabilization time T.  Unknown to the algorithms — only
        the substrate sees it.
    delta:
        Post-GST delay bound.
    min_delay:
        Physical propagation floor.
    pre_gst_loss:
        Probability that a message sent before GST is lost.
    pre_gst_delay_max:
        Maximum delay of pre-GST messages that are not lost (the model
        requires each message to be *eventually* lost or delivered, so
        pre-GST delays are finite but can far exceed ``delta``).
    """

    def __init__(
        self,
        gst: float = 10.0,
        delta: float = 0.05,
        min_delay: float = 0.001,
        pre_gst_loss: float = 0.5,
        pre_gst_delay_max: float = 5.0,
    ) -> None:
        if delta <= 0:
            raise ValueError("delta must be positive")
        if not 0 <= pre_gst_loss <= 1:
            raise ValueError("pre_gst_loss must be a probability")
        self.gst = gst
        self.delta = delta
        self.min_delay = min_delay
        self.pre_gst_loss = pre_gst_loss
        self.pre_gst_delay_max = max(pre_gst_delay_max, delta)

    def plan(self, message: Message, now: float, rng: random.Random,
             link: Hashable = None) -> float | None:
        if now >= self.gst:
            return _uniform_delay(rng, self.min_delay, self.delta)
        if rng.random() < self.pre_gst_loss:
            return None
        return _uniform_delay(rng, self.min_delay, self.pre_gst_delay_max)

    def plan_many(self, message: Message, now: float,
                  rngs: Collection[random.Random],
                  links: Collection[Hashable]) -> list[float | None]:
        if now >= self.gst:
            return _uniform_delays(rngs, self.min_delay, self.delta)
        return super().plan_many(message, now, rngs, links)

    def describe(self) -> str:
        return f"eventually-timely(gst={self.gst}, delta={self.delta})"


class FairLossyLink(LinkPolicy):
    """A typed fair-lossy link.

    On top of base random ``loss``, fairness is *enforced*: after
    ``max_consecutive_drops`` consecutive drops of one fairness type, the
    next message of that type is delivered.  In an infinite run this
    yields exactly the paper's guarantee — infinitely many sends of a
    type imply infinitely many deliveries of it — while staying honest in
    finite experiments (a plain Bernoulli loss already satisfies the
    property almost surely, but offers no per-run guarantee).

    Delay of delivered messages is uniform in ``[min_delay, delay_max]``;
    ``delay_max`` may be large — fair-lossy links promise no timeliness.
    The model in fact allows unbounded (finite) delays and unbounded
    silences; the lower-bound experiments (E6, E7 in DESIGN.md) rely on
    realizing those honestly to show which algorithms genuinely need
    timely links rather than merely benefiting from a benign simulator.

    Two adversaries can be layered on top for that purpose, both legal
    fair-lossy behaviours:

    * ``delay_growth_rate`` — a *lag* adversary: the delay ceiling grows
      linearly with time.  Note that with independent per-message delays
      this preserves the arrival *rate* (messages pipeline), so it does
      not by itself starve heartbeat timeouts.
    * ``outage_period`` / ``outage_growth`` — a *gap* adversary: the
      link alternates fixed-length pass windows with outages whose
      length grows linearly (outage k lasts ``k * outage_growth``).
      Messages sent during an outage are held until it ends.  Gaps grow
      without bound, defeating any timeout scheme — exactly the
      unbounded silences the model permits — while the fixed pass
      windows keep delivering infinitely often.
    """

    def __init__(
        self,
        loss: float = 0.3,
        max_consecutive_drops: int = 10,
        delay_max: float = 1.0,
        min_delay: float = 0.001,
        delay_growth_rate: float = 0.0,
        outage_period: float = 0.0,
        outage_growth: float = 0.0,
    ) -> None:
        if not 0 <= loss <= 1:
            raise ValueError("loss must be a probability")
        if max_consecutive_drops < 0:
            raise ValueError("max_consecutive_drops must be >= 0")
        if delay_growth_rate < 0:
            raise ValueError("delay_growth_rate must be >= 0")
        if (outage_period > 0) != (outage_growth > 0):
            raise ValueError("outage_period and outage_growth go together")
        if outage_period < 0 or outage_growth < 0:
            raise ValueError("outage parameters must be >= 0")
        self.loss = loss
        self.max_consecutive_drops = max_consecutive_drops
        self.delay_max = delay_max
        self.min_delay = min_delay
        self.delay_growth_rate = delay_growth_rate
        self.outage_period = outage_period
        self.outage_growth = outage_growth
        # Current drop streak per ``(link, fairness_key)``; a delivery
        # deletes the entry, so the table holds only streaks in progress.
        self._drops_in_a_row: dict[tuple[Hashable, Hashable], int] = {}
        # Outage schedule cursor: cycle k is a pass window of length
        # ``outage_period`` followed by an outage of length
        # ``k * outage_growth``.  ``plan`` is called with nondecreasing
        # ``now``, so a simple advancing cursor suffices — and the hold
        # is a function of ``now`` alone, so every link served by this
        # instance shares the one cursor.
        self._cycle = 0
        self._pass_start = 0.0

    def _outage_hold(self, now: float) -> float:
        """Extra delay if ``now`` falls inside an outage window."""
        if self.outage_period <= 0:
            return 0.0
        while True:
            outage_start = self._pass_start + self.outage_period
            outage_len = (self._cycle + 1) * self.outage_growth
            outage_end = outage_start + outage_len
            if now < outage_start:
                return 0.0  # inside the pass window
            if now < outage_end:
                return outage_end - now  # held until the outage lifts
            self._cycle += 1
            self._pass_start = outage_end

    def plan(self, message: Message, now: float, rng: random.Random,
             link: Hashable = None) -> float | None:
        key = (link, message.fairness_key())
        streaks = self._drops_in_a_row
        streak = streaks.get(key, 0)
        must_deliver = streak >= self.max_consecutive_drops
        if not must_deliver and rng.random() < self.loss:
            streaks[key] = streak + 1
            return None
        if streak:
            del streaks[key]
        ceiling = self.delay_max + self.delay_growth_rate * now
        return self._outage_hold(now) + _uniform_delay(rng, self.min_delay,
                                                       ceiling)

    def plan_many(self, message: Message, now: float,
                  rngs: Collection[random.Random],
                  links: Collection[Hashable]) -> list[float | None]:
        fairness_key = message.fairness_key()
        streaks = self._drops_in_a_row
        limit = self.max_consecutive_drops
        loss = self.loss
        lo = self.min_delay
        ceiling = self.delay_max + self.delay_growth_rate * now
        hold = self._outage_hold(now)
        delays: list[float | None] = []
        for rng, link in zip(rngs, links):
            key = (link, fairness_key)
            streak = streaks.get(key, 0)
            if streak < limit and rng.random() < loss:
                streaks[key] = streak + 1
                delays.append(None)
                continue
            if streak:
                del streaks[key]
            delays.append(hold + _uniform_delay(rng, lo, ceiling))
        return delays

    def describe(self) -> str:
        return (f"fair-lossy(loss={self.loss}, "
                f"max_consecutive_drops={self.max_consecutive_drops})")


class LossyAsyncLink(LinkPolicy):
    """A lossy asynchronous link: unbounded loss, unbounded (finite) delay."""

    def __init__(
        self,
        loss: float = 0.5,
        delay_max: float = 5.0,
        min_delay: float = 0.001,
    ) -> None:
        if not 0 <= loss <= 1:
            raise ValueError("loss must be a probability")
        self.loss = loss
        self.delay_max = delay_max
        self.min_delay = min_delay

    def plan(self, message: Message, now: float, rng: random.Random,
             link: Hashable = None) -> float | None:
        if rng.random() < self.loss:
            return None
        return _uniform_delay(rng, self.min_delay, self.delay_max)

    def describe(self) -> str:
        return f"lossy-async(loss={self.loss})"


class DeadLink(LossyAsyncLink):
    """A link that drops everything — the worst legal lossy-async link."""

    def __init__(self) -> None:
        super().__init__(loss=1.0)

    def describe(self) -> str:
        return "dead"
