"""Builders for the paper's system topologies.

Each builder returns a :class:`LinkMap`: a read-only mapping
``(src, dst) -> LinkPolicy`` over every ordered pair of distinct pids in
``range(n)``, stored the way the model describes a system — one base
law plus the pairs that differ.  ``source_links(256, 0)`` indexes,
iterates and ``len``s as 65 280 pairs but holds 255 overrides, and
``all_timely_links`` holds none; ``dict(m)`` writes the pairs out.  A
policy object is a link *law* that serves any number of links
(:mod:`repro.sim.links`), so a map holds **one instance per law**, and
two maps share nothing.  To give one pair a law of its own, ``set_link``
a new policy on the network; mutating the object a map (or
``network.link(a, b)``) hands back changes every link that shares it.
The maps realize the systems of DESIGN.md §1:

``all_timely_links``
    Every link timely from time zero — the friendliest world, used by
    unit tests and as the substrate of the baseline algorithm's claim.

``all_eventually_timely_links``
    Every link ◇timely with a common GST — the classic partial-synchrony
    system assumed by pre-paper Ω algorithms (our baseline).

``source_links``
    One designated process's *output* links are ◇timely; every other
    link is fair-lossy.  This is the system of results R1/R2
    (eventually timely source), where communication-efficient Ω lives.

``f_source_links``
    The designated process has ◇timely output links to exactly the given
    targets (``|targets| = f`` for an ◇f-source); every other link is
    fair-lossy.  System of results R3/R4.

``source_links_lossy_elsewhere``
    Like ``source_links`` but non-source links are lossy-asynchronous
    (may lose everything) — an adversarial stress used to probe which
    guarantees each algorithm actually needs.

All builders take a :class:`LinkTimings`, the bag of substrate constants
(δ, GST, loss rates).  Algorithms never see these values — per the model
they are unknown to the protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from repro.sim.links import (
    EventuallyTimelyLink,
    FairLossyLink,
    LinkPolicy,
    LossyAsyncLink,
    TimelyLink,
)
from repro.sim.network import Network

__all__ = [
    "LinkMap",
    "LinkTimings",
    "all_timely_links",
    "all_eventually_timely_links",
    "source_links",
    "multi_source_links",
    "f_source_links",
    "relay_tree_links",
    "source_links_lossy_elsewhere",
    "apply_links",
    "ordered_pairs",
]


class LinkMap(Mapping[tuple[int, int], LinkPolicy]):
    """Read-only link map: ``default`` on every ordered pair of distinct
    pids in ``range(n)``, except the pairs ``overrides`` names.

    Built in O(overrides); as a mapping it is the per-pair dict written
    out (same keys in :func:`ordered_pairs` order, the same law objects,
    ``len`` n(n−1)), and ``dict(m)`` materializes it.
    :func:`apply_links` installs it without writing the pairs out.
    """

    __slots__ = ("n", "default", "overrides", "_pids")

    def __init__(self, n: int, default: LinkPolicy,
                 overrides: Mapping[tuple[int, int], LinkPolicy]) -> None:
        self.n = n
        self.default = default
        self.overrides = MappingProxyType(dict(overrides))
        self._pids = range(n)
        for src, dst in self.overrides:
            if src == dst or src not in self._pids or dst not in self._pids:
                raise ValueError(f"override {(src, dst)} is not a link of "
                                 f"0..{n - 1}")

    def __getitem__(self, pair: tuple[int, int]) -> LinkPolicy:
        policy = self.overrides.get(pair)
        if policy is None:
            src, dst = pair
            if src == dst or src not in self._pids or dst not in self._pids:
                raise KeyError(pair)
            policy = self.default
        return policy

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(ordered_pairs(self._pids))

    def __len__(self) -> int:
        return self.n * (self.n - 1)


@dataclass(frozen=True)
class LinkTimings:
    """Substrate constants shared by the topology builders.

    Attributes
    ----------
    delta:
        Post-GST delay bound of (eventually) timely links.
    min_delay:
        Physical propagation floor for every link type.
    gst:
        Global stabilization time of eventually timely links.
    pre_gst_loss / pre_gst_delay_max:
        Behaviour of ◇timely links before GST.
    fair_loss / fair_max_consecutive / fair_delay_max / fair_delay_growth:
        Fair-lossy link parameters (base loss probability, enforced
        fairness bound, delay spread, and the delay-ceiling growth rate
        that realizes the model's *unbounded* fair-lossy delays).
    fair_outage_period / fair_outage_growth:
        Growing-outage ("gap") adversary of fair-lossy links: fixed pass
        windows alternating with linearly growing outages — the honest
        realization of the model's unbounded silences.
    async_loss / async_delay_max:
        Lossy-asynchronous link parameters.
    """

    delta: float = 0.05
    min_delay: float = 0.001
    gst: float = 10.0
    pre_gst_loss: float = 0.5
    pre_gst_delay_max: float = 5.0
    fair_loss: float = 0.3
    fair_max_consecutive: int = 10
    fair_delay_max: float = 1.0
    fair_delay_growth: float = 0.0
    fair_outage_period: float = 0.0
    fair_outage_growth: float = 0.0
    async_loss: float = 0.5
    async_delay_max: float = 5.0

    def timely(self) -> TimelyLink:
        """A fresh always-timely link."""
        return TimelyLink(delta=self.delta, min_delay=self.min_delay)

    def eventually_timely(self) -> EventuallyTimelyLink:
        """A fresh ◇timely link with this GST."""
        return EventuallyTimelyLink(
            gst=self.gst,
            delta=self.delta,
            min_delay=self.min_delay,
            pre_gst_loss=self.pre_gst_loss,
            pre_gst_delay_max=self.pre_gst_delay_max,
        )

    def fair_lossy(self) -> FairLossyLink:
        """A fresh typed fair-lossy link."""
        return FairLossyLink(
            loss=self.fair_loss,
            max_consecutive_drops=self.fair_max_consecutive,
            delay_max=self.fair_delay_max,
            min_delay=self.min_delay,
            delay_growth_rate=self.fair_delay_growth,
            outage_period=self.fair_outage_period,
            outage_growth=self.fair_outage_growth,
        )

    def lossy_async(self) -> LossyAsyncLink:
        """A fresh lossy-asynchronous link."""
        return LossyAsyncLink(
            loss=self.async_loss,
            delay_max=self.async_delay_max,
            min_delay=self.min_delay,
        )


def ordered_pairs(pids: Iterable[int]) -> list[tuple[int, int]]:
    """All ordered pairs of distinct pids."""
    pid_list = list(pids)
    return [(i, j) for i in pid_list for j in pid_list if i != j]


def _two_law_map(n: int, pairs: Iterable[tuple[int, int]],
                 timely: LinkPolicy, other: LinkPolicy) -> LinkMap:
    """``timely`` on ``pairs``, ``other`` on every other pair of ``range(n)``."""
    return LinkMap(n, other, dict.fromkeys(pairs, timely))


def _out_links(n: int, sources: Iterable[int]) -> Iterator[tuple[int, int]]:
    """Every output link of every pid in ``sources``."""
    return ((src, dst) for src in sources for dst in range(n) if dst != src)


def all_timely_links(n: int, timings: LinkTimings = LinkTimings()) -> LinkMap:
    """Every link timely from the start."""
    return LinkMap(n, timings.timely(), {})


def all_eventually_timely_links(
    n: int, timings: LinkTimings = LinkTimings()
) -> LinkMap:
    """Every link ◇timely (common GST)."""
    return LinkMap(n, timings.eventually_timely(), {})


def source_links(
    n: int, source: int, timings: LinkTimings = LinkTimings()
) -> LinkMap:
    """◇timely output links from ``source``; fair-lossy everywhere else."""
    _check_member(n, source, "source")
    return _two_law_map(n, _out_links(n, (source,)),
                        timings.eventually_timely(), timings.fair_lossy())


def f_source_links(
    n: int,
    source: int,
    targets: Sequence[int],
    timings: LinkTimings = LinkTimings(),
) -> LinkMap:
    """◇timely links ``source -> t`` for ``t in targets``; fair-lossy elsewhere.

    With ``len(targets) == f`` this is the ◇f-source system of result R3;
    with fewer targets it is the sub-threshold system of the lower bound
    R4.  Targets may include processes that later crash — the model lets
    the adversary pick them.
    """
    _check_member(n, source, "source")
    target_set = set(targets)
    if source in target_set:
        raise ValueError("source cannot be its own target")
    for target in target_set:
        _check_member(n, target, "target")
    return _two_law_map(n, ((source, target) for target in sorted(target_set)),
                        timings.eventually_timely(), timings.fair_lossy())


def multi_source_links(
    n: int, sources: Sequence[int], timings: LinkTimings = LinkTimings()
) -> LinkMap:
    """◇timely output links from every pid in ``sources``; fair-lossy elsewhere.

    With two or more sources the system tolerates crashes of all but one
    of them while staying inside the eventually-timely-source assumption
    — the topology used by the leader-failover experiment (E4).
    """
    source_set = set(sources)
    if not source_set:
        raise ValueError("need at least one source")
    for source in source_set:
        _check_member(n, source, "source")
    return _two_law_map(n, _out_links(n, sorted(source_set)),
                        timings.eventually_timely(), timings.fair_lossy())


def relay_tree_links(
    n: int, source: int, timings: LinkTimings = LinkTimings()
) -> LinkMap:
    """◇timely links forming only a two-hub tree rooted at ``source``.

    The source has ◇timely links to two hub processes; each hub has
    ◇timely links to half of the remaining processes.  Consequently **no
    process has timely direct links to everyone** (the source reaches
    only the hubs, each hub only its half), yet there is an eventually
    timely *path* from the source to every process.  The direct source
    algorithms fail here while their relayed variants
    (:func:`repro.core.relay.make_relayed`) work — the path-synchrony
    relaxation this research line describes.  All other links are
    fair-lossy.

    Requires ``n >= 4`` (source, two hubs, at least one leaf).
    """
    _check_member(n, source, "source")
    if n < 4:
        raise ValueError("relay tree needs n >= 4")
    others = [pid for pid in range(n) if pid != source]
    hub_a, hub_b = others[0], others[1]
    leaves = others[2:]
    half = (len(leaves) + 1) // 2
    served_by_a = set(leaves[:half]) | {hub_b}
    served_by_b = set(leaves[half:]) | {hub_a}
    timely_pairs = {(source, hub_a), (source, hub_b)}
    timely_pairs |= {(hub_a, leaf) for leaf in served_by_a}
    timely_pairs |= {(hub_b, leaf) for leaf in served_by_b}
    return _two_law_map(n, sorted(timely_pairs),
                        timings.eventually_timely(), timings.fair_lossy())


def source_links_lossy_elsewhere(
    n: int, source: int, timings: LinkTimings = LinkTimings()
) -> LinkMap:
    """◇timely output links from ``source``; *lossy-async* everywhere else.

    Strictly weaker than :func:`source_links`: non-source links carry no
    fairness guarantee at all.  Used by stress experiments to show which
    algorithm behaviours rely on fair-lossy feedback paths.
    """
    _check_member(n, source, "source")
    return _two_law_map(n, _out_links(n, (source,)),
                        timings.eventually_timely(), timings.lossy_async())


def apply_links(network: Network, links: Mapping[tuple[int, int], LinkPolicy]) -> None:
    """Install a link map on a network.

    Every pair the map covers loses what it had (an explicit
    ``set_link``, a ``perturb_link`` overlay, an earlier map).  A
    :class:`LinkMap` goes in whole through
    :meth:`~repro.sim.network.Network.set_link_map`; any other mapping
    pair by pair.
    """
    if isinstance(links, LinkMap):
        network.set_link_map(links)
        return
    for (src, dst), policy in links.items():
        network.set_link(src, dst, policy)


def _check_member(n: int, pid: int, role: str) -> None:
    if not 0 <= pid < n:
        raise ValueError(f"{role} {pid} outside 0..{n - 1}")
