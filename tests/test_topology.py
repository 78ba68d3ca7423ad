"""Unit tests for the topology builders."""

from __future__ import annotations

import pytest

from conftest import Recorder

from repro.sim import topology
from repro.sim.cluster import Cluster
from repro.sim.links import (
    DeadLink,
    EventuallyTimelyLink,
    FairLossyLink,
    LossyAsyncLink,
    TimelyLink,
)
from repro.sim.topology import (
    LinkMap,
    LinkTimings,
    all_eventually_timely_links,
    all_timely_links,
    apply_links,
    f_source_links,
    multi_source_links,
    ordered_pairs,
    relay_tree_links,
    source_links,
    source_links_lossy_elsewhere,
)


class TestOrderedPairs:
    def test_all_distinct_pairs(self) -> None:
        pairs = ordered_pairs(range(3))
        assert len(pairs) == 6
        assert (0, 0) not in pairs
        assert (0, 1) in pairs and (1, 0) in pairs


class TestBuilders:
    def test_all_timely(self) -> None:
        links = all_timely_links(4)
        assert len(links) == 12
        assert all(isinstance(p, TimelyLink) for p in links.values())

    def test_all_eventually_timely(self) -> None:
        links = all_eventually_timely_links(3, LinkTimings(gst=7.0))
        assert all(isinstance(p, EventuallyTimelyLink) for p in links.values())
        assert all(p.gst == 7.0 for p in links.values())

    def test_source_links_shape(self) -> None:
        links = source_links(4, source=2)
        for (src, _), policy in links.items():
            if src == 2:
                assert isinstance(policy, EventuallyTimelyLink)
            else:
                assert isinstance(policy, FairLossyLink)

    def test_f_source_links_shape(self) -> None:
        links = f_source_links(5, source=0, targets=[1, 3])
        timely = {pair for pair, p in links.items()
                  if isinstance(p, EventuallyTimelyLink)}
        assert timely == {(0, 1), (0, 3)}

    def test_multi_source_links_shape(self) -> None:
        links = multi_source_links(4, sources=[0, 1])
        timely_sources = {src for (src, _), p in links.items()
                          if isinstance(p, EventuallyTimelyLink)}
        assert timely_sources == {0, 1}

    def test_source_lossy_elsewhere_shape(self) -> None:
        links = source_links_lossy_elsewhere(3, source=1)
        for (src, _), policy in links.items():
            if src == 1:
                assert isinstance(policy, EventuallyTimelyLink)
            else:
                assert isinstance(policy, LossyAsyncLink)

    @pytest.mark.parametrize("build, laws", [
        (lambda: all_timely_links(5), 1),
        (lambda: all_eventually_timely_links(5), 1),
        (lambda: source_links(5, 0), 2),
        (lambda: f_source_links(5, 0, [1, 3]), 2),
        (lambda: multi_source_links(5, [0, 1]), 2),
        (lambda: relay_tree_links(5, 0), 2),
        (lambda: source_links_lossy_elsewhere(5, 0), 2),
    ], ids=["all-timely", "all-et", "source", "f-source", "multi-source",
            "relay-tree", "lossy-elsewhere"])
    def test_one_policy_object_per_law_per_map(self, build, laws: int) -> None:
        # A policy is a law, shared by every pair that obeys it; per-link
        # state is keyed by the network's link token, not by the object.
        first, second = build(), build()
        assert len({id(policy) for policy in first.values()}) == laws
        assert len({type(policy) for policy in first.values()}) == laws
        # ... and two maps (two networks, two runs) share nothing.
        assert not ({id(policy) for policy in first.values()}
                    & {id(policy) for policy in second.values()})


def _relay_pairs(n: int, source: int) -> set[tuple[int, int]]:
    """The relay tree's ◇timely pairs, from its docstring's rule."""
    others = [pid for pid in range(n) if pid != source]
    hub_a, hub_b, leaves = others[0], others[1], others[2:]
    half = (len(leaves) + 1) // 2
    return ({(source, hub_a), (source, hub_b), (hub_a, hub_b), (hub_b, hub_a)}
            | {(hub_a, leaf) for leaf in leaves[:half]}
            | {(hub_b, leaf) for leaf in leaves[half:]})


def _map_cases():
    """(id, build, is_override) over n ∈ {2, 3, 5, 17} and each builder's
    parameter corners; ``is_override(src, dst)`` is the builder's law
    predicate — true where the pair does not follow the base law."""
    never = lambda src, dst: False  # noqa: E731
    for n in (2, 3, 5, 17):
        last = n - 1
        yield f"all-timely/{n}", lambda n=n: all_timely_links(n), never
        yield (f"all-et/{n}", lambda n=n: all_eventually_timely_links(n),
               never)
        for s in sorted({0, last}):
            yield (f"source/{n}/{s}", lambda n=n, s=s: source_links(n, s),
                   lambda src, dst, s=s: src == s)
            yield (f"lossy-elsewhere/{n}/{s}",
                   lambda n=n, s=s: source_links_lossy_elsewhere(n, s),
                   lambda src, dst, s=s: src == s)
            if n >= 4:
                yield (f"relay-tree/{n}/{s}",
                       lambda n=n, s=s: relay_tree_links(n, s),
                       lambda src, dst, p=_relay_pairs(n, s): (src, dst) in p)
        for targets in ([], [last], list(range(1, n))):
            yield (f"f-source/{n}/{targets}",
                   lambda n=n, t=targets: f_source_links(n, 0, t),
                   lambda src, dst, t=targets: src == 0 and dst in t)
        for sources in ([0], [last, 0], list(range(n))):
            yield (f"multi-source/{n}/{sources}",
                   lambda n=n, s=sources: multi_source_links(n, s),
                   lambda src, dst, s=sources: src in s)


MAP_CASES = list(_map_cases())


class TestLinkMap:
    """A builder's map is one base law plus the pairs that differ, and as
    a mapping it is exactly the per-pair dict the builders used to write."""

    @pytest.mark.parametrize("build, is_override",
                             [case[1:] for case in MAP_CASES],
                             ids=[case[0] for case in MAP_CASES])
    def test_is_the_per_pair_dict(self, build, is_override) -> None:
        links = build()
        n = links.n
        (law,) = set(links.overrides.values()) or {None}
        expected = [((src, dst), law if is_override(src, dst) else links.default)
                    for src, dst in ordered_pairs(range(n))]
        written = list(dict(links).items())
        assert [pair for pair, _ in written] == [pair for pair, _ in expected]
        assert all(got is want for (_, got), (_, want) in zip(written, expected))
        assert len(links) == n * (n - 1) == len(written)
        assert len(links.overrides) == sum(
            1 for src, dst in ordered_pairs(range(n)) if is_override(src, dst))
        for pair in [(0, 0), (n - 1, n - 1), (0, n), (n, 0), (-1, 0), (0, -1)]:
            assert pair not in links
            with pytest.raises(KeyError):
                links[pair]
        with pytest.raises(TypeError):
            links[(0, 1)] = links.default  # type: ignore[index]
        with pytest.raises(TypeError):
            links.overrides[(0, 1)] = links.default  # type: ignore[index]

    def test_holds_only_the_pairs_that_differ(self) -> None:
        assert len(source_links(256, 0).overrides) == 255
        assert len(all_timely_links(256).overrides) == 0

    def test_rejects_an_override_that_is_not_a_link(self) -> None:
        for pair in [(1, 1), (0, 3), (-1, 0)]:
            with pytest.raises(ValueError):
                LinkMap(3, TimelyLink(), {pair: DeadLink()})


class TestValidation:
    def test_source_outside_range(self) -> None:
        with pytest.raises(ValueError):
            source_links(3, source=3)

    def test_target_outside_range(self) -> None:
        with pytest.raises(ValueError):
            f_source_links(3, source=0, targets=[5])

    def test_source_cannot_target_itself(self) -> None:
        with pytest.raises(ValueError):
            f_source_links(3, source=0, targets=[0])

    def test_multi_source_needs_sources(self) -> None:
        with pytest.raises(ValueError):
            multi_source_links(3, sources=[])


class TestLinkTimings:
    def test_factories_honor_parameters(self) -> None:
        timings = LinkTimings(gst=3.0, fair_loss=0.4, fair_delay_growth=0.5)
        assert timings.timely().delta == topology.DELTA
        assert timings.eventually_timely().gst == 3.0
        fair = timings.fair_lossy()
        assert fair.loss == 0.4 and fair.delay_growth_rate == 0.5
        assert fair.max_consecutive_drops == topology.FAIR_MAX_CONSECUTIVE
        assert timings.lossy_async().loss == topology.ASYNC_LOSS


class TestApplyLinks:
    def test_apply_installs_all_pairs(self) -> None:
        cluster = Cluster.build(3, lambda pid, sim, net: Recorder(pid, sim, net))
        links = source_links(3, 0)
        apply_links(cluster.network, links)
        for pair, policy in links.items():
            assert cluster.network.link(*pair) is policy
