"""Unit tests for the topology builders."""

from __future__ import annotations

import pytest

from conftest import Recorder

from repro.sim.cluster import Cluster
from repro.sim.links import (
    EventuallyTimelyLink,
    FairLossyLink,
    LossyAsyncLink,
    TimelyLink,
)
from repro.sim.topology import (
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
        timings = LinkTimings(delta=0.1, gst=3.0, fair_loss=0.4,
                              fair_delay_growth=0.5, async_loss=0.9)
        assert timings.timely().delta == 0.1
        assert timings.eventually_timely().gst == 3.0
        fair = timings.fair_lossy()
        assert fair.loss == 0.4 and fair.delay_growth_rate == 0.5
        assert timings.lossy_async().loss == 0.9


class TestApplyLinks:
    def test_apply_installs_all_pairs(self) -> None:
        cluster = Cluster.build(3, lambda pid, sim, net: Recorder(pid, sim, net))
        links = source_links(3, 0)
        apply_links(cluster.network, links)
        for pair, policy in links.items():
            assert cluster.network.link(*pair) is policy
