"""Unit tests for the per-link synchrony models."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Ping, Probe

from repro.sim.links import (
    DeadLink,
    DegradedWindow,
    EventuallyTimelyLink,
    FairLossyLink,
    LossyAsyncLink,
    PerturbedLink,
    TimelyLink,
)

MSG = Probe(0)


class TestTimelyLink:
    def test_delay_within_bounds(self, rng: random.Random) -> None:
        link = TimelyLink(delta=0.05, min_delay=0.01)
        delays = [link.plan(MSG, now=t * 0.1, rng=rng) for t in range(200)]
        assert all(d is not None for d in delays)
        assert all(0.01 <= d <= 0.05 for d in delays)

    def test_never_drops(self, rng: random.Random) -> None:
        link = TimelyLink()
        assert all(link.plan(MSG, 0.0, rng) is not None for _ in range(100))

    def test_rejects_bad_parameters(self) -> None:
        with pytest.raises(ValueError):
            TimelyLink(delta=0.0)
        with pytest.raises(ValueError):
            TimelyLink(delta=0.05, min_delay=0.1)

    def test_describe_mentions_delta(self) -> None:
        assert "0.05" in TimelyLink(delta=0.05).describe()


class TestEventuallyTimelyLink:
    def test_timely_after_gst(self, rng: random.Random) -> None:
        link = EventuallyTimelyLink(gst=10.0, delta=0.05)
        delays = [link.plan(MSG, now=10.0 + t, rng=rng) for t in range(100)]
        assert all(d is not None and d <= 0.05 for d in delays)

    def test_before_gst_can_lose_and_delay(self, rng: random.Random) -> None:
        link = EventuallyTimelyLink(gst=1000.0, delta=0.05, pre_gst_loss=0.5,
                                    pre_gst_delay_max=5.0)
        plans = [link.plan(MSG, now=1.0, rng=rng) for _ in range(400)]
        losses = sum(1 for p in plans if p is None)
        slow = sum(1 for p in plans if p is not None and p > 0.05)
        assert losses > 0, "expected some pre-GST losses"
        assert slow > 0, "expected some pre-GST delays beyond delta"

    def test_pre_gst_delay_is_finite(self, rng: random.Random) -> None:
        link = EventuallyTimelyLink(gst=1000.0, pre_gst_delay_max=5.0)
        plans = [link.plan(MSG, now=1.0, rng=rng) for _ in range(200)]
        assert all(p <= 5.0 for p in plans if p is not None)

    def test_boundary_exactly_at_gst_is_timely(self, rng: random.Random) -> None:
        link = EventuallyTimelyLink(gst=10.0, delta=0.05)
        assert link.plan(MSG, now=10.0, rng=rng) <= 0.05

    def test_rejects_bad_probability(self) -> None:
        with pytest.raises(ValueError):
            EventuallyTimelyLink(pre_gst_loss=1.5)


class TestFairLossyLink:
    def test_consecutive_drop_bound_enforced(self, rng: random.Random) -> None:
        link = FairLossyLink(loss=0.99, max_consecutive_drops=5)
        streak = 0
        longest = 0
        for _ in range(2000):
            if link.plan(MSG, 0.0, rng) is None:
                streak += 1
                longest = max(longest, streak)
            else:
                streak = 0
        assert longest <= 5

    def test_fairness_is_per_type(self, rng: random.Random) -> None:
        from dataclasses import dataclass

        from repro.sim.messages import Message

        @dataclass(frozen=True)
        class Other(Message):
            pass

        link = FairLossyLink(loss=1.0, max_consecutive_drops=2)
        # Drop two probes, then interleave an Other: its own streak is
        # independent, so it can still be dropped.
        assert link.plan(Probe(0), 0.0, rng) is None
        assert link.plan(Probe(0), 0.0, rng) is None
        assert link.plan(Other(0), 0.0, rng) is None
        assert link.plan(Probe(0), 0.0, rng) is not None  # probe streak hit 2

    def test_zero_loss_always_delivers(self, rng: random.Random) -> None:
        link = FairLossyLink(loss=0.0)
        assert all(link.plan(MSG, 0.0, rng) is not None for _ in range(50))

    def test_delay_growth_raises_ceiling(self, rng: random.Random) -> None:
        link = FairLossyLink(loss=0.0, delay_max=1.0, delay_growth_rate=1.0)
        early = [link.plan(MSG, now=0.0, rng=rng) for _ in range(100)]
        late = [link.plan(MSG, now=1000.0, rng=rng) for _ in range(100)]
        assert max(early) <= 1.0
        assert max(late) > 100.0, "late delays should use the grown ceiling"

    def test_delivery_rate_lower_bound(self, rng: random.Random) -> None:
        # With a streak bound of k, at least 1 in k+1 messages delivers.
        link = FairLossyLink(loss=1.0, max_consecutive_drops=9)
        sent = 1000
        delivered = sum(1 for _ in range(sent)
                        if link.plan(MSG, 0.0, rng) is not None)
        assert delivered >= sent // 10

    def test_rejects_bad_parameters(self) -> None:
        with pytest.raises(ValueError):
            FairLossyLink(loss=2.0)
        with pytest.raises(ValueError):
            FairLossyLink(max_consecutive_drops=-1)
        with pytest.raises(ValueError):
            FairLossyLink(delay_growth_rate=-0.1)


class TestLossyAsyncLink:
    def test_loses_at_configured_rate(self, rng: random.Random) -> None:
        link = LossyAsyncLink(loss=0.5)
        plans = [link.plan(MSG, 0.0, rng) for _ in range(1000)]
        losses = sum(1 for p in plans if p is None)
        assert 380 <= losses <= 620  # ~50% with slack

    def test_no_fairness_guarantee(self, rng: random.Random) -> None:
        link = LossyAsyncLink(loss=1.0)
        assert all(link.plan(MSG, 0.0, rng) is None for _ in range(100))

    def test_dead_link_drops_everything(self, rng: random.Random) -> None:
        link = DeadLink()
        assert all(link.plan(MSG, 0.0, rng) is None for _ in range(100))
        assert link.describe() == "dead"

    def test_rejects_bad_probability(self) -> None:
        with pytest.raises(ValueError):
            LossyAsyncLink(loss=-0.1)


class TestFairLossyEdgeCases:
    def test_bound_holds_under_total_loss_pressure(self,
                                                   rng: random.Random) -> None:
        # loss=1.0 is the adversary's best move: *every* message the
        # fairness counter permits to drop is dropped.  The per-key
        # streak bound must still force a delivery every k+1 sends.
        link = FairLossyLink(loss=1.0, max_consecutive_drops=3)
        fates = [link.plan(MSG, 0.0, rng) is not None for _ in range(400)]
        assert fates == [i % 4 == 3 for i in range(400)]

    def test_streaks_are_per_link_instance(self, rng: random.Random) -> None:
        # Fairness state lives on the (link, fairness_key) pair, not on
        # the class and not on the instance: exhausting one link's
        # streak must not force a delivery on a sibling link — whether
        # the sibling is another instance or another token on this one.
        first = FairLossyLink(loss=1.0, max_consecutive_drops=2)
        second = FairLossyLink(loss=1.0, max_consecutive_drops=2)
        assert first.plan(MSG, 0.0, rng) is None
        assert first.plan(MSG, 0.0, rng) is None
        assert second.plan(MSG, 0.0, rng) is None, \
            "fresh link starts its own streak"
        assert first.plan(MSG, 0.0, rng, link=7) is None, \
            "another token on the same instance starts its own streak"
        assert first.plan(MSG, 0.0, rng) is not None
        assert first.plan(MSG, 0.0, rng, link=7) is None
        assert first.plan(MSG, 0.0, rng, link=7) is not None

    def test_a_delivery_deletes_the_streak(self, rng: random.Random) -> None:
        link = FairLossyLink(loss=1.0, max_consecutive_drops=1)
        assert link.plan(MSG, 0.0, rng, link=3) is None
        assert link._drops_in_a_row == {(3, MSG.fairness_key()): 1}
        assert link.plan(MSG, 0.0, rng, link=3) is not None
        assert link._drops_in_a_row == {}

    def test_perturbed_wrapper_passes_the_token_through(
            self, rng: random.Random) -> None:
        law = FairLossyLink(loss=1.0, max_consecutive_drops=1)
        wrapped = PerturbedLink(law)
        assert law.plan(MSG, 0.0, rng, link=5) is None
        # The wrapper continues link 5's streak on the shared law.
        assert wrapped.plan_all(MSG, 0.0, rng, 5) != []
        assert wrapped.plan(MSG, 0.0, rng, 9) is None


class TestDeadLinkEdgeCases:
    def test_drops_everything_forever(self, rng: random.Random) -> None:
        link = DeadLink()
        assert all(link.plan(MSG, now=float(t), rng=rng) is None
                   for t in range(500))

    def test_plan_all_is_empty(self, rng: random.Random) -> None:
        assert DeadLink().plan_all(MSG, 0.0, rng) == []


class TestEventuallyTimelyBoundary:
    def test_within_delta_at_exactly_gst(self, rng: random.Random) -> None:
        # The model quantifies over messages sent at t >= GST, so the
        # boundary send must already enjoy the post-GST bound.
        link = EventuallyTimelyLink(gst=25.0, delta=0.07)
        for _ in range(200):
            delay = link.plan(MSG, now=25.0, rng=rng)
            assert delay is not None and delay <= 0.07


class TestDegradedWindow:
    def test_active_is_half_open(self) -> None:
        window = DegradedWindow(start=2.0, end=4.0, loss=0.5)
        assert not window.active(1.99)
        assert window.active(2.0)
        assert window.active(3.99)
        assert not window.active(4.0)

    def test_flap_phase(self) -> None:
        window = DegradedWindow(start=10.0, end=20.0, flap_period=2.0,
                                flap_up=0.5)
        assert not window.flapped_down(10.5)   # first half of the period: up
        assert window.flapped_down(11.5)       # second half: down
        assert not window.flapped_down(12.5)   # next period: up again

    def test_rejects_bad_parameters(self) -> None:
        with pytest.raises(ValueError):
            DegradedWindow(start=5.0, end=5.0)
        with pytest.raises(ValueError):
            DegradedWindow(start=0.0, end=1.0, loss=1.5)
        with pytest.raises(ValueError):
            DegradedWindow(start=0.0, end=1.0, flap_period=1.0, flap_up=0.0)


class TestPerturbedLink:
    def test_transparent_outside_windows(self) -> None:
        # Identical rng draws with and without the wrapper: a window
        # that never activates must not change the run at all.
        def plans(policy) -> list:  # noqa: ANN001
            rng = random.Random(17)
            return [policy.plan_all(MSG, now=float(t), rng=rng)
                    for t in range(100)]

        bare = FairLossyLink(loss=0.4)
        wrapped = PerturbedLink(FairLossyLink(loss=0.4),
                                [DegradedWindow(start=500.0, end=600.0,
                                                loss=1.0)])
        assert plans(bare) == plans(wrapped)

    def test_window_loss_drops_messages(self, rng: random.Random) -> None:
        link = PerturbedLink(TimelyLink(),
                             [DegradedWindow(start=0.0, end=10.0, loss=1.0)])
        assert link.plan_all(MSG, now=5.0, rng=rng) == []
        assert link.plan_all(MSG, now=10.0, rng=rng) != []

    def test_flap_down_phase_drops(self, rng: random.Random) -> None:
        link = PerturbedLink(TimelyLink(),
                             [DegradedWindow(start=0.0, end=100.0,
                                             flap_period=2.0, flap_up=0.5)])
        assert link.plan_all(MSG, now=0.5, rng=rng) != []
        assert link.plan_all(MSG, now=1.5, rng=rng) == []

    def test_duplication_adds_a_lagged_copy(self, rng: random.Random) -> None:
        link = PerturbedLink(TimelyLink(delta=0.05),
                             [DegradedWindow(start=0.0, end=10.0,
                                             duplicate=1.0,
                                             duplicate_lag=0.5)])
        copies = link.plan_all(MSG, now=1.0, rng=rng)
        assert len(copies) == 2
        assert copies[0] <= copies[1] <= copies[0] + 0.5

    def test_extra_delay_stretches_copies(self, rng: random.Random) -> None:
        link = PerturbedLink(TimelyLink(delta=0.05),
                             [DegradedWindow(start=0.0, end=10.0,
                                             extra_delay=3.0)])
        stretched = [link.plan_all(MSG, now=1.0, rng=rng)[0]
                     for _ in range(200)]
        assert all(delay <= 3.05 for delay in stretched)
        assert max(stretched) > 0.05, "some copies must actually stretch"


class TestDeterminismAcrossPolicies:
    def test_same_rng_same_plans(self) -> None:
        def plans(policy_factory) -> list:  # noqa: ANN001
            rng = random.Random(5)
            policy = policy_factory()
            return [policy.plan(MSG, now=float(i), rng=rng) for i in range(100)]

        for factory in (TimelyLink, EventuallyTimelyLink, FairLossyLink,
                        LossyAsyncLink):
            assert plans(factory) == plans(factory)

    @pytest.mark.parametrize("link,lo,hi,loss_draws", [
        (TimelyLink(delta=0.05, min_delay=0.001), 0.001, 0.05, 0),
        (EventuallyTimelyLink(gst=0.0, delta=0.3, min_delay=0.01),
         0.01, 0.3, 0),
        (FairLossyLink(loss=0.0, delay_max=1.0, min_delay=0.001),
         0.001, 1.0, 1),
    ])
    def test_delays_are_rng_uniform_bit_for_bit(
            self, link, lo: float, hi: float, loss_draws: int) -> None:
        # The delay draw is written out in links.py rather than calling
        # Random.uniform; every committed schedule depends on the two
        # agreeing to the last bit.
        rng, twin = random.Random(2024), random.Random(2024)
        for i in range(500):
            for _ in range(loss_draws):
                twin.random()
            assert link.plan(MSG, now=float(i), rng=rng) == twin.uniform(lo, hi)


#: Every law at its parameter corners.  The schedules below run over
#: ``now`` in [0, 12], so ``gst=6.0`` is crossed mid-run and the outage
#: adversary (pass 1.0, outages 0.5, 1.0, 1.5, ...) over several boundaries.
LAWS = {
    "timely": lambda: TimelyLink(delta=0.05, min_delay=0.001),
    "timely/point": lambda: TimelyLink(delta=0.05, min_delay=0.05),
    "eventually/pre-gst": lambda: EventuallyTimelyLink(gst=100.0),
    "eventually/post-gst": lambda: EventuallyTimelyLink(gst=0.0),
    "eventually/across-gst": lambda: EventuallyTimelyLink(
        gst=6.0, pre_gst_loss=0.5),
    "eventually/point": lambda: EventuallyTimelyLink(
        gst=6.0, delta=0.05, min_delay=0.05, pre_gst_delay_max=0.05),
    "fair": lambda: FairLossyLink(loss=0.5, max_consecutive_drops=2),
    "fair/loss=0": lambda: FairLossyLink(loss=0.0),
    "fair/loss=1": lambda: FairLossyLink(loss=1.0, max_consecutive_drops=3),
    "fair/k=0": lambda: FairLossyLink(loss=1.0, max_consecutive_drops=0),
    "fair/point": lambda: FairLossyLink(loss=0.3, delay_max=0.01,
                                        min_delay=0.01),
    "fair/lag": lambda: FairLossyLink(loss=0.3, delay_growth_rate=0.7),
    "fair/gap": lambda: FairLossyLink(loss=0.3, max_consecutive_drops=1,
                                      outage_period=1.0, outage_growth=0.5),
    "lossy-async": lambda: LossyAsyncLink(loss=0.5),
    "dead": DeadLink,
    "perturbed": lambda: PerturbedLink(
        FairLossyLink(loss=0.4, max_consecutive_drops=1),
        [DegradedWindow(start=2.0, end=8.0, loss=0.3, extra_delay=0.2,
                        duplicate=0.5)]),
}


def _streaks(policy) -> dict:  # noqa: ANN001
    inner = getattr(policy, "inner", policy)
    return dict(getattr(inner, "_drops_in_a_row", {}))


class TestPlanManyIsPlanPerCopy:
    """``plan_many`` must be indistinguishable from one ``plan`` per copy:
    same delays to the last bit, same draws from the same streams in the
    same order, same streak table afterwards."""

    @pytest.mark.parametrize("law", sorted(LAWS))
    @pytest.mark.parametrize("one_stream", [True, False],
                             ids=["shared-stream", "stream-per-link"])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32), k=st.integers(0, 6),
           steps=st.lists(st.tuples(st.floats(0.0, 2.5), st.booleans()),
                          min_size=1, max_size=12))
    def test_bit_equal_plans_draws_and_streaks(
            self, law: str, one_stream: bool, seed: int, k: int,
            steps: list) -> None:
        links = tuple(range(100, 100 + k))

        def run(batched: bool):  # noqa: ANN202
            policy = LAWS[law]()
            streams = [random.Random(seed + (0 if one_stream else index))
                       for index in range(k)]
            rngs = tuple(streams[:1] * k if one_stream else streams)
            plans, now = [], 0.0
            for gap, ping in steps:
                now += gap
                message = Ping(0) if ping else MSG
                if batched:
                    plans.append(policy.plan_many(message, now, rngs, links))
                else:
                    plans.append([policy.plan(message, now, rng, link)
                                  for rng, link in zip(rngs, links)])
            return (plans, _streaks(policy),
                    [stream.getstate() for stream in streams])

        assert run(batched=True) == run(batched=False)

    def test_every_override_is_covered(self) -> None:
        from repro.sim import links as links_mod
        from repro.sim.links import LinkPolicy

        overriding = {
            cls for cls in vars(links_mod).values()
            if isinstance(cls, type) and issubclass(cls, LinkPolicy)
            and "plan_many" in vars(cls) and cls is not LinkPolicy}
        covered = {type(factory()) for factory in LAWS.values()}
        assert overriding and overriding <= covered

    def test_streak_table_never_stores_a_zero(self) -> None:
        rng = random.Random(3)
        link = FairLossyLink(loss=0.5, max_consecutive_drops=2)
        links = tuple(range(8))
        for step in range(200):
            link.plan_many(MSG, float(step), (rng,) * 8, links)
            link.plan(Ping(0), float(step), rng, step % 8)
            assert all(link._drops_in_a_row.values())
