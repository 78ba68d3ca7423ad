"""Property-based tests: Omega holds across random seeds and crash subsets."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import analyze_omega_run
from repro.harness import OmegaScenario
from repro.sim import FaultPlan, LinkTimings


FAST = LinkTimings(gst=3.0, pre_gst_delay_max=2.0)


class TestOmegaAcrossSeeds:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=12, deadline=None)
    def test_comm_efficient_converges_and_is_efficient(self, seed: int) -> None:
        scenario = OmegaScenario(
            algorithm="comm-efficient", n=4, system="source", source=1,
            seed=seed, horizon=120.0, timings=FAST)
        outcome = scenario.run()
        stab = outcome.report.stabilization_time
        if stab is not None and stab > scenario.horizon - 2 * scenario.ce_window:
            # Communication efficiency is an *eventual* property: a run
            # that stabilizes this close to the horizon (seed 87 does, at
            # t=103.85) still has pre-stabilization traffic inside the
            # trailing census window.  Give it a longer quiet tail.
            outcome = OmegaScenario(
                algorithm="comm-efficient", n=4, system="source", source=1,
                seed=seed, horizon=360.0, timings=FAST).run()
        assert outcome.stabilized
        assert outcome.communication_efficient

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_source_omega_converges(self, seed: int) -> None:
        outcome = OmegaScenario(
            algorithm="source", n=4, system="source", source=1,
            seed=seed, horizon=120.0, timings=FAST).run()
        assert outcome.stabilized


class TestOmegaUnderRandomCrashes:
    @given(seed=st.integers(min_value=0, max_value=10_000),
           victims=st.sets(st.sampled_from([0, 2, 3, 4]), max_size=2),
           crash_time=st.floats(min_value=1.0, max_value=30.0))
    @settings(max_examples=12, deadline=None)
    def test_all_timely_with_minority_crashes(
            self, seed: int, victims: set[int], crash_time: float) -> None:
        crashes = FaultPlan.crashes_at(*((crash_time + i, pid) for i, pid
                                         in enumerate(sorted(victims))))
        outcome = OmegaScenario(
            algorithm="all-timely", n=5, system="all-et",
            faults=crashes.to_repro(), seed=seed, horizon=150.0,
            timings=FAST).run()
        assert outcome.stabilized
        expected = min(pid for pid in range(5) if pid not in victims)
        assert outcome.report.final_leader == expected

    @given(seed=st.integers(min_value=0, max_value=10_000),
           victim=st.sampled_from([0, 2, 3]),
           crash_time=st.floats(min_value=1.0, max_value=40.0))
    @settings(max_examples=10, deadline=None)
    def test_comm_efficient_with_nonsource_crash(
            self, seed: int, victim: int, crash_time: float) -> None:
        outcome = OmegaScenario(
            algorithm="comm-efficient", n=4, system="source", source=1,
            faults=FaultPlan.crashes_at((crash_time, victim)).to_repro(),
            seed=seed, horizon=200.0, timings=FAST).run()
        assert outcome.stabilized
        assert outcome.report.final_leader != victim


class TestHistoryInvariants:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_histories_are_time_monotone_and_deduplicated(
            self, seed: int) -> None:
        outcome = OmegaScenario(
            algorithm="comm-efficient", n=4, system="source", source=0,
            seed=seed, horizon=80.0, timings=FAST).run()
        for pid in outcome.cluster.pids:
            history = outcome.cluster.process(pid).history
            times = [time for time, _ in history]
            assert times == sorted(times)
            for (_, a), (_, b) in zip(history, history[1:]):
                assert a != b, "consecutive duplicate outputs recorded"
            final = history[-1][1]
            assert outcome.cluster.process(pid).leader() == final
