"""Unit tests for the experiment scenario harness."""

from __future__ import annotations

import pytest

from repro.harness import OmegaScenario
from repro.sim.links import EventuallyTimelyLink, FairLossyLink, LossyAsyncLink


class TestValidation:
    def test_unknown_system(self) -> None:
        with pytest.raises(ValueError):
            OmegaScenario(algorithm="source", n=4, system="mesh")

    def test_bad_n(self) -> None:
        with pytest.raises(ValueError):
            OmegaScenario(algorithm="source", n=1, system="source")

    def test_bad_horizon(self) -> None:
        with pytest.raises(ValueError):
            OmegaScenario(algorithm="source", n=3, system="source", horizon=0)


class TestDerived:
    def test_effective_f_prefers_explicit(self) -> None:
        scenario = OmegaScenario(algorithm="f-source", n=5, system="f-source",
                                 targets=(1, 2), f=3)
        assert scenario.effective_f == 3

    def test_effective_f_from_targets(self) -> None:
        scenario = OmegaScenario(algorithm="f-source", n=5, system="f-source",
                                 targets=(1, 2))
        assert scenario.effective_f == 2

    def test_link_maps_match_system(self) -> None:
        source = OmegaScenario(algorithm="source", n=4, system="source",
                               source=1)
        links = source.link_map()
        assert isinstance(links[(1, 0)], EventuallyTimelyLink)
        assert isinstance(links[(0, 1)], FairLossyLink)

        lossy = OmegaScenario(algorithm="source", n=4, system="source-lossy",
                              source=1)
        assert isinstance(lossy.link_map()[(0, 1)], LossyAsyncLink)

    def test_multi_source_defaults_to_single(self) -> None:
        scenario = OmegaScenario(algorithm="source", n=4,
                                 system="multi-source", source=2)
        links = scenario.link_map()
        assert isinstance(links[(2, 0)], EventuallyTimelyLink)
        assert isinstance(links[(0, 2)], FairLossyLink)


class TestExecution:
    def test_run_produces_outcome(self) -> None:
        scenario = OmegaScenario(algorithm="comm-efficient", n=4,
                                 system="source", source=1, horizon=100.0,
                                 seed=5)
        outcome = scenario.run()
        assert outcome.stabilized
        assert outcome.communication_efficient
        assert outcome.cluster.sim.now == 100.0

    def test_crashes_applied(self) -> None:
        scenario = OmegaScenario(algorithm="all-timely", n=4, system="all-et",
                                 faults="crash(t=10.0,pid=0)", horizon=80.0)
        outcome = scenario.run()
        assert outcome.cluster.crashed_pids() == [0]
        assert outcome.report.final_leader == 1

    def test_build_without_run(self) -> None:
        scenario = OmegaScenario(algorithm="source", n=3, system="source")
        cluster = scenario.build()
        assert cluster.sim.now == 0.0
        assert not cluster.process(0).started

    def test_same_seed_reproduces_outcome(self) -> None:
        scenario = OmegaScenario(algorithm="comm-efficient", n=5,
                                 system="source", source=0, horizon=90.0)
        first = scenario.run()
        second = scenario.run()
        assert first.report.final_leader == second.report.final_leader
        assert first.report.stabilization_time == \
            second.report.stabilization_time
        assert first.cluster.metrics.total_sent == \
            second.cluster.metrics.total_sent
