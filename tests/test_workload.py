"""Unit tests for the replicated-log client workload (spec → build → run)."""

from __future__ import annotations

import math

import pytest

from repro.consensus import (
    ConsensusSystem,
    WorkloadOutcome,
    WorkloadSpec,
)
from repro.sim import CrashPlan, LinkTimings
from repro.sim.topology import multi_source_links


def build(n: int = 4, seed: int = 0) -> ConsensusSystem:
    timings = LinkTimings(gst=2.0)
    return ConsensusSystem.build_replicated_log(
        n, lambda: multi_source_links(n, (0, 1), timings), seed=seed)


class TestSpec:
    def test_spec_is_frozen_and_pure(self) -> None:
        spec = WorkloadSpec(count=3, period=1.0)
        with pytest.raises(AttributeError):
            spec.count = 4  # type: ignore[misc]
        # Describing a workload schedules nothing: building is explicit.
        system = build()
        before = system.sim.events_executed
        WorkloadSpec(count=5, period=0.5)
        assert system.sim.events_executed == before

    def test_validation(self) -> None:
        with pytest.raises(ValueError, match="count"):
            WorkloadSpec(count=0, period=1.0)
        with pytest.raises(ValueError, match="period"):
            WorkloadSpec(count=1, period=0.0)
        with pytest.raises(ValueError, match="start"):
            WorkloadSpec(count=1, period=1.0, start=-1.0)
        with pytest.raises(ValueError, match="retry_period"):
            WorkloadSpec(count=1, period=1.0, retry_period=-2.0)

    @pytest.mark.parametrize("field", ["period", "retry_period"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field: str, bad: float) -> None:
        with pytest.raises(ValueError, match=field):
            WorkloadSpec(count=1, **{field: bad})

    def test_rejects_non_finite_start(self) -> None:
        with pytest.raises(ValueError, match="start"):
            WorkloadSpec(count=1, period=1.0, start=math.nan)


class TestSubmission:
    def test_commands_submitted_at_rate(self) -> None:
        system = build()
        workload = WorkloadSpec(count=5, period=2.0, start=1.0).build(system)
        system.start_all()
        system.run_until(4.9)
        assert len(workload.submit_times) == 2  # t=1.0 and t=3.0
        system.run_until(20.0)
        assert len(workload.submit_times) == 5

    def test_submitted_set(self) -> None:
        system = build()
        workload = WorkloadSpec(count=3, period=1.0).build(system)
        assert workload.submitted == {"cmd-0", "cmd-1", "cmd-2"}

    def test_double_build_on_same_system_allowed(self) -> None:
        # Two independent drivers from one spec are two distinct fleets.
        spec = WorkloadSpec(count=2, period=1.0)
        first = spec.build(build())
        second = spec.build(build(seed=1))
        assert first is not second


class TestCompletion:
    def test_done_after_commit(self) -> None:
        system = build()
        workload = WorkloadSpec(count=8, period=0.5, start=3.0).build(system)
        system.start_all()
        assert not workload.done()
        system.run_until(60.0)
        assert workload.done()

    def test_retry_survives_crash_of_target(self) -> None:
        # Crash a node that will receive some submissions; retries go to
        # surviving nodes, so everything still commits.
        system = build(seed=3)
        workload = WorkloadSpec(count=10, period=0.5, start=3.0,
                                retry_period=3.0).build(system)
        CrashPlan.crash_at((4.0, 2)).schedule(system)
        system.start_all()
        system.run_until(120.0)
        assert workload.done()

    def test_commit_latency_positive(self) -> None:
        system = build()
        workload = WorkloadSpec(count=5, period=0.5, start=3.0).build(system)
        system.start_all()
        system.run_until(60.0)
        leader = system.node(0).omega.leader()
        latencies = workload.commit_latency(leader)
        assert len(latencies) == 5
        assert all(latency > 0 for latency in latencies.values())

    def test_run_convenience_returns_outcome(self) -> None:
        outcome = WorkloadSpec(count=6, period=0.5, start=3.0).run(
            build(), horizon=60.0)
        assert isinstance(outcome, WorkloadOutcome)
        assert outcome.done
        assert outcome.submitted == outcome.committed == 6
        assert outcome.throughput_cps and outcome.throughput_cps > 0
        assert outcome.latency_p50_s and outcome.latency_p50_s > 0
        document = outcome.to_json()
        assert set(document["latency_s"]) == {"p50", "p95", "p99"}

