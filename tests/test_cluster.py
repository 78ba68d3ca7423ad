"""Unit tests for cluster assembly."""

from __future__ import annotations

import pytest

from conftest import Probe, Recorder

from repro.sim.cluster import Cluster


def recorder_factory(pid, sim, net):  # noqa: ANN001, ANN201
    return Recorder(pid, sim, net)


class TestBuild:
    def test_builds_n_processes(self) -> None:
        cluster = Cluster.build(5, recorder_factory)
        assert cluster.n == 5
        assert cluster.pids == [0, 1, 2, 3, 4]

    def test_needs_at_least_two(self) -> None:
        with pytest.raises(ValueError):
            Cluster.build(1, recorder_factory)

    def test_trace_flag(self) -> None:
        traced = Cluster.build(2, recorder_factory, trace=True)
        untraced = Cluster.build(2, recorder_factory, trace=False)
        assert traced.trace.enabled
        assert not untraced.trace.enabled


class TestStart:
    def test_start_all_immediate(self) -> None:
        cluster = Cluster.build(3, recorder_factory)
        cluster.start_all()
        assert all(cluster.process(pid).started for pid in cluster.pids)

    def test_staggered_start(self) -> None:
        cluster = Cluster.build(3, recorder_factory)
        for pid in cluster.pids:               # pid i boots at t = i
            cluster.sim.call_at(float(pid), cluster.process(pid).start)
        assert not cluster.process(2).started
        cluster.run_until(0.0)
        assert cluster.process(0).started
        assert not cluster.process(1).started
        cluster.run_until(2.5)
        assert all(cluster.process(pid).started for pid in cluster.pids)


class TestCrashes:
    def test_crash_and_census(self) -> None:
        cluster = Cluster.build(4, recorder_factory)
        cluster.start_all()
        cluster.crash(1)
        cluster.crash_many([2, 3])
        assert cluster.up_pids() == [0]
        assert cluster.crashed_pids() == [1, 2, 3]


class TestRunAndMetrics:
    def test_messages_flow_between_processes(self) -> None:
        cluster = Cluster.build(3, recorder_factory, seed=4)
        cluster.start_all()
        cluster.process(0).broadcast(Probe(0))
        cluster.run_for(1.0)
        assert len(cluster.process(1).received) == 1
        assert cluster.metrics.total_sent == 2

    def test_seed_changes_timing(self) -> None:
        def delays(seed: int) -> list[float]:
            cluster = Cluster.build(2, recorder_factory, seed=seed, trace=True)
            cluster.start_all()
            cluster.process(0).send(1, Probe(0))
            cluster.run_for(1.0)
            return [d.delay for d in cluster.trace.deliveries()]

        assert delays(1) != delays(2)
        assert delays(3) == delays(3)
