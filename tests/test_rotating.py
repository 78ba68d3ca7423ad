"""Tests for the rotating-coordinator baseline."""

from __future__ import annotations

import pytest

from repro.consensus import RotatingLeaderOracle, build_rotating_single_decree
from repro.sim import FaultPlan, LinkTimings, Simulation
from repro.sim.topology import source_links

TIMINGS = LinkTimings(gst=3.0)


class TestOracle:
    def test_rotation_by_time_slice(self) -> None:
        sim = Simulation()
        oracle = RotatingLeaderOracle(sim, n=3, slot=2.0)
        assert oracle.current_owner() == 0
        sim.run_until(2.0)
        assert oracle.current_owner() == 1
        sim.run_until(4.5)
        assert oracle.current_owner() == 2
        sim.run_until(6.0)
        assert oracle.current_owner() == 0

    def test_offset_desynchronizes(self) -> None:
        sim = Simulation()
        ahead = RotatingLeaderOracle(sim, n=4, slot=2.0, offset=2.0)
        behind = RotatingLeaderOracle(sim, n=4, slot=2.0)
        assert ahead.current_owner() == behind.current_owner() + 1

    def test_validation(self) -> None:
        sim = Simulation()
        with pytest.raises(ValueError):
            RotatingLeaderOracle(sim, n=0)
        with pytest.raises(ValueError):
            RotatingLeaderOracle(sim, n=3, slot=0.0)


class TestRotatingConsensus:
    def build(self, seed: int = 1, n: int = 5):  # noqa: ANN201
        return build_rotating_single_decree(
            n, lambda: source_links(n, 1, TIMINGS),
            proposals=[f"v{i}" for i in range(n)], seed=seed)

    def test_proposal_count_validated(self) -> None:
        with pytest.raises(ValueError):
            build_rotating_single_decree(
                3, lambda: source_links(3, 0, TIMINGS), proposals=["x"])

    def test_eventually_decides_failure_free(self) -> None:
        cluster = self.build()
        cluster.start_all()
        cluster.run_until(200.0)
        decisions = {cluster.process(pid).decision
                     for pid in cluster.up_pids()}
        assert len(decisions) == 1 and None not in decisions

    def test_safe_and_live_under_minority_crashes(self) -> None:
        cluster = self.build(seed=3)
        FaultPlan.crashes_at((1.0, 0), (3.0, 4)).schedule(cluster)
        cluster.start_all()
        cluster.run_until(300.0)
        decided = {pid: cluster.process(pid).decision
                   for pid in cluster.up_pids()
                   if cluster.process(pid).decision is not None}
        values = set(decided.values())
        assert len(values) == 1
        assert set(decided) == set(cluster.up_pids())

    def test_agreement_across_seeds(self) -> None:
        for seed in range(4):
            cluster = self.build(seed=seed)
            cluster.start_all()
            cluster.run_until(250.0)
            values = {cluster.process(pid).decision
                      for pid in cluster.up_pids()
                      if cluster.process(pid).decision is not None}
            assert len(values) <= 1, f"seed {seed} violated agreement"

    def test_same_protocol_runs_under_both_leadership_regimes(self) -> None:
        # The motivating comparison (quantified in bench E13): the same
        # ballot protocol stays safe and live whether leadership comes
        # from rotation or from Omega.  Per-seed decision times can go
        # either way; the aggregate costs are the benchmark's business.
        from repro.consensus import ConsensusSystem, check_single_decree

        rotating = self.build(seed=2)
        FaultPlan.crashes_at((1.0, 0)).schedule(rotating)
        rotating.start_all()
        rotating.run_until(300.0)
        rotating_decisions = [rotating.process(pid).decision_time
                              for pid in rotating.up_pids()]
        assert all(t is not None for t in rotating_decisions)

        omega = ConsensusSystem.build_single_decree(
            5, lambda: source_links(5, 1, TIMINGS),
            proposals=[f"v{i}" for i in range(5)], seed=2)
        FaultPlan.crashes_at((1.0, 0)).schedule(omega)
        omega.start_all()
        omega.run_until(300.0)
        report = check_single_decree(omega)
        assert report.all_correct_decided
