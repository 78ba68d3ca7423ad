"""Property-based tests: consensus safety under adversarial conditions.

Safety (agreement + validity) must hold for *every* schedule — including
runs where the leader oracle misbehaves arbitrarily.  These tests drive
the protocol with random seeds, random minority crash sets, and a
deliberately chaotic rotating "leader" oracle that makes several
processes propose concurrently.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import drip

from repro.consensus import (
    ConsensusSystem,
    SingleDecreeConsensus,
    check_log,
    check_single_decree,
)
from repro.sim import FaultPlan, LinkTimings
from repro.sim.cluster import Cluster
from repro.sim.topology import source_links

FAST = LinkTimings(gst=3.0, pre_gst_delay_max=2.0)


class TestSingleDecreeSafety:
    @given(seed=st.integers(min_value=0, max_value=10_000),
           victims=st.sets(st.sampled_from([0, 2, 3, 4]), max_size=2),
           crash_time=st.floats(min_value=0.5, max_value=20.0))
    @settings(max_examples=12, deadline=None)
    def test_agreement_and_validity_with_minority_crashes(
            self, seed: int, victims: set[int], crash_time: float) -> None:
        system = ConsensusSystem.build_single_decree(
            5, lambda: source_links(5, 1, FAST),
            proposals=[f"v{i}" for i in range(5)], seed=seed)
        crashes = tuple((crash_time + i, pid)
                        for i, pid in enumerate(sorted(victims)))
        if crashes:
            FaultPlan.crashes_at(*crashes).schedule(system)
        system.start_all()
        system.run_until(250.0)
        report = check_single_decree(system)
        assert report.agreement
        assert report.validity
        assert report.all_correct_decided

    @given(seed=st.integers(min_value=0, max_value=10_000),
           rotation=st.floats(min_value=0.3, max_value=3.0))
    @settings(max_examples=12, deadline=None)
    def test_safety_under_chaotic_leader_oracle(self, seed: int,
                                                rotation: float) -> None:
        # Every process believes it leads whenever (now / rotation) % n
        # equals its pid — several "leaders" overlap during transitions
        # and ballots duel constantly.  Safety must survive; liveness is
        # not asserted.
        n = 4

        def factory(pid, sim, network):  # noqa: ANN001, ANN202
            return SingleDecreeConsensus(
                pid, sim, network, n, f"v{pid}",
                leader_of=lambda: int(sim.now / rotation) % n)

        cluster = Cluster.build(n, factory,
                                links=source_links(n, 0, FAST), seed=seed)
        cluster.start_all()
        cluster.run_until(120.0)
        decided = {}
        proposals = set()
        for pid in cluster.pids:
            process = cluster.process(pid)
            proposals.add(process.proposal)
            if process.decision is not None:
                decided[pid] = process.decision
        assert len(set(decided.values())) <= 1, "agreement violated"
        assert set(decided.values()) <= proposals, "validity violated"


class TestReplicatedLogSafety:
    @given(seed=st.integers(min_value=0, max_value=10_000),
           victim=st.sampled_from([0, 2, 3]),
           crash_time=st.floats(min_value=2.0, max_value=25.0))
    @settings(max_examples=8, deadline=None)
    def test_prefix_agreement_with_crash(self, seed: int, victim: int,
                                         crash_time: float) -> None:
        system = ConsensusSystem.build_replicated_log(
            4, lambda: source_links(4, 1, FAST), seed=seed)
        fleet = drip(12, 0.7, start=2.0).drive(system)
        FaultPlan.crashes_at((crash_time, victim)).schedule(system)
        system.start_all()
        system.run_until(250.0)
        report = check_log(system, fleet.group_payloads[0])
        assert report.agreement
        assert report.validity
