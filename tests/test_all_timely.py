"""Behavioural tests for the all-timely baseline Omega."""

from __future__ import annotations

from repro.core import analyze_omega_run, communication_report, make_factory
from repro.core.config import OmegaConfig
from repro.sim import Cluster, FaultPlan, LinkTimings
from repro.sim.topology import all_eventually_timely_links, all_timely_links


def build(n: int = 5, seed: int = 1, gst: float = 3.0,
          eventually: bool = True) -> Cluster:
    timings = LinkTimings(gst=gst)
    links = (all_eventually_timely_links(n, timings) if eventually
             else all_timely_links(n, timings))
    return Cluster.build(n, make_factory("all-timely", OmegaConfig()),
                         links=links, seed=seed)


class TestConvergence:
    def test_elects_smallest_id_failure_free(self) -> None:
        cluster = build()
        cluster.start_all()
        cluster.run_until(60.0)
        report = analyze_omega_run(cluster)
        assert report.omega_holds
        assert report.final_leader == 0

    def test_stabilizes_soon_after_gst(self) -> None:
        cluster = build(gst=5.0)
        cluster.start_all()
        cluster.run_until(120.0)
        report = analyze_omega_run(cluster)
        assert report.stabilization_time is not None
        assert report.stabilization_time < 40.0

    def test_with_timely_links_from_start_stabilizes_fast(self) -> None:
        cluster = build(eventually=False)
        cluster.start_all()
        cluster.run_until(30.0)
        report = analyze_omega_run(cluster)
        assert report.omega_holds
        assert report.stabilization_time < 5.0


class TestFailover:
    def test_leader_crash_elects_next_id(self) -> None:
        cluster = build()
        FaultPlan.crashes_at((20.0, 0)).schedule(cluster)
        cluster.start_all()
        cluster.run_until(90.0)
        report = analyze_omega_run(cluster)
        assert report.omega_holds
        assert report.final_leader == 1

    def test_cascade_of_crashes(self) -> None:
        cluster = build(n=5)
        FaultPlan.crashes_at((20.0, 0), (40.0, 1), (60.0, 2)).schedule(cluster)
        cluster.start_all()
        cluster.run_until(140.0)
        report = analyze_omega_run(cluster)
        assert report.omega_holds
        assert report.final_leader == 3

    def test_crashed_process_never_readopted(self) -> None:
        cluster = build()
        FaultPlan.crashes_at((20.0, 0)).schedule(cluster)
        cluster.start_all()
        cluster.run_until(90.0)
        for pid in cluster.up_pids():
            history = cluster.process(pid).history
            # After the post-crash switch, 0 must not reappear.
            later = [leader for time, leader in history if time > 40.0]
            assert 0 not in later


class TestCost:
    def test_everyone_keeps_sending(self) -> None:
        cluster = build(n=5)
        cluster.start_all()
        cluster.run_until(60.0)
        comm = communication_report(cluster, window=10.0)
        assert comm.senders == frozenset(range(5))
        assert len(comm.links) == 20, "n(n-1) links stay busy"

    def test_not_communication_efficient(self) -> None:
        cluster = build()
        cluster.start_all()
        cluster.run_until(60.0)
        report = analyze_omega_run(cluster)
        comm = communication_report(cluster, window=10.0)
        assert not comm.is_communication_efficient(report.final_leader)


class TestSuspicionMechanics:
    def test_false_suspicions_stop_after_timeout_growth(self) -> None:
        cluster = build(gst=8.0)
        cluster.start_all()
        cluster.run_until(150.0)
        # After stabilization nothing should be suspected among correct.
        for pid in cluster.pids:
            process = cluster.process(pid)
            assert process.suspected == set()

    def test_heartbeat_clears_suspicion(self) -> None:
        cluster = build(gst=0.0)  # timely immediately
        cluster.start_all()
        cluster.run_until(5.0)
        process = cluster.process(3)
        process.suspected.add(0)
        cluster.run_until(8.0)
        assert 0 not in process.suspected
