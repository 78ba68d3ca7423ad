"""Behavioural tests for the communication-efficient Omega (R2, headline)."""

from __future__ import annotations

from repro.core import analyze_omega_run, communication_report, make_factory
from repro.core.config import OmegaConfig
from repro.sim import Cluster, LinkTimings
from repro.sim.topology import multi_source_links, source_links


def build(n: int = 6, source: int = 2, seed: int = 1, gst: float = 4.0,
          sources: tuple[int, ...] = ()) -> Cluster:
    timings = LinkTimings(gst=gst)
    if sources:
        links = multi_source_links(n, sources, timings)
    else:
        links = source_links(n, source, timings)
    return Cluster.build(n, make_factory("comm-efficient", OmegaConfig()),
                         links=links, seed=seed)


class TestCommunicationEfficiency:
    def test_eventually_only_leader_sends(self) -> None:
        cluster = build()
        cluster.start_all()
        cluster.run_until(150.0)
        report = analyze_omega_run(cluster)
        comm = communication_report(cluster, window=20.0)
        assert report.omega_holds
        assert comm.is_communication_efficient(report.final_leader)

    def test_exactly_n_minus_1_links_carry_traffic(self) -> None:
        cluster = build(n=6)
        cluster.start_all()
        cluster.run_until(150.0)
        comm = communication_report(cluster, window=20.0)
        assert len(comm.links) == 5
        leader = analyze_omega_run(cluster).final_leader
        assert comm.links == frozenset((leader, dst) for dst in range(6)
                                       if dst != leader)

    def test_everyone_sends_initially(self) -> None:
        cluster = build()
        cluster.start_all()
        cluster.run_until(2.0)
        early = cluster.metrics.senders_between(0.0, 2.0)
        assert early == set(range(6)), "all start as self-leaders"

    def test_message_volume_far_below_baseline(self) -> None:
        ce = build(n=6)
        ce.start_all()
        ce.run_until(200.0)
        ce_tail = ce.metrics.messages_between(150.0, 200.0)

        baseline = Cluster.build(
            6, make_factory("source", OmegaConfig()),
            links=source_links(6, 2, LinkTimings(gst=4.0)), seed=1)
        baseline.start_all()
        baseline.run_until(200.0)
        base_tail = baseline.metrics.messages_between(150.0, 200.0)
        assert ce_tail * 4 < base_tail, \
            "steady-state CE traffic must be a small fraction of all-to-all"


class TestConvergence:
    def test_converges_across_seeds(self) -> None:
        for seed in range(6):
            cluster = build(seed=seed)
            cluster.start_all()
            cluster.run_until(200.0)
            assert analyze_omega_run(cluster).omega_holds, f"seed {seed}"

    def test_duelling_candidates_resolve(self) -> None:
        # A staggered start maximizes the window where several processes
        # believe they lead; the priority race must still collapse to one.
        cluster = build(seed=3)
        cluster.start_all(stagger=2.0)
        cluster.run_until(200.0)
        report = analyze_omega_run(cluster)
        assert report.omega_holds
        comm = communication_report(cluster, window=20.0)
        assert comm.is_communication_efficient(report.final_leader)


class TestFailover:
    def test_leader_crash_failover_with_second_source(self) -> None:
        cluster = build(n=6, sources=(1, 2))
        cluster.start_all()
        cluster.run_until(80.0)
        first = analyze_omega_run(cluster).final_leader
        assert first is not None
        cluster.crash(first)
        cluster.run_until(400.0)
        report = analyze_omega_run(cluster)
        assert report.omega_holds
        assert report.final_leader != first
        comm = communication_report(cluster, window=20.0)
        assert comm.is_communication_efficient(report.final_leader)

    def test_silence_after_adoption(self) -> None:
        cluster = build()
        cluster.start_all()
        cluster.run_until(150.0)
        report = analyze_omega_run(cluster)
        # Every non-leader must have been silent for the whole tail.
        tail_senders = cluster.metrics.senders_between(130.0, 150.0)
        assert tail_senders == {report.final_leader}


class TestPriorities:
    def test_final_leader_has_minimal_priority(self) -> None:
        cluster = build()
        cluster.start_all()
        cluster.run_until(150.0)
        report = analyze_omega_run(cluster)
        leader = report.final_leader
        leader_priority = (cluster.process(leader).counter, leader)
        for pid in cluster.up_pids():
            process = cluster.process(pid)
            view = (process.counters.get(leader, 0), leader)
            own = (process.counter, pid)
            assert view <= own or pid == leader
        assert leader_priority <= (cluster.process(leader).counter, leader)
