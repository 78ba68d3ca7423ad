"""Behavioural tests for the replicated log (repeated consensus)."""

from __future__ import annotations

from conftest import drip

from repro.consensus import (
    ConsensusSystem,
    LogReplica,
    check_log,
)
from repro.sim import FaultPlan, LinkTimings
from repro.sim.topology import multi_source_links, source_links


def build(n: int = 5, seed: int = 1, sources: tuple[int, ...] = (1,),
          gst: float = 3.0, **kwargs) -> ConsensusSystem:  # noqa: ANN003
    timings = LinkTimings(gst=gst)
    return ConsensusSystem.build_replicated_log(
        n, lambda: multi_source_links(n, sources, timings), seed=seed,
        **kwargs)


class TestHappyPath:
    def test_commands_commit_everywhere(self) -> None:
        system = build()
        fleet = drip(20, 0.5, start=5.0).drive(system)
        system.start_all()
        system.run_until(120.0)
        report = check_log(system, fleet.group_payloads[0])
        assert report.agreement and report.validity
        assert fleet.done()
        assert all(count >= 20 for count in report.committed_by_pid.values())

    def test_every_command_exactly_once_in_state_machine(self) -> None:
        system = build(seed=2)
        fleet = drip(15, 0.5, start=5.0).drive(system)
        system.start_all()
        system.run_until(120.0)
        for pid in system.up_pids():
            replica = system.node(pid).agreement
            assert isinstance(replica, LogReplica)
            applied = replica.applied_commands()
            assert sorted(applied) == sorted(fleet.group_payloads[0])

    def test_logs_are_prefix_consistent_midway(self) -> None:
        system = build(seed=3)
        drip(30, 0.3, start=5.0).drive(system)
        system.start_all()
        system.run_until(25.0)  # mid-flight on purpose
        prefixes = {}
        for pid in system.up_pids():
            prefixes[pid] = system.node(pid).agreement.committed_prefix()
        lengths = {pid: len(p) for pid, p in prefixes.items()}
        longest = max(lengths, key=lengths.get)
        for pid, prefix in prefixes.items():
            assert prefixes[longest][:len(prefix)] == prefix

    def test_submit_to_follower_is_forwarded(self) -> None:
        system = build(seed=4)
        system.start_all()
        system.run_until(30.0)
        leader = system.node(0).omega.leader()
        follower = next(pid for pid in system.up_pids() if pid != leader)
        system.node(follower).agreement.submit(1000, "forwarded-cmd")
        system.run_until(90.0)
        report = check_log(system, {"forwarded-cmd"})
        assert report.agreement and report.validity
        assert report.max_committed >= 1


class TestLeaderCrash:
    def test_failover_preserves_log(self) -> None:
        system = build(sources=(1, 2), seed=5)
        fleet = drip(30, 0.5, start=5.0).drive(system)
        system.start_all()
        system.run_until(15.0)
        leader = system.node(3).omega.leader()
        system.crash(leader)
        system.run_until(400.0)
        report = check_log(system, fleet.group_payloads[0])
        assert report.agreement and report.validity
        # every command still committed at every correct replica
        for pid in system.up_pids():
            replica = system.node(pid).agreement
            assert sorted(replica.applied_commands()) == \
                sorted(fleet.group_payloads[0])

    def test_noop_fill_after_takeover(self) -> None:
        # A new leader must be able to fill gaps it inherits; run a
        # takeover-heavy schedule and just assert logs agree at the end.
        system = build(sources=(1, 2), seed=6)
        fleet = drip(25, 0.4, start=5.0).drive(system)
        FaultPlan.crashes_at((12.0, 1)).schedule(system)
        system.start_all()
        system.run_until(400.0)
        report = check_log(system, fleet.group_payloads[0])
        assert report.agreement and report.validity
        assert fleet.done()


class TestCommunicationPattern:
    def test_steady_state_uses_leader_adjacent_links_only(self) -> None:
        system = build(seed=7)
        drip(10, 0.5, start=5.0).drive(system)
        system.start_all()
        system.run_until(150.0)
        leader = system.node(0).omega.leader()
        links = system.agreement_network.metrics.links_between(130.0, 150.0)
        for src, dst in links:
            assert src == leader or dst == leader, \
                f"non-leader-adjacent link {(src, dst)} active in steady state"

    def test_quiescence_with_no_commands(self) -> None:
        system = build(seed=8)
        system.start_all()
        system.run_until(100.0)
        # No workload: after initial leader establishment the agreement
        # network should be fully quiet (Omega chatter is on the other
        # network).
        tail = system.agreement_network.metrics.messages_between(80.0, 100.0)
        assert tail == 0


class TestDeduplication:
    def test_resubmitted_commands_apply_once(self) -> None:
        system = build(seed=9)
        system.start_all()
        system.run_until(30.0)
        leader = system.node(0).omega.leader()
        replica = system.node(leader).agreement
        for _ in range(5):
            replica.submit(77, "dup-cmd")
        system.run_until(90.0)
        for pid in system.up_pids():
            applied = system.node(pid).agreement.applied_commands()
            assert applied.count("dup-cmd") == 1
