"""Behavioural tests for the replicated log (repeated consensus)."""

from __future__ import annotations

from conftest import drip

from repro.consensus import (
    Accepted,
    ConsensusSystem,
    Decide,
    DecideAck,
    LogReplica,
    Promise,
    check_log,
)
from repro.consensus.replica import PHASE_FOLLOWER
from repro.sim import FaultPlan, LinkTimings
from repro.sim.engine import Simulation
from repro.sim.network import Network
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


class TestWatermarks:
    def test_a_new_leader_sends_no_decide_at_or_below_a_reported_watermark(
            self) -> None:
        # 140 commands, the leader crashed once the log is past 100: the
        # prepare round's promises seed the new leader's watermarks, so
        # it never probes a peer from instance 0.
        system = build(seed=5)
        fleet = drip(140, 0.2, start=5.0).drive(system)
        reports: dict[int, dict[int, int]] = {pid: {} for pid in system.pids}
        decided: list[tuple[int, int, int]] = []  # (instance, dst, report)
        for pid in system.pids:
            replica = system.node(pid).agreement

            def on_message(message, replica=replica,  # noqa: ANN001
                           handle=replica.on_message) -> None:
                if isinstance(message, (Accepted, Promise, DecideAck)):
                    reports[replica.pid][message.sender] = \
                        message.commit_through
                handle(message)

            def send(dst, message, replica=replica,  # noqa: ANN001
                     send=replica.send) -> None:
                for instance, _ in getattr(message, "entries", ()):
                    decided.append((instance, dst,
                                    reports[replica.pid].get(dst, -1)))
                send(dst, message)

            replica.on_message, replica.send = on_message, send
        system.start_all()
        # Until the leader's log is past 100, bounded well before the
        # drip's last submit (32.8 s), so the crash still lands under
        # load.
        deadline = 27.0
        system.run_until(deadline)
        while system.node(system.node(0).omega.leader()) \
                .agreement.commit_index < 100 and deadline < 31.0:
            deadline += 0.1
            system.run_until(deadline)
        leader = system.node(0).omega.leader()
        assert system.node(leader).agreement.commit_index >= 100
        before = len(decided)
        system.crash(leader)
        system.run_until(150.0)
        assert check_log(system, fleet.group_payloads[0]).verdict()
        assert fleet.done()
        after = decided[before:]
        assert all(instance > report for instance, _, report in after)
        # Not vacuous: the new leader did spread above high watermarks.
        assert any(report >= 100 for _, _, report in after)

    @staticmethod
    def _five_by_hand():  # noqa: ANN205
        """Five unstarted replicas, p0 and p1 trusting p0 and the rest
        p2, whose sends wait in an outbox until delivered by hand."""
        sim = Simulation()
        network = Network(sim)
        trusts = {0: 0, 1: 0, 2: 2, 3: 2, 4: 2}
        replicas = [LogReplica(pid, sim, network, 5,
                               leader_of=lambda pid=pid: trusts[pid])
                    for pid in range(5)]
        outbox: list = []
        for replica in replicas:
            replica.send = (lambda dst, message, src=replica.pid:
                            outbox.append((src, dst, message)))

        def deliver(src: int, dst: int) -> None:
            for item in [item for item in outbox if item[:2] == (src, dst)]:
                outbox.remove(item)
                replicas[dst].deliver(item[2])

        return replicas, deliver

    def test_a_leader_outvoted_on_an_open_slot_steps_down(self) -> None:
        # p0 leads with {p0, p1, p3} and only p1 accepts its value "p" at
        # instance 0; p2 leads a higher ballot with {p2, p3, p4}, which
        # never saw "p", and decides "v" there.  When p0 learns "v" its
        # ballot is dead: had it gone on leading, its next Propose's
        # commit piggyback (commit_through = 0) would teach p1 its own
        # accepted "p" — two values at instance 0.
        replicas, deliver = self._five_by_hand()
        old, voter, new = replicas[0], replicas[1], replicas[2]
        for leader, quorum, command in ((old, (1, 3), "p"),
                                        (new, (3, 4), "v")):
            leader._start_ballot(0)
            for peer in quorum:
                deliver(leader.pid, peer)
                deliver(peer, leader.pid)
            leader.submit(command, command.upper())  # proposed at once
            for peer in ((1,) if leader is old else quorum):
                deliver(leader.pid, peer)
                deliver(peer, leader.pid)
        assert voter.accepted[0][1] == ("p", "P")
        assert new.log == {0: ("v", "V")}
        old.deliver(Decide(2, 0, ("v", "V")))
        assert old.phase == PHASE_FOLLOWER
        old.submit("q", "Q")
        old._pass()  # the next tick: a fresh ballot, not a Propose
        deliver(0, 1)
        assert voter.log.get(0, ("v", "V")) == ("v", "V")

    def test_a_leader_proposes_what_it_already_knows_decided(self) -> None:
        # p0's prepare reaches p1 and p3 first; then p2 prepares with
        # {p2, p3, p4}, decides "v" at instance 0 and tells p0, which is
        # still preparing.  p0's promises report nothing at 0, so its
        # next slot is 0: it must propose "v" there, or p1 would accept
        # p0's "p" and learn it from p0's next piggyback.
        replicas, deliver = self._five_by_hand()
        old, voter, new = replicas[0], replicas[1], replicas[2]
        old._start_ballot(0)
        deliver(0, 1)
        deliver(0, 3)
        new._start_ballot(0)
        new.submit("v", "V")
        for peer in (3, 4):
            deliver(2, peer)
            deliver(peer, 2)
        for peer in (3, 4):
            deliver(2, peer)
            deliver(peer, 2)
        assert new.log == {0: ("v", "V")}
        old.deliver(Decide(2, 0, ("v", "V")))
        old.submit("p", "P")
        for peer in (1, 3):
            deliver(peer, 0)
        deliver(0, 1)
        old.submit("q", "Q")  # slot 0 is open: it waits for the tick
        old._pump_proposals()
        deliver(0, 1)
        assert voter.log.get(0) == ("v", "V")
