"""Retransmission pacing of the consensus drivers (docs/RECOVERY.md).

The log leader resends an open slot's ``Propose`` to a peer only once
that peer's measured round trip (its RTO, floored at one driver tick)
has passed since its last copy.

With ``persist=True`` the driver's sends then pass a per-peer backoff
gate.  The gate decides **once per driver pass**: a due peer gets
everything the pass has for it (its decisions as one message), a
backing-off peer gets nothing, and toward a peer that never answers the
number of passes that send anything stays logarithmic up to
``BACKOFF_CAP``.  All on simulated time.
"""

from __future__ import annotations

import json
import math
from functools import partial
from pathlib import Path

import pytest

from repro.consensus.config import BACKOFF_CAP, ConsensusConfig
from repro.consensus.messages import (
    Accepted,
    Ballot,
    Decides,
    Prepare,
    Propose,
)
from repro.consensus.replica import (
    PHASE_FOLLOWER,
    PHASE_LEADING,
    LogReplica,
)
from repro.consensus.retransmit import RetransmitGate, RoundTripTimer
from repro.consensus.single import SingleDecreeConsensus
from repro.harness import bench
from repro.load import LoadSpec
from repro.sim.engine import Simulation
from repro.sim.network import Network

CONFIG = ConsensusConfig()  # tick 0.5, max_batch 8


def record_sends(process) -> list:  # noqa: ANN001
    """Log ``(time, peer, message)`` for everything ``process`` sends."""
    sent: list = []
    send = process.send

    def recording(peer, message) -> None:  # noqa: ANN001
        sent.append((process.now, peer, message))
        send(peer, message)

    process.send = recording
    return sent


def capture_sends(process) -> list:  # noqa: ANN001
    """Log ``(time, peer, message)`` for everything ``process`` sends,
    and deliver none of it: a hand-driven schedule."""
    sent: list = []
    process.send = lambda peer, message: sent.append(
        (process.now, peer, message))
    return sent


def silent_peer_bound(horizon: float) -> float:
    """Passes that may send toward a peer that never answers."""
    return (math.log2(BACKOFF_CAP / CONFIG.tick)
            + horizon / BACKOFF_CAP + 1)


def bursts_toward(sent: list, peer: int) -> dict[float, int]:
    """Messages per send instant toward ``peer``."""
    bursts: dict[float, int] = {}
    for time, dst, _ in sent:
        if dst == peer:
            bursts[time] = bursts.get(time, 0) + 1
    return bursts


class TestGate:
    def test_verdict_is_held_for_the_pass_not_rederived_from_the_clock(
            self) -> None:
        gate = RetransmitGate(CONFIG)
        gate.begin_pass()
        # A live clock moves between two sends of one pass.
        assert all(gate.admits(1, 10.0 + step / 1000) for step in range(5))
        # Next pass, inside the backoff interval: nothing passes.
        gate.begin_pass()
        assert not any(gate.admits(1, 10.2) for _ in range(5))
        assert (gate.sent, gate.gated) == (5, 5)

    def test_backoff_advances_once_per_sending_pass_up_to_the_cap(
            self) -> None:
        gate = RetransmitGate(CONFIG)
        now, gaps = 0.0, []
        for _ in range(7):
            gate.begin_pass()
            assert gate.admits(2, now) and gate.admits(2, now)
            gaps.append(gate._retry_at[2] - now)
            now = gate._retry_at[2]
        assert gaps == [0.5, 1.0, 2.0, 4.0, 8.0, 8.0, 8.0]

    def test_a_pass_that_sends_nothing_does_not_back_off(self) -> None:
        gate = RetransmitGate(CONFIG)
        for _ in range(100):
            gate.begin_pass()
        assert gate.admits(3, 50.0)

    def test_sign_of_life_resets_and_recovery_keeps_the_counters(
            self) -> None:
        gate = RetransmitGate(CONFIG)
        gate.begin_pass()
        assert gate.admits(1, 0.0)
        gate.begin_pass()
        assert not gate.admits(1, 0.1)
        gate.begin_pass(heard=1)
        assert gate.admits(1, 0.2)
        gate.forget()
        gate.begin_pass()
        assert gate.admits(1, 0.3)
        assert (gate.sent, gate.gated) == (3, 1)

    def test_both_consensus_classes_share_the_one_gate(self) -> None:
        sim = Simulation()
        network = Network(sim)
        log = LogReplica(0, sim, network, 3, leader_of=lambda: 0,
                         persist=True)
        single = SingleDecreeConsensus(1, sim, network, 3, "v",
                                       leader_of=lambda: 1, persist=True)
        assert type(log._gate) is type(single._gate) is RetransmitGate
        for process in (log, single):
            assert not hasattr(process, "_retry_at")


def leading_replica(open_slots: int, unacked: int,
                    config: ConsensusConfig = CONFIG) -> LogReplica:
    """A persisted n=3 leader with ``unacked`` decided entries below its
    open slots, and no watermark heard from either peer."""
    sim = Simulation()
    network = Network(sim)
    replicas = [LogReplica(pid, sim, network, 3, leader_of=lambda: 0,
                           config=config, persist=True) for pid in range(3)]
    leader = replicas[0]
    leader.owner.ballot = Ballot(0, 0)
    leader.phase = PHASE_LEADING
    for instance in range(unacked):
        leader.log[instance] = (("d", instance), "x")
    leader.commit_index = unacked - 1
    for instance in range(unacked, unacked + open_slots):
        leader._open_slot(instance, (("p", instance), "y"))
    leader._next_instance = unacked + open_slots
    return leader


class TestLogReplicaPass:
    def test_one_pass_sends_every_propose_and_the_budgeted_decides(
            self) -> None:
        leader = leading_replica(open_slots=5, unacked=12)
        sent = record_sends(leader)
        leader._drive()
        for peer in (1, 2):
            proposes = [m.instance for _, dst, m in sent
                        if dst == peer and isinstance(m, Propose)]
            decides = [[instance for instance, _ in m.entries]
                       for _, dst, m in sent
                       if dst == peer and isinstance(m, Decides)]
            assert proposes == list(range(12, 17))
            assert decides == [list(range(CONFIG.max_batch))]
        stats = leader.load_stats()
        assert stats["retransmits_sent"] == len(sent) == 2 * (5 + 1)
        assert stats["retransmits_gated"] == 0

    def test_next_pass_sends_only_to_the_peer_that_answered(self) -> None:
        leader = leading_replica(open_slots=3, unacked=2)
        sent = capture_sends(leader)
        # Ticks at 0 and 0.5 reach both peers; the gate's interval toward
        # each is one tick, then two.
        leader._drive()
        leader.sim.run_until(CONFIG.tick)
        leader._drive()
        assert {dst for _, dst, _ in sent} == {1, 2}
        assert leader.load_stats()["retransmits_gated"] == 0
        # Peer 1 answers slot 2 (a delivery is a pass; nothing to pump in
        # it), which closes on that vote and the leader's durable one.
        # On the next tick peer 1 is due again, the silent peer 2 is not.
        leader.sim.run_until(1.4 * CONFIG.tick)
        leader.deliver(Accepted(1, leader.ballot, 2))
        assert 2 not in leader._open
        sent.clear()
        leader.sim.run_until(2 * CONFIG.tick)
        leader._drive()
        assert sent and {dst for _, dst, _ in sent} == {1}
        assert [m.instance for _, _, m in sent
                if isinstance(m, Propose)] == [3, 4]
        # Toward peer 2: the two open slots' Proposes and the one Decides.
        assert leader.load_stats()["retransmits_gated"] == 3

    def test_a_sync_that_commits_at_once_continues_the_pass(self) -> None:
        # With a synchronous store (the live FileStorage) the round's
        # write-ahead callback runs inside the tick that started it, and
        # every peer gets its Prepare in that pass.  A replica that is
        # not yet leading spreads no decisions.
        leader = leading_replica(
            open_slots=0, unacked=2,
            config=ConsensusConfig(sync_latency=0.0))
        leader.phase = PHASE_FOLLOWER
        sent = record_sends(leader)
        leader._drive()
        for peer in (1, 2):
            kinds = [type(m) for _, dst, m in sent if dst == peer]
            assert kinds == [Prepare]
        assert {time for time, _, _ in sent} == {leader.now}

    def test_unpersisted_replica_never_consults_the_gate(self) -> None:
        sim = Simulation()
        network = Network(sim)
        replicas = [LogReplica(pid, sim, network, 3, leader_of=lambda: 0)
                    for pid in range(3)]
        replicas[0].start()
        replicas[0].submit(1, "a")
        sim.run_until(3.0)
        stats = replicas[0].load_stats()
        assert stats["retransmits_sent"] == stats["retransmits_gated"] == 0

    def test_crashed_peer_costs_logarithmically_many_bounded_bursts(
            self) -> None:
        horizon = 60.0
        sim = Simulation()
        network = Network(sim)
        replicas = [LogReplica(pid, sim, network, 3, leader_of=lambda: 0,
                               config=CONFIG, persist=True)
                    for pid in range(3)]
        leader = replicas[0]
        sent = record_sends(leader)
        leader.start()
        replicas[1].start()  # peer 2 is down for the whole run
        for index in range(int(horizon * 3)):
            sim.call_at(index / 3, partial(leader.submit, index, "w"))
        sim.run_until(horizon)
        assert leader.commit_index >= horizon * 3 - 8
        bursts = bursts_toward(sent, 2)
        assert 4 <= len(bursts) <= silent_peer_bound(horizon)
        assert max(bursts.values()) <= 2 * CONFIG.max_batch
        # The live peer is served every tick.
        assert len(bursts_toward(sent, 1)) >= horizon / CONFIG.tick - 2
        assert leader.load_stats()["retransmits_gated"] > 0


def hand_driven_leader(n: int = 5) -> tuple[Simulation, LogReplica, list]:
    """An unpersisted log leader holding a prepared ballot, alone on its
    network: nothing it sends is delivered, every reply is by hand, and
    each ``_drive()`` is one driver tick."""
    sim = Simulation()
    leader = LogReplica(0, sim, Network(sim), n, leader_of=lambda: 0,
                        config=CONFIG)
    leader.owner.ballot = Ballot(0, 0)
    leader.phase = PHASE_LEADING
    return sim, leader, capture_sends(leader)


def tick(sim: Simulation, leader: LogReplica, at: float) -> None:
    sim.run_until(at)
    leader._drive()


def submit(sim: Simulation, leader: LogReplica, at: float,
           command_id: object, command: object) -> None:
    """Submit at ``at``: with no slot open the leader proposes at once,
    so a submit at a tick instant puts the first copies on the tick
    grid."""
    sim.run_until(at)
    leader.submit(command_id, command)


def accept(sim: Simulation, leader: LogReplica, at: float, peer: int,
           instance: int) -> None:
    sim.run_until(at)
    leader.deliver(Accepted(peer, leader.ballot, instance))


def propose_times(sent: list, peer: int, instance: int) -> list[float]:
    return [time for time, dst, m in sent if dst == peer
            and isinstance(m, Propose) and m.instance == instance]


class TestRoundTripTimer:
    def test_rfc_6298_estimator_with_a_variance_weight_of_two(self) -> None:
        timer = RoundTripTimer(CONFIG)
        assert timer.rto(1) == CONFIG.tick  # unmeasured: the floor
        timer.sample(1, 0.4)  # SRTT 0.4, RTTVAR 0.2
        assert timer.rto(1) == pytest.approx(0.8)
        timer.sample(1, 0.8)  # RTTVAR 0.25, SRTT 0.45
        assert timer.rto(1) == pytest.approx(0.45 + 2 * 0.25)
        assert timer.rto(2) == CONFIG.tick  # per peer

    def test_floored_at_one_tick_and_capped_at_the_backoff_cap(
            self) -> None:
        timer = RoundTripTimer(CONFIG)
        timer.sample(1, 0.001)
        timer.sample(2, 60.0)
        assert (timer.rto(1), timer.rto(2)) == (CONFIG.tick, BACKOFF_CAP)

    def test_a_copy_is_due_only_in_a_later_tick(self) -> None:
        timer = RoundTripTimer(CONFIG)
        timer.begin_tick(1.0)
        assert not timer.due(1, 1.0, 1.0)  # sent in this very tick
        timer.begin_tick(1.499)  # a live clock's tick, slightly early
        assert timer.due(1, 1.0, 1.499)
        timer.sample(2, 0.4)  # RTO 0.8
        assert not timer.due(2, 1.0, 1.499)
        timer.begin_tick(1.998)
        assert timer.due(2, 1.0, 1.998)

    def test_recovery_forgets_every_measurement(self) -> None:
        sim, leader, _ = hand_driven_leader()
        leader._rtt.sample(4, 0.9)
        assert leader._rtt.rto(4) > CONFIG.tick
        leader.crash()
        leader.recover()
        assert leader._rtt.rto(4) == CONFIG.tick


class TestProposeResendsByRoundTrip:
    def test_a_reply_slower_than_a_tick_but_inside_the_rto_is_awaited(
            self) -> None:
        sim, leader, sent = hand_driven_leader()
        # Slot 0: fair-lossy peers 3 and 4 answer in 0.4 s and close it
        # (the leader's vote is the third); each RTO becomes 0.8 s.
        leader.submit("a", 1)
        tick(sim, leader, 0.0)
        accept(sim, leader, 0.4, 3, 0)
        accept(sim, leader, 0.4, 4, 0)
        assert leader.commit_index == 0
        assert leader._rtt.rto(4) == pytest.approx(0.8)
        # Slot 1: peer 3 answers at once, peer 4 takes 0.7 s — longer
        # than a tick, shorter than its RTO.  Peers 1 and 2 never
        # answered anything: their RTO is the floor.
        submit(sim, leader, 0.5, "b", 2)
        tick(sim, leader, 0.5)
        accept(sim, leader, 0.6, 3, 1)
        tick(sim, leader, 1.0)
        assert propose_times(sent, 4, 1) == [0.5]
        assert propose_times(sent, 1, 1) == propose_times(sent, 2, 1) \
            == [0.5, 1.0]
        accept(sim, leader, 1.2, 4, 1)
        assert leader.commit_index == 1
        # Its first copy, answered: a sample (SRTT 0.4375, RTTVAR 0.225).
        assert leader._rtt.rto(4) == pytest.approx(0.4375 + 2 * 0.225)

    def test_karn_a_reply_to_a_resent_slot_is_no_sample(self) -> None:
        sim, leader, sent = hand_driven_leader()
        leader.submit("a", 1)
        tick(sim, leader, 0.0)
        tick(sim, leader, 0.5)  # unmeasured peers: resent every tick
        assert propose_times(sent, 4, 0) == [0.0, 0.5]
        # Which copy does this answer?  0.7 s or 0.2 s: no sample.
        accept(sim, leader, 0.7, 4, 0)
        assert leader._rtt.rto(4) == CONFIG.tick
        # So the next slot is still resent to silent peer 4 at every
        # tick (a 0.7 s sample would have held it for 1.4 s).
        leader.submit("b", 2)
        tick(sim, leader, 1.0)
        tick(sim, leader, 1.5)
        assert propose_times(sent, 4, 1) == [1.0, 1.5]

    def test_a_fast_peer_is_resent_at_most_once_per_tick_early_or_not(
            self) -> None:
        sim, leader, sent = hand_driven_leader()
        # Peers 1 and 4 answer three slots within a millisecond.  Slot
        # 3's command comes while slot 2 is open, so it waits for the
        # next tick.
        for instance in range(3):
            submit(sim, leader, instance * CONFIG.tick, instance, "x")
            tick(sim, leader, instance * CONFIG.tick)
            if instance == 2:
                leader.submit(3, "x")
            for peer in (1, 4):
                accept(sim, leader, instance * CONFIG.tick + 0.001, peer,
                       instance)
        assert leader.commit_index == 2
        assert leader._rtt.rto(4) == CONFIG.tick
        # Slot 3 goes unanswered by peer 4 while ticks fire 1 ms early,
        # as a live clock's may; peer 1's reply is a pass in between.
        ticks = [1.5 + k * (CONFIG.tick - 0.001) for k in range(5)]
        for k, at in enumerate(ticks):
            tick(sim, leader, at)
            if k == 0:
                accept(sim, leader, at + 0.001, 1, 3)
        assert propose_times(sent, 4, 3) == ticks

    def test_a_dropped_accepted_is_recovered_once_the_rto_passes(
            self) -> None:
        sim, leader, sent = hand_driven_leader()
        leader.submit("a", 1)
        tick(sim, leader, 0.0)
        accept(sim, leader, 0.4, 3, 0)
        accept(sim, leader, 0.4, 4, 0)  # RTO 0.8 s
        submit(sim, leader, 0.5, "b", 2)
        tick(sim, leader, 0.5)
        accept(sim, leader, 0.6, 3, 1)
        # Peer 4's Accepted for slot 1 is lost on the way.
        for at in (1.0, 1.5, 2.0):
            tick(sim, leader, at)
        # Held at the 1.0 tick (0.5 s < 0.8 s), resent at 1.5, and not
        # again at 2.0: the resend is one tick old, its RTO not passed.
        assert propose_times(sent, 4, 1) == [0.5, 1.5]
        accept(sim, leader, 2.1, 4, 1)
        assert leader.commit_index == 1 and not leader._open


    def test_a_copy_the_rto_holds_back_never_reaches_the_gate(
            self) -> None:
        # Persisted n=3 leader, one open slot; peer 1's RTO is 1.8 s,
        # peer 2 is unmeasured (the floor).
        leader = leading_replica(open_slots=1, unacked=0)
        sent = capture_sends(leader)
        leader._rtt.sample(1, 0.9)
        leader._drive()
        leader.sim.run_until(CONFIG.tick)
        leader._drive()
        assert propose_times(sent, 1, 0) == [0.0]
        assert propose_times(sent, 2, 0) == [0.0, CONFIG.tick]
        stats = leader.load_stats()
        assert (stats["retransmits_sent"], stats["retransmits_gated"]) \
            == (3, 0)


class TestPersistedLogEndToEnd:
    def test_open_loop_at_3_cps_commits_within_four_ticks(self) -> None:
        outcome = LoadSpec(n=5, persist=True, omega="crash-recovery",
                           rate=3.0, duration=60.0, horizon=100.0,
                           clients=1000, keys=256, seed=11).run()
        assert outcome.verdict.ok
        assert outcome.done and outcome.committed == outcome.issued
        assert outcome.latency_p50_s <= 4 * CONFIG.tick
        assert outcome.retransmits_sent > outcome.retransmits_gated >= 0


def single_decree_ensemble(up: tuple[int, ...]):  # noqa: ANN201
    sim = Simulation()
    network = Network(sim)
    processes = [SingleDecreeConsensus(pid, sim, network, 3, f"v{pid}",
                                       leader_of=lambda: 0, config=CONFIG,
                                       persist=True) for pid in range(3)]
    sent = record_sends(processes[0])
    for pid in up:
        processes[pid].start()
    return sim, processes, sent


class TestSingleDecreeThroughTheSharedGate:
    def test_one_pass_reaches_every_due_peer(self) -> None:
        sim, processes, sent = single_decree_ensemble(up=(0,))
        sim.run_until(0.1)  # the round's write-ahead sync, then prepares
        assert sorted(dst for _, dst, _ in sent) == [1, 2]
        assert len({time for time, _, _ in sent}) == 1

    def test_crashed_peer_costs_logarithmically_many_single_sends(
            self) -> None:
        horizon = 60.0
        sim, processes, sent = single_decree_ensemble(up=(0, 1))
        sim.run_until(horizon)
        assert processes[0].decision == processes[1].decision == "v0"
        bursts = bursts_toward(sent, 2)
        assert 4 <= len(bursts) <= silent_peer_bound(horizon)
        assert max(bursts.values()) <= 2

    def test_persisted_ensemble_decides_within_four_ticks(self) -> None:
        sim, processes, _ = single_decree_ensemble(up=(0, 1, 2))
        sim.run_until(10.0)
        assert {process.decision for process in processes} == {"v0"}
        assert max(process.decision_time
                   for process in processes) <= 4 * CONFIG.tick


class TestUnpersistedScheduleUnchanged:
    def test_e19_rows_match_the_committed_baseline_byte_for_byte(
            self) -> None:
        # Every e19 row, the persisted one included: the baseline was
        # regenerated when the driver began coalescing its messages.
        baseline = json.loads(
            (Path(__file__).resolve().parent.parent
             / "BENCH_2026-09-28.json").read_text())
        cases = bench.default_suite(seed=7, experiments=("e19",))
        assert len(cases) == 6
        report = bench.build_report(bench.run_suite(cases), seed=7, jobs=1,
                                    suite="load")
        diff = bench.compare_reports(baseline, report)
        assert diff["ok"] and not diff["added"], diff["changed"]


@pytest.mark.parametrize("persist", [False, True])
def test_load_outcome_carries_the_counters_only_when_persisted(
        persist: bool) -> None:
    outcome = LoadSpec(persist=persist, rate=5.0, duration=10.0,
                       horizon=30.0, seed=3).run()
    document = outcome.to_json()
    assert ("retransmits_sent" in document) is persist
    assert ("retransmits_gated" in document) is persist
    assert set(document["queue"]) == {"shed", "max_queue_depth",
                                      "batch_sizes"}
