"""Retransmission pacing on the persisted commit path (docs/RECOVERY.md).

With ``persist=True`` the driver's sends pass a per-peer backoff gate.
The gate decides **once per driver pass**: a due peer gets everything the
pass has for it (its decisions as one message), a backing-off peer gets
nothing, and toward a peer that never answers the number of passes that
send anything stays logarithmic up to ``backoff_cap``.  All on simulated
time.
"""

from __future__ import annotations

import json
import math
from functools import partial
from pathlib import Path

import pytest

from repro.consensus.config import ConsensusConfig
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
from repro.consensus.retransmit import RetransmitGate
from repro.consensus.single import SingleDecreeConsensus
from repro.harness import bench
from repro.load import LoadSpec
from repro.sim.engine import Simulation
from repro.sim.network import Network

CONFIG = ConsensusConfig()  # tick 0.5, backoff_cap 8, max_batch 8


def record_sends(process) -> list:  # noqa: ANN001
    """Log ``(time, peer, message)`` for everything ``process`` sends."""
    sent: list = []
    send = process.send

    def recording(peer, message) -> None:  # noqa: ANN001
        sent.append((process.now, peer, message))
        send(peer, message)

    process.send = recording
    return sent


def silent_peer_bound(horizon: float) -> float:
    """Passes that may send toward a peer that never answers."""
    return (math.log2(CONFIG.backoff_cap / CONFIG.tick)
            + horizon / CONFIG.backoff_cap + 1)


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
    """A persisted n=3 leader with unacked decides below its open slots."""
    sim = Simulation()
    network = Network(sim)
    replicas = [LogReplica(pid, sim, network, 3, leader_of=lambda: 0,
                           config=config, persist=True) for pid in range(3)]
    leader = replicas[0]
    leader.owner.ballot = Ballot(0, 0)
    leader.phase = PHASE_LEADING
    for instance in range(unacked):
        leader.log[instance] = (("d", instance), "x")
        leader._decide_acks[instance] = {0}
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
        leader._drive()
        sent = record_sends(leader)
        # Peer 1 answers (a delivery is a pass; nothing to pump in it);
        # on the next tick it is due again, the silent peer 2 is not.
        leader.deliver(Accepted(1, leader.ballot, 2))
        leader._drive()
        assert sent and {dst for _, dst, _ in sent} == {1}
        # Toward peer 2: three Proposes and the one Decides.
        assert leader.load_stats()["retransmits_gated"] == 4

    def test_a_sync_that_commits_at_once_continues_the_pass(self) -> None:
        # With a synchronous store (the live FileStorage) the round's
        # write-ahead callback runs inside the tick that started it:
        # peers that tick already served must still get their Prepare.
        leader = leading_replica(
            open_slots=0, unacked=2,
            config=ConsensusConfig(sync_latency=0.0))
        leader.phase = PHASE_FOLLOWER
        sent = record_sends(leader)
        leader._drive()
        for peer in (1, 2):
            kinds = [type(m) for _, dst, m in sent if dst == peer]
            assert kinds == [Decides, Prepare]

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
