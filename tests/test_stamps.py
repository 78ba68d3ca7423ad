"""The log leader's messages are its heartbeats (DESIGN.md, R2 and R5).

A self-trusting ``SourceOmega``-family process stamps its agreement
layer's ``Prepare``/``Propose``/``Decide``/``Decides`` with its Omega
``(counter, phase)``; a receiver reads the stamp exactly as an ``Alive``
from the sender, and at each η beat the ``Alive`` to a peer that got the
current stamp since the last beat, within ``[now − η, now]``, is skipped.
"""

from __future__ import annotations

import pytest

from repro.consensus.messages import (
    Ballot,
    Decide,
    Decides,
    Prepare,
    Propose,
)
from repro.consensus.node import ConsensusSystem
from repro.consensus.replica import LogReplica
from repro.core.comm_efficient import CommEfficientOmega
from repro.core.config import OmegaConfig
from repro.core.messages import Accusation, Alive
from repro.core.source_omega import SourceOmega
from repro.harness.soak import run_soak_case, sample_soak_case
from repro.live.codec import decode_frame, encode_frame
from repro.sim.engine import Simulation
from repro.sim.network import Network
from repro.sim.topology import all_timely_links
from repro.wire import CodecError, decode_value, encode, encode_value

ETA = OmegaConfig().eta  # 0.5
STAMPED = (Prepare, Propose, Decide, Decides)


def hand_wired(network: Network) -> list:
    """Capture every ``(src, dst, message)`` sent on ``network``
    instead of delivering it."""
    sent: list = []
    network.send = lambda src, dst, message: sent.append((src, dst, message))
    network.broadcast = lambda src, message: sent.extend(
        (src, dst, message) for dst in network.pids if dst != src)
    return sent


def omegas(n: int = 3, cls: type = CommEfficientOmega,
           config: OmegaConfig | None = None):  # noqa: ANN201
    sim = Simulation(seed=0)
    network = Network(sim)
    procs = [cls(pid, sim, network, config or OmegaConfig())
             for pid in range(n)]
    return sim, network, procs


def alives_to(sent: list) -> list[int]:
    """Destinations of the ``Alive``s in ``sent`` (cleared after)."""
    dsts = [dst for _, dst, message in sent if isinstance(message, Alive)]
    sent.clear()
    return dsts


class TestHeartbeatSkip:
    def test_a_stamp_within_eta_skips_exactly_that_peers_alive(self) -> None:
        sim, network, (p0, _, _) = omegas()
        sent = hand_wired(network)
        p0.start()
        assert alives_to(sent) == [1, 2]  # nothing stamped yet
        sim.run_until(0.2)
        assert p0.stamp(1) == (0, 0)
        sim.run_until(ETA)
        assert alives_to(sent) == [2]
        sim.run_until(2 * ETA)  # the stamp at 0.2 is older than η now
        assert alives_to(sent) == [1, 2]

    def test_the_window_includes_a_stamp_exactly_eta_old(self) -> None:
        # On the sim the η grid and the log's tick grid coincide: a stamp
        # sent at one beat's instant must cover the next beat.
        sim, network, (p0, _, _) = omegas()
        sent = hand_wired(network)
        p0.start()
        sim.run_until(ETA)
        sent.clear()
        p0.stamp(2)
        sim.run_until(2 * ETA)
        assert alives_to(sent) == [1]

    def test_a_stamp_covers_one_beat_only(self) -> None:
        # A stamp sent at a beat's instant, before that beat runs, covers
        # it; the next beat, exactly η later, still sends the Alive.
        sim, network, (p0, _, _) = omegas()
        sent = hand_wired(network)
        p0.start()
        sim.call_at(2 * ETA, lambda: p0.stamp(1))  # queued before the beat
        sim.run_until(ETA)
        sent.clear()
        sim.run_until(2 * ETA)
        assert alives_to(sent) == [2]
        sim.run_until(3 * ETA)
        assert alives_to(sent) == [1, 2]

    def test_a_priority_change_since_the_stamp_sends_the_alive(self) -> None:
        sim, network, (p0, _, _) = omegas()
        sent = hand_wired(network)
        p0.start()
        sim.run_until(0.2)
        p0.stamp(1)
        p0.deliver(Accusation(1, target=0, phase=0))
        assert (p0.counter, p0.phase) == (1, 1)
        sent.clear()
        sim.run_until(ETA)
        assert [(dst, message.counter) for _, dst, message in sent] == \
            [(1, 1), (2, 1)]

    def test_adaptive_mode_neither_stamps_nor_skips(self) -> None:
        sim, network, (p0, p1, _) = omegas(
            config=OmegaConfig(adaptive_qos=True))
        sent = hand_wired(network)
        p0.start()
        p1.start()
        sent.clear()
        sim.run_until(0.2)
        assert p0.stamp(1) is None
        sim.run_until(ETA)
        assert sorted(dst for src, dst, message in sent
                      if src == 0 and isinstance(message, Alive)) == [1, 2]
        # A stamp reaching an adaptive receiver is not a heartbeat either.
        before = p1.leader()
        p1.on_stamp(0, (0, 0))
        assert p1.leader() == before == 1

    def test_a_process_that_does_not_trust_itself_stamps_nothing(self) -> None:
        sim, network, (p0, p1, _) = omegas()
        hand_wired(network)
        p0.start()
        p1.start()
        p1.deliver(Alive(0, 0, 0))
        assert p1.leader() == 0
        assert p1.stamp(2) is None
        assert p0.stamp(2) == (0, 0)

    def test_the_basic_source_omega_skips_too(self) -> None:
        sim, network, (p0, _, _) = omegas(cls=SourceOmega)
        sent = hand_wired(network)
        p0.start()
        sent.clear()
        sim.run_until(0.1)
        p0.stamp(2)
        sim.run_until(ETA)
        assert alives_to(sent) == [1]


class TestStampReceipt:
    def test_a_receiver_adopts_on_a_stamp_as_on_an_alive(self) -> None:
        by_stamp = omegas()
        by_alive = omegas()
        for (sim, network, procs), feed in (
                (by_stamp, lambda p: p.on_stamp(0, (0, 3))),
                (by_alive, lambda p: p.deliver(Alive(0, 0, 3)))):
            hand_wired(network)
            procs[1].start()
            sim.run_until(0.3)
            feed(procs[1])
        stamped, alived = by_stamp[2][1], by_alive[2][1]
        assert stamped.leader() == alived.leader() == 0
        assert stamped.counters == alived.counters == {0: 0}
        assert stamped.phases == alived.phases == {0: 3}
        assert stamped.history == alived.history

    def test_a_stamp_from_the_leader_resets_the_watch(self) -> None:
        sim, network, (_, p1, _) = omegas()
        sent = hand_wired(network)
        p1.start()
        p1.deliver(Alive(0, 0, 0))
        assert p1.leader() == 0
        timeout = p1.timeouts.get(0)
        sim.run_until(timeout - 0.1)
        p1.on_stamp(0, (0, 0))
        sim.run_until(timeout + 0.1)  # past the Alive's deadline
        assert p1.leader() == 0
        assert not any(isinstance(m, Accusation) for _, _, m in sent)
        sim.run_until(2 * timeout)  # past the stamp's deadline
        assert p1.leader() == 1

    def test_a_stamp_outranked_by_the_leader_changes_nothing(self) -> None:
        sim, network, (_, _, p2) = omegas()
        hand_wired(network)
        p2.start()
        p2.deliver(Alive(0, 0, 0))
        p2.on_stamp(1, (0, 0))  # (0, 1) ranks below the leader's (0, 0)
        assert p2.leader() == 0
        assert p2.counters == {0: 0, 1: 0}


class TestSoakReplays:
    # Plain-soak log cases that lost the calm tail (a leader change in
    # the last second) when one stamp could cover two beats.
    @pytest.mark.parametrize("seed, index", [(3, 77), (9, 56)])
    def test_the_calm_tail_holds(self, seed: int, index: int) -> None:
        result = run_soak_case(sample_soak_case(seed, index))
        assert result.status == "ok", result.detail


def hand_delivered_log(n: int = 3):  # noqa: ANN201
    """An Omega + log stack per pid on two hand-wired networks."""
    sim = Simulation(seed=0)
    fd, ag = Network(sim), Network(sim)
    fd_sent, ag_sent = hand_wired(fd), hand_wired(ag)
    stacks = []
    for pid in range(n):
        omega = CommEfficientOmega(pid, sim, fd, OmegaConfig())
        replica = LogReplica(pid, sim, ag, n, leader_of=omega.leader)
        replica.omega = omega
        stacks.append((omega, replica))
    return sim, stacks, fd_sent, ag_sent


class TestAgreementTrafficConverges:
    def test_two_self_trusting_processes_converge_by_agreement_traffic(
            self) -> None:
        # p1 is down from the start, so p0 and p2 each trust themselves
        # and each start a ballot.  The start-up Alive round is lost, and
        # p0's next beat skips p2, covered by p0's Prepare: what p2 hears
        # of p0 is agreement traffic alone.  Without stamps, p2 would
        # never learn p0's priority and both would lead for good.
        sim, stacks, fd_sent, ag_sent = hand_delivered_log()
        for layer in stacks[1]:
            layer.start()
            layer.crash()
        ag_sent.clear()  # p1 went down before anything left it
        for pid in (0, 2):
            for layer in stacks[pid]:
                layer.start()
        fd_sent.clear()  # the lost start-up round
        alives_0_to_2 = []
        step, now = 0.05, 0.0
        while now < 10.0:
            now = round(now + step, 2)
            sim.run_until(now)
            for sent, layer in ((ag_sent, 1), (fd_sent, 0)):
                for src, dst, message in sent:
                    if dst == 1:
                        continue
                    if (src, dst) == (0, 2) and isinstance(message, Alive):
                        alives_0_to_2.append(now)
                    stacks[dst][layer].deliver(message)
                sent.clear()
        omega0, omega2 = stacks[0][0], stacks[2][0]
        assert omega0.leader() == omega2.leader() == 0
        assert omega2.history == [(0.0, 2), (step, 0)]
        assert alives_0_to_2 and alives_0_to_2[0] > ETA  # 0.5 was skipped
        assert stacks[0][1].phase == "leading"

    def test_an_unpaired_replica_sends_unstamped(self) -> None:
        sim, stacks, _, ag_sent = hand_delivered_log()
        stacks[0][1].omega = None
        stacks[0][0].start()
        stacks[0][1].start()
        prepares = [m for src, _, m in ag_sent if isinstance(m, Prepare)]
        assert prepares and all(m.stamp is None for m in prepares)


class TestConsensusSystemWiring:
    def test_the_leaders_agreement_messages_carry_its_omega_priority(
            self) -> None:
        system = ConsensusSystem.build_replicated_log(
            3, lambda: all_timely_links(3), seed=1)
        seen: list = []
        network = system.agreement_network
        send = network.send

        def recording(src, dst, message) -> None:  # noqa: ANN001
            seen.append((system.sim.now, src, message))
            send(src, dst, message)

        network.send = recording
        system.start_all()
        system.run_until(3.0)
        leader = system.node(0).omega.leader()
        omega = system.node(leader).omega
        assert all(system.node(pid).omega.leader() == leader
                   for pid in range(3))
        for pid in range(3):
            system.node(pid).agreement.submit(("c", pid), pid)
        system.run_until(8.0)
        late = [(src, m) for t, src, m in seen if t > 3.0]
        assert Propose in {type(m) for src, m in late if src == leader}
        for src, message in late:
            if type(message) in STAMPED:
                assert src == leader
                assert message.stamp == (omega.counter, omega.phase)
            else:
                assert not hasattr(message, "stamp")

    def test_an_omega_only_cluster_records_no_stamps(self) -> None:
        from repro.core import make_factory
        from repro.sim import Cluster

        cluster = Cluster.build(4, make_factory("comm-efficient"),
                                links=all_timely_links(4), seed=3)
        cluster.start_all()
        cluster.run_until(20.0)
        assert all(not process._stamped
                   for process in cluster.processes.values())


BALLOT = Ballot(3, 1)
LEADER_KINDS = [
    Prepare(1, BALLOT, 4),
    Propose(1, BALLOT, 7, ("c", 1), 6),
    Decide(1, 7, ("c", 1)),
    Decides(1, ((7, ("c", 1)), (8, None))),
]


class TestStampOnTheWire:
    @pytest.mark.parametrize("plain", LEADER_KINDS,
                             ids=lambda m: type(m).__name__)
    def test_stamped_and_unstamped_round_trip(self, plain) -> None:  # noqa: ANN001
        from dataclasses import replace

        stamped = replace(plain, stamp=(300, 2))
        for message in (plain, stamped):
            assert decode_frame(encode_frame(message, 2, 0.5)) == \
                (message, 2, 0.5)
            assert decode_value(encode_value(message)) == message
        # Unstamped bytes carry no trace of the field; a stamp sets the
        # kind id's flag bit and adds its two varints (300 takes two).
        raw, flagged = encode(plain), encode(stamped)
        assert flagged == bytes([raw[0] | 0x80]) + raw[1:] + b"\xac\x02\x02"
        assert stamped.wire_size() == plain.wire_size() + 3

    def test_a_truncated_stamp_is_a_named_drop(self) -> None:
        stamped = Propose(1, BALLOT, 7, None, 6, (300, 2))
        value = encode_value(stamped)
        for cut in (1, 2, 3):
            with pytest.raises(CodecError) as caught:
                decode_value(value[:-cut])
            assert caught.value.reason == "truncated_frame"

    def test_a_corrupt_stamp_is_a_named_drop(self) -> None:
        raw = encode(Decide(1, 7, None, (1, 1)))
        overlong = raw[:-2] + b"\xff" * 11
        with pytest.raises(CodecError) as caught:
            decode_frame(overlong + b"\x00" + bytes(8))
        assert caught.value.reason == "corrupt_frame"
        # The flag on a kind that has no stamp field.
        alive = encode(Alive(1, 0, 0))
        with pytest.raises(CodecError) as caught:
            decode_frame(bytes([alive[0] | 0x80]) + alive[1:] + b"\x00\x00"
                         + b"\x00" + bytes(8))
        assert caught.value.reason == "corrupt_frame"
        assert "carries no stamp" in str(caught.value)

    @pytest.mark.parametrize("stamp", [(-1, 0), (1,), (1, 2, 3), [1, 2],
                                       (1.0, 2)])
    def test_a_malformed_stamp_has_no_encoding(self, stamp) -> None:  # noqa: ANN001
        with pytest.raises(CodecError):
            encode(Decide(1, 7, None, stamp))
