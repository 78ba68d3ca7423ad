"""Unit tests for the network fabric."""

from __future__ import annotations

import copy

import pytest

from conftest import Ping, Probe, Recorder, make_pair
from reference_metrics import ReferenceMetricsCollector, collector_answers

from repro.obs import Observer
from repro.sim.engine import Simulation
from repro.sim.links import (
    DeadLink,
    DegradedWindow,
    FairLossyLink,
    PerturbedLink,
    TimelyLink,
)
from repro.sim.metrics import MetricsCollector
from repro.sim.network import Network, NetworkError
from repro.sim.topology import (
    LinkMap,
    LinkTimings,
    all_timely_links,
    apply_links,
    multi_source_links,
    source_links,
)
from repro.sim.trace import DeliverRecord, DropRecord, SendRecord, TraceLog


class TestRegistration:
    def test_duplicate_pid_rejected(self, sim: Simulation, network: Network) -> None:
        Recorder(0, sim, network)
        with pytest.raises(NetworkError):
            Recorder(0, sim, network)

    def test_unknown_pid_rejected(self, sim: Simulation, network: Network) -> None:
        with pytest.raises(NetworkError):
            network.process(42)

    def test_pids_sorted(self, sim: Simulation, network: Network) -> None:
        Recorder(2, sim, network)
        Recorder(0, sim, network)
        Recorder(1, sim, network)
        assert network.pids == [0, 1, 2]


class TestLinks:
    def test_default_link_created_lazily(self, sim: Simulation,
                                         network: Network) -> None:
        make_pair(sim, network)
        policy = network.link(0, 1)
        assert isinstance(policy, TimelyLink)
        assert network.link(0, 1) is policy

    def test_explicit_link_used(self, sim: Simulation, network: Network) -> None:
        a, b = make_pair(sim, network)
        network.set_link(0, 1, DeadLink())
        a.send(1, Probe(0))
        sim.run_until(1.0)
        assert b.received == []

    def test_direction_matters(self, sim: Simulation, network: Network) -> None:
        a, b = make_pair(sim, network)
        network.set_link(0, 1, DeadLink())
        b.send(0, Probe(1))  # reverse direction uses default timely link
        sim.run_until(1.0)
        assert len(a.received) == 1

    def test_self_link_rejected(self, sim: Simulation, network: Network) -> None:
        with pytest.raises(NetworkError):
            network.set_link(0, 0, DeadLink())


class TestSendErrors:
    def test_send_to_self_rejected(self, sim: Simulation, network: Network) -> None:
        make_pair(sim, network)
        with pytest.raises(NetworkError):
            network.send(0, 0, Probe(0))

    def test_send_to_unknown_rejected(self, sim: Simulation,
                                      network: Network) -> None:
        make_pair(sim, network)
        with pytest.raises(NetworkError):
            network.send(0, 9, Probe(0))

    def test_crashed_sender_raises_at_network_level(self, sim: Simulation,
                                                    network: Network) -> None:
        a, _ = make_pair(sim, network)
        a.crash()
        # Process.send guards silently, but pushing through the network
        # directly is a protocol bug and must be loud.
        with pytest.raises(NetworkError, match="crashed process 0"):
            network.send(0, 1, Probe(0))
        assert network.metrics.dropped_by_reason == {"src_crashed": 1}


class TestUnicastCopies:
    def test_duplicating_link_posts_both_copies(self, sim: Simulation,
                                                network: Network) -> None:
        _, b = make_pair(sim, network)
        network.perturb_link(0, 1, DegradedWindow(0.0, 10.0, duplicate=1.0,
                                                  duplicate_lag=0.5))
        network.send(0, 1, Probe(0, 7))
        network.send(1, 0, Probe(1, 8))  # the reverse link keeps one copy
        sim.run_until(5.0)
        assert [message.payload for _, message in b.received] == [7, 7]
        assert 0.0 <= b.received[1][0] - b.received[0][0] <= 0.5
        assert network.metrics.sent_by_kind["Probe"] == 2
        assert network.metrics.delivered_by_kind["Probe"] == 3


class TestTraceAndMetrics:
    def test_send_and_delivery_traced(self, sim: Simulation,
                                      network: Network) -> None:
        a, _ = make_pair(sim, network)
        a.send(1, Probe(0))
        sim.run_until(1.0)
        sends = network.trace.select(SendRecord)
        delivers = network.trace.select(DeliverRecord)
        assert len(sends) == 1 and len(delivers) == 1
        assert delivers[0].delay > 0
        assert delivers[0].kind == "Probe"

    def test_link_drop_traced_with_reason(self, sim: Simulation,
                                          network: Network) -> None:
        a, _ = make_pair(sim, network)
        network.set_link(0, 1, DeadLink())
        a.send(1, Probe(0))
        sim.run_until(1.0)
        drops = network.trace.select(DropRecord)
        assert [d.reason for d in drops] == ["link"]

    def test_metrics_fed_on_send_and_delivery(self, sim: Simulation,
                                              network: Network) -> None:
        a, _ = make_pair(sim, network)
        a.send(1, Probe(0))
        sim.run_until(1.0)
        assert network.metrics.sent_by_sender[0] == 1
        assert network.metrics.delivered_by_kind["Probe"] == 1

    def test_messages_not_altered(self, sim: Simulation, network: Network) -> None:
        a, b = make_pair(sim, network)
        message = Probe(0, payload=123)
        a.send(1, message)
        sim.run_until(1.0)
        assert b.received[0][1] is message


DEAD = DeadLink()


class TestApplyLinkMap:
    """``apply_links`` installs a :class:`LinkMap` whole — base law plus
    overrides — and must leave every pair exactly as the per-pair loop
    over ``dict(map)`` leaves it."""

    N = 5

    @classmethod
    def _network(cls, pids: int) -> Network:
        sim = Simulation(seed=3)
        network = Network(sim, observers=(MetricsCollector(),))
        for pid in range(pids):
            Recorder(pid, sim, network).start()
        return network

    @staticmethod
    def _describe(network: Network, pids: int) -> list:
        """Every pair's policy: the object itself, or for a network's own
        objects (its default, perturbation wrappers) what they are."""
        def label(policy):  # noqa: ANN001, ANN202
            if isinstance(policy, PerturbedLink):
                return ("perturbed", label(policy.inner),
                        len(policy.windows))
            if policy is network._default_policy:
                return "default"
            return policy
        return [label(network.link(src, dst))
                for src in range(pids) for dst in range(pids) if src != dst]

    @classmethod
    def _replay(cls, whole: bool, first: LinkMap, second: LinkMap) -> Network:
        network = cls._network(cls.N + 1)   # pid N: outside the first map
        install = apply_links if whole else (
            lambda net, links: apply_links(net, dict(links)))
        window = DegradedWindow(0.0, 9.0, loss=0.5)
        network.set_link(2, 3, DEAD)
        network.perturb_link(0, 1, window)
        network.perturb_link(0, cls.N, window)
        install(network, first)
        network.set_link(4, 3, DEAD)
        network.perturb_link(1, 2, window)
        network.perturb_link(1, 2, window)
        install(network, second)
        network.set_link(3, 4, DEAD)
        return network

    @pytest.mark.parametrize("second", [
        lambda n: source_links(n, 1),
        lambda n: source_links(n - 2, 1),   # narrower: first map's rest stays
        lambda n: all_timely_links(n + 1),  # wider: covers pid N too
    ], ids=["same-size", "narrower", "wider"])
    def test_replaces_what_every_covered_pair_had(self, second) -> None:
        first, second = source_links(self.N, 0), second(self.N)
        whole = self._replay(True, first, second)
        per_pair = self._replay(False, first, second)
        pids = self.N + 1
        assert (self._describe(whole, pids)
                == self._describe(per_pair, pids))
        # Replaced, not merged: what was set on a pair before a map that
        # covers it is gone ...
        assert whole.link(4, 3) is second.get((4, 3), DEAD)
        assert isinstance(whole.link(1, 2), PerturbedLink) == (
            (1, 2) not in second)
        assert whole.link(0, 1) is second[(0, 1)]
        # ... a narrower map leaves the wider one's pairs alone ...
        assert whole.link(3, 2) is second.get((3, 2), first[(3, 2)])
        # ... and what no map covers survives them all.
        assert isinstance(whole.link(0, self.N), PerturbedLink) == (
            (0, self.N) not in second)

    def test_pairs_outside_the_map_keep_the_network_default(self) -> None:
        network = self._network(self.N)
        links = source_links(3, 0)
        apply_links(network, links)
        assert network.link(0, 1) is links[(0, 1)]
        assert network.link(1, 2) is links.default
        default = network.link(0, 3)
        assert isinstance(default, TimelyLink)
        assert network.link(3, 0) is default is network.link(4, 2)

    def test_a_broadcast_after_reapplying_plans_with_the_new_laws(self) -> None:
        network = self._network(self.N)
        apply_links(network, all_timely_links(self.N))
        network.broadcast(0, Probe(0))          # builds 0's fan-out record
        network.sim.run_until(1.0)
        apply_links(network, LinkMap(self.N, DEAD, {}))
        network.broadcast(0, Probe(0, 1))
        network.sim.run_until(2.0)
        metrics = network.metrics
        assert metrics.delivered_by_kind["Probe"] == self.N - 1
        assert metrics.dropped_by_reason["link"] == self.N - 1

    def test_stores_only_the_pairs_that_differ(self) -> None:
        network = self._network(self.N)
        apply_links(network, source_links(self.N, 2))
        assert sorted(network._links) == [(2, dst) for dst in range(self.N)
                                          if dst != 2]
        for src in range(self.N + 2):
            for dst in range(self.N + 2):
                network.link(src, dst)
        network.broadcast(0, Probe(0))
        network.send(3, 1, Probe(3))
        assert len(network._links) == self.N - 1


class _PacketLog(Observer):
    """Every packet callback, verbatim."""

    def __init__(self) -> None:
        self.records: list[tuple] = []

    def on_packet_send(self, *args) -> None:
        self.records.append(("send",) + args)

    def on_packet_deliver(self, *args) -> None:
        self.records.append(("deliver",) + args)


def _send_loop(network: Network, src: int, message: Probe) -> None:
    for dst in network.pids:
        if dst != src:
            network.send(src, dst, message)


class TestBroadcastEqualsSendLoop:
    """``broadcast`` promises to be the ascending-pid ``send`` loop in
    one pass; the batched pieces (``post_batch``, ``on_send_batch``, the
    once-per-fan-out partition picture) must not show."""

    @staticmethod
    def _run(fan_out, link_rng: str, packets: bool) -> dict:
        sim = Simulation(seed=77)
        metrics = MetricsCollector(window=0.5)
        reference = ReferenceMetricsCollector(window=0.5)
        trace = TraceLog(enabled=True)
        packet_log = _PacketLog()
        network = Network(
            sim, link_rng=link_rng,
            observers=(metrics, reference, trace)
            + ((packet_log,) if packets else ()))
        procs = [Recorder(pid, sim, network) for pid in range(7)]
        for proc in procs:
            if proc.pid != 5:           # 5: a not-yet-started receiver
                proc.start()
        procs[4].crash()                # 4: a crashed receiver
        network.set_link(0, 1, FairLossyLink(loss=0.5))
        network.perturb_link(0, 2, DegradedWindow(0.0, 50.0, duplicate=1.0,
                                                  duplicate_lag=0.02))
        network.add_partition(1.0, 3.0, [{0, 1, 2, 4, 5}, {3}])  # 6: nowhere

        for round_ in range(4):
            fan_out(network, 0, Probe(0, round_))
            sim.run_for(0.125)
        sim.run_until(1.5)              # the partition is active
        fan_out(network, 0, Probe(0, 10))
        fan_out(network, 3, Probe(3, 11))
        fan_out(network, 6, Probe(6, 12))
        sim.run_until(2.0)
        fan_out(network, 0, Probe(0, 20))
        sim.run_for(0.0005)             # every copy still in flight
        procs[0].crash()
        procs[0].recover()              # ... and now stale
        fan_out(network, 0, Probe(0, 21))
        sim.run_until(3.5)
        procs[5].start()
        procs.append(Recorder(7, sim, network))  # the fan-out widens
        procs[7].start()
        fan_out(network, 0, Probe(0, 30))
        fan_out(network, 2, Probe(2, 31))
        sim.run_until(10.0)

        ranges = [(1.0, 2.4), (2.0, 2.0), (0.0, 10.0)]
        answers = collector_answers(metrics, ranges, 10.0)
        # The per-link collector it replaced sees the same wire.
        assert collector_answers(reference, ranges, 10.0) == answers
        return {
            "trace": [repr(record) for record in trace],
            "received": [proc.received for proc in procs],
            "packets": packet_log.records,
            **answers,
            "events": sim.events_executed,
        }

    @pytest.mark.parametrize("packets", [False, True])
    @pytest.mark.parametrize("link_rng", ["pair", "src"])
    def test_same_run(self, link_rng: str, packets: bool) -> None:
        batched = self._run(Network.broadcast, link_rng, packets)
        looped = self._run(_send_loop, link_rng, packets)
        assert batched == looped
        # The scenario reaches every branch it claims to.
        assert set(batched["dropped_by_reason"]) == {
            "link", "partition", "dst_crashed", "dst_not_started",
            "stale_incarnation"}
        copies = sum(1 for _, message in batched["received"][2]
                     if message.sender == 0)
        assert copies > batched["sent_by_link"][(0, 2)]  # the duplicator
        assert bool(batched["packets"]) == packets


class _WireLog(Observer):
    """Deliveries and drops, verbatim — and no per-copy send hook, so a
    network carrying only this and a ``MetricsCollector`` may plan a
    fan-out in one call."""

    def __init__(self) -> None:
        self.deliveries: list[tuple] = []
        self.drops: list[tuple] = []

    def on_deliver(self, time, src, dst, kind, sent_at) -> None:  # noqa: ANN001
        self.deliveries.append((time, src, dst))

    def on_drop(self, *args) -> None:
        self.drops.append(args)


class TestSharedMapEqualsPerPairMap:
    """A link map shares one policy object per law; the wire must not be
    able to tell it from a map with a fresh instance per ordered pair."""

    TIMINGS = LinkTimings(gst=2.0, fair_loss=0.7, fair_max_consecutive=3,
                          fair_outage_period=1.0, fair_outage_growth=0.25)

    @classmethod
    def _run(cls, per_pair: bool, link_rng: str, traced: bool) -> dict:
        links = multi_source_links(6, (0, 1), cls.TIMINGS)
        if per_pair:
            links = {pair: copy.deepcopy(policy)
                     for pair, policy in links.items()}
        sim = Simulation(seed=31)
        metrics = MetricsCollector(window=0.5)
        reference = ReferenceMetricsCollector(window=0.5)
        wire = _WireLog()
        network = Network(
            sim, link_rng=link_rng,
            observers=(metrics, reference, wire)
            + ((TraceLog(enabled=True),) if traced else ()))
        apply_links(network, links)
        procs = [Recorder(pid, sim, network) for pid in range(6)]
        for proc in procs:
            proc.start()

        def everyone_broadcasts(payload: int) -> None:
            for proc in procs:
                if not proc.crashed:
                    network.broadcast(proc.pid, Probe(proc.pid, payload))
                    network.broadcast(proc.pid, Ping(proc.pid))
            network.send(3, 4, Probe(3, payload))   # unicast shares the streaks

        network.add_partition(3.0, 4.0, [{0, 2, 4}, {1, 3}])     # 5: nowhere
        for round_ in range(10):                # across GST, into the partition
            everyone_broadcasts(round_)
            sim.run_for(0.35)
        sim.run_until(5.0)
        # Sender 2 has broadcast: its fan-out record exists and must go.
        network.perturb_link(2, 3, DegradedWindow(5.0, 50.0, duplicate=1.0,
                                                  duplicate_lag=0.02))
        network.set_link(4, 5, DeadLink())
        for round_ in range(10, 16):
            everyone_broadcasts(round_)
            sim.run_for(0.35)
        procs.append(Recorder(6, sim, network))  # late: the stride grows
        procs[6].start()
        procs[1].crash()
        with pytest.raises(NetworkError, match="crashed process 1"):
            network.broadcast(1, Probe(1, 99))
        for round_ in range(16, 24):
            everyone_broadcasts(round_)
            sim.run_for(0.35)
        sim.run_until(40.0)
        ranges = [(3.0, 4.0), (5.0, 12.0), (0.0, 40.0)]
        answers = collector_answers(metrics, ranges, 40.0)
        assert collector_answers(reference, ranges, 40.0) == answers
        return {
            "deliveries": wire.deliveries,
            "drops": wire.drops,
            "received": [proc.received for proc in procs],
            **answers,
            "events": sim.events_executed,
        }

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("link_rng", ["pair", "src"])
    def test_same_wire(self, monkeypatch, link_rng: str, traced: bool) -> None:
        fan_outs = []
        plan_many = FairLossyLink.plan_many
        monkeypatch.setattr(
            FairLossyLink, "plan_many",
            lambda self, message, now, rngs, links: (
                fan_outs.append(len(links)),
                plan_many(self, message, now, rngs, links))[1])
        per_pair = self._run(True, link_rng, traced)
        assert not fan_outs     # distinct objects per pair: copy by copy
        shared = self._run(False, link_rng, traced)
        assert shared == per_pair
        # A per-copy observer (the trace) forces the per-copy loop; without
        # one, fair-lossy senders plan whole fan-outs — until pid 6 joins
        # on a default timely link and their out-links stop sharing a law.
        assert set(fan_outs) == (set() if traced else {5})
        assert set(shared["dropped_by_reason"]) == {
            "link", "partition", "dst_crashed", "src_crashed"}
        # The mid-run duplicator took effect on sender 2's very next fan-out.
        from_two = [message.payload for _, message in shared["received"][3]
                    if isinstance(message, Probe) and message.sender == 2]
        twice = {payload for payload in from_two if from_two.count(payload) == 2}
        assert twice and min(twice) >= 10
        assert not any((src, dst) == (4, 5) and time >= 6.5
                       for time, src, dst in shared["deliveries"])
