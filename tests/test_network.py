"""Unit tests for the network fabric."""

from __future__ import annotations

import pytest

from conftest import Probe, Recorder, make_pair

from repro.obs import Observer
from repro.sim.engine import Simulation
from repro.sim.links import DeadLink, DegradedWindow, FairLossyLink, TimelyLink
from repro.sim.metrics import MetricsCollector
from repro.sim.network import Network, NetworkError
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
        with pytest.raises(NetworkError):
            network.send(0, 1, Probe(0))


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
        trace = TraceLog(enabled=True)
        packet_log = _PacketLog()
        network = Network(
            sim, link_rng=link_rng,
            observers=(metrics, trace) + ((packet_log,) if packets else ()))
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

        return {
            "trace": [repr(record) for record in trace],
            "received": [proc.received for proc in procs],
            "packets": packet_log.records,
            "sent_by_link": dict(metrics.sent_by_link),
            "sent_by_sender": dict(metrics.sent_by_sender),
            "sent_by_kind": dict(metrics.sent_by_kind),
            "delivered_by_kind": dict(metrics.delivered_by_kind),
            "dropped_by_reason": dict(metrics.dropped_by_reason),
            "links_between": metrics.links_between(1.0, 2.4),
            "senders_between": metrics.senders_between(1.0, 2.4),
            "messages_between": metrics.messages_between(1.0, 2.4),
            "timeline": [(w.start, w.senders, w.links, w.messages)
                         for w in metrics.timeline(10.0)],
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
