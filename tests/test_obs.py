"""Tests for the observability layer: hub, capture, deprecations,
timeliness inspection, and the shared Verdict type."""

from __future__ import annotations

import pytest

from conftest import Probe, Recorder
from repro.harness.scenarios import OmegaScenario
from repro.obs import (
    Observer,
    ObserverHub,
    TimelinessInspector,
    Verdict,
    capture,
)
from repro.obs.observer import _EVENT_KINDS
from repro.obs.report import RunRecorder
from repro.obs.timeliness import classification_matches, expected_link_classes
from repro.sim.engine import Simulation
from repro.sim.links import EventuallyTimelyLink, FairLossyLink
from repro.sim.metrics import MetricsCollector
from repro.sim.cluster import Cluster
from repro.sim.network import Network, NetworkError
from repro.sim.trace import TraceLog


class SendCounter(Observer):
    """Observer overriding exactly one hook, for dispatch-table tests."""

    def __init__(self) -> None:
        self.sends = 0

    def on_send(self, time: float, src: int, dst: int, kind: str) -> None:
        """Count the send."""
        self.sends += 1


class TestObserverHub:
    def test_bare_hub_is_inactive_with_empty_tables(self) -> None:
        hub = ObserverHub()
        assert hub.active is False
        assert hub.observers == ()
        for kind in _EVENT_KINDS:
            assert getattr(hub, f"{kind}_cbs") == ()

    def test_attach_returns_observer_and_rebuilds_only_overridden(self) -> None:
        hub = ObserverHub()
        counter = hub.attach(SendCounter())
        assert isinstance(counter, SendCounter)
        assert hub.active is True
        assert len(hub.send_cbs) == 1
        # SendCounter overrides nothing else: those tables stay empty, so
        # the network's hot path pays nothing for the unused hooks.
        for kind in _EVENT_KINDS:
            if kind != "send":
                assert getattr(hub, f"{kind}_cbs") == ()

    def test_attach_rejects_non_observer(self) -> None:
        with pytest.raises(TypeError):
            ObserverHub().attach(object())

    def test_detach_restores_empty_tables(self) -> None:
        hub = ObserverHub()
        counter = hub.attach(SendCounter())
        hub.detach(counter)
        assert hub.active is False
        assert hub.send_cbs == ()

    def test_detach_unknown_raises(self) -> None:
        with pytest.raises(ValueError):
            ObserverHub().detach(SendCounter())

    def test_first_and_of_type(self) -> None:
        hub = ObserverHub()
        a = hub.attach(SendCounter())
        b = hub.attach(SendCounter())
        assert hub.first(SendCounter) is a
        assert hub.of_type(SendCounter) == [a, b]
        assert hub.first(TimelinessInspector) is None
        assert hub.of_type(TimelinessInspector) == []

    def test_dispatch_reaches_every_attached_observer(self) -> None:
        sim = Simulation(seed=1)
        one, two = SendCounter(), SendCounter()
        network = Network(sim, observers=(one, two))
        a, b = Recorder(0, sim, network), Recorder(1, sim, network)
        a.start(), b.start()
        a.send(1, Probe(0))
        sim.run_until(1.0)
        assert one.sends == two.sends == 1


class TestNetworkObserverWiring:
    def test_default_network_gets_a_metrics_collector(self) -> None:
        network = Network(Simulation(seed=1))
        assert isinstance(network.metrics, MetricsCollector)

    def test_bare_network_has_inactive_hub(self) -> None:
        network = Network(Simulation(seed=1), observers=())
        assert network.hub.active is False

    def test_bare_network_metrics_raises(self) -> None:
        network = Network(Simulation(seed=1), observers=())
        with pytest.raises(NetworkError, match="no MetricsCollector"):
            network.metrics

    def test_trace_on_untraced_network_lazily_attaches_disabled_log(
            self) -> None:
        """The bugfix: asking for the trace view of an untraced network
        must not crash; it attaches a disabled log exactly once."""
        network = Network(Simulation(seed=1), observers=())
        log = network.trace
        assert isinstance(log, TraceLog)
        assert log.enabled is False
        assert network.trace is log  # second access: same instance

    def test_untraced_cluster_trace_view_does_not_crash(self) -> None:
        from repro.core import make_factory

        cluster = Cluster.build(3, make_factory("comm-efficient"),
                                seed=5, trace=False)
        cluster.start_all()
        cluster.run_until(2.0)
        assert cluster.trace.enabled is False
        assert len(cluster.trace) == 0
        assert cluster.metrics.total_sent > 0

    @pytest.mark.parametrize("kwarg, observer", [
        ("trace", TraceLog(enabled=True)),
        ("metrics", MetricsCollector(window=2.0)),
    ], ids=["trace", "metrics"])
    def test_pre_observer_kwargs_are_gone(self, kwarg: str,
                                          observer: object) -> None:
        # The PR 4 shims: observers go through ``observers=`` only.
        with pytest.raises(TypeError, match=kwarg):
            Network(Simulation(seed=1), **{kwarg: observer})


class TestCapture:
    def test_capture_attaches_one_instance_per_network(self) -> None:
        with capture(RunRecorder) as cap:
            sim = Simulation(seed=1)
            first = Network(sim, observers=())
            second = Network(sim, observers=())
        assert cap.networks == [first, second]
        recorders = cap.instances(RunRecorder)
        assert len(recorders) == 2
        assert recorders[0] is not recorders[1]
        assert first.hub.first(RunRecorder) is recorders[0]

    def test_capture_scope_ends_at_exit(self) -> None:
        with capture(RunRecorder):
            pass
        network = Network(Simulation(seed=1), observers=())
        assert network.hub.first(RunRecorder) is None

    def test_observers_do_not_perturb_the_run(self) -> None:
        """Dispatch determinism: the same scenario, observed and not,
        executes the identical event sequence and reaches the identical
        checker report."""
        scenario = OmegaScenario(algorithm="comm-efficient", n=4,
                                 system="source", seed=11, horizon=30.0)
        plain = scenario.run()
        with capture(RunRecorder, TimelinessInspector):
            observed = scenario.run()
        assert plain.cluster.sim.events_executed == \
            observed.cluster.sim.events_executed
        assert plain.cluster.sim.now == observed.cluster.sim.now
        assert plain.report == observed.report
        assert plain.cluster.sim.profile() == observed.cluster.sim.profile()


def _drive_probes(network: Network, sim: Simulation, count: int,
                  spacing: float) -> None:
    """Send ``count`` probes 0 -> 1 at the given spacing, then drain."""
    a, b = Recorder(0, sim, network), Recorder(1, sim, network)
    a.start(), b.start()
    for index in range(count):
        sim.call_at(index * spacing, lambda: a.send(1, Probe(0)))
    sim.run_until(count * spacing + 30.0)


class TestTimelinessInspector:
    def test_rejects_bad_parameters(self) -> None:
        with pytest.raises(ValueError):
            TimelinessInspector(delay_bound=0.0)
        with pytest.raises(ValueError):
            TimelinessInspector(tail=0)

    def test_timely_link_classified_timely(self) -> None:
        sim = Simulation(seed=3)
        inspector = TimelinessInspector()
        network = Network(sim, observers=(inspector,))
        _drive_probes(network, sim, count=20, spacing=0.1)
        assert inspector.classify(0, 1) == "timely"

    def test_eventually_timely_link_classified_after_gst(self) -> None:
        sim = Simulation(seed=3)
        inspector = TimelinessInspector()
        network = Network(sim, observers=(inspector,))
        network.set_link(0, 1, EventuallyTimelyLink(gst=2.0))
        # Pre-GST stragglers can arrive up to 5s late (resetting the
        # clean suffix), so keep sending well past the last possible
        # straggler at t = gst + pre_gst_delay_max = 7s.
        _drive_probes(network, sim, count=120, spacing=0.1)
        stats = inspector.links[(0, 1)]
        assert stats.bad_events > 0
        assert inspector.classify(0, 1) == "eventually-timely"

    def test_fair_lossy_link_classified_lossy(self) -> None:
        sim = Simulation(seed=3)
        inspector = TimelinessInspector()
        network = Network(sim, observers=(inspector,))
        network.set_link(0, 1, FairLossyLink(loss=0.6, delay_max=0.02))
        _drive_probes(network, sim, count=60, spacing=0.1)
        assert inspector.classify(0, 1) == "lossy"

    def test_too_few_samples_is_insufficient_data(self) -> None:
        sim = Simulation(seed=3)
        inspector = TimelinessInspector(min_samples=8)
        network = Network(sim, observers=(inspector,))
        _drive_probes(network, sim, count=4, spacing=0.1)
        assert inspector.classify(0, 1) == "insufficient-data"
        assert inspector.classify(1, 0) == "insufficient-data"  # no traffic

    def test_expected_link_classes_reads_the_topology(self) -> None:
        sim = Simulation(seed=3)
        network = Network(sim, observers=())
        for pid in (0, 1, 2):
            Recorder(pid, sim, network)
        network.set_link(0, 1, EventuallyTimelyLink())
        network.set_link(1, 0, FairLossyLink())
        expected = expected_link_classes(network)
        assert expected[(0, 1)] == "eventually-timely"
        assert expected[(1, 0)] == "lossy"
        assert expected[(0, 2)] == "timely"  # default link

    @pytest.mark.parametrize("observed,expected,match", [
        ("timely", "timely", True),
        ("lossy", "timely", False),
        ("eventually-timely", "timely", False),
        ("timely", "eventually-timely", True),
        ("lossy", "eventually-timely", True),  # run may end pre-GST
        ("eventually-timely", "eventually-timely", True),
        ("timely", "lossy", True),  # a lossy link may happen to behave
        ("lossy", "lossy", True),
        ("insufficient-data", "timely", True),
        ("insufficient-data", "unknown", True),
    ])
    def test_classification_matches_table(self, observed: str,
                                          expected: str,
                                          match: bool) -> None:
        assert classification_matches(observed, expected) is match

    def test_to_json_shape(self) -> None:
        sim = Simulation(seed=3)
        inspector = TimelinessInspector()
        network = Network(sim, observers=(inspector,))
        _drive_probes(network, sim, count=10, spacing=0.1)
        block = inspector.to_json()
        assert set(block) == {"params", "links"}
        assert block["params"]["tail"] == inspector.tail
        link = block["links"]["0->1"]
        assert link["class"] == "timely"
        assert link["sent"] == 10
        assert link["delivered"] == 10


class TestVerdict:
    def test_passed_and_bool(self) -> None:
        verdict = Verdict.passed(leader=2)
        assert verdict.ok and bool(verdict)
        assert verdict.violations == ()
        assert verdict.evidence == {"leader": 2}

    def test_failed_requires_a_violation(self) -> None:
        with pytest.raises(ValueError):
            Verdict.failed()

    def test_failed_and_bool(self) -> None:
        verdict = Verdict.failed("no leader elected", changes=7)
        assert not verdict.ok and not bool(verdict)
        assert verdict.violations == ("no leader elected",)

    def test_merge_unions_violations_and_evidence(self) -> None:
        merged = Verdict.passed(a=1).merge(
            Verdict.failed("x", b=2), Verdict.passed(a=3))
        assert merged.ok is False
        assert merged.violations == ("x",)
        assert merged.evidence == {"a": 3, "b": 2}  # later verdicts win

    def test_to_json_freezes_containers(self) -> None:
        verdict = Verdict.passed(pids={3, 1, 2}, pair=(1, 2),
                                 nested={"k": (4, 5)})
        document = verdict.to_json()
        assert document == {
            "ok": True,
            "violations": [],
            "evidence": {"pids": [1, 2, 3], "pair": [1, 2],
                         "nested": {"k": [4, 5]}},
        }
        import json
        json.dumps(document)  # must be serialisable as-is

    def test_is_frozen(self) -> None:
        with pytest.raises(AttributeError):
            Verdict.passed().ok = False
