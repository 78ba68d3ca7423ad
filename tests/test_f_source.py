"""Behavioural tests for the ◇f-source Omega (R3) and its lower bound (R4)."""

from __future__ import annotations

import pytest

from repro.core import FsAlive, Suspect, analyze_omega_run, make_factory
from repro.core.config import OmegaConfig
from repro.core.f_source import FSourceOmega
from repro.sim import Cluster, FaultPlan, LinkTimings
from repro.sim.engine import Simulation
from repro.sim.network import Network
from repro.sim.topology import f_source_links


def build(n: int = 5, f: int = 2, source: int = 2,
          targets: tuple[int, ...] = (0, 4), seed: int = 1,
          gst: float = 4.0, outages: bool = False,
          quorum_override: int | None = None) -> Cluster:
    timings = LinkTimings(gst=gst,
                          fair_outage_period=15.0 if outages else 0.0,
                          fair_outage_growth=4.0 if outages else 0.0)
    return Cluster.build(
        n, make_factory("f-source", OmegaConfig(), n=n, f=f,
                        quorum_override=quorum_override),
        links=f_source_links(n, source, targets, timings), seed=seed)


class TestConstruction:
    def make(self, **kwargs) -> FSourceOmega:  # noqa: ANN003
        sim = Simulation()
        network = Network(sim)
        return FSourceOmega(0, sim, network, **kwargs)

    def test_quorum_is_n_minus_f(self) -> None:
        proto = self.make(n=7, f=2)
        assert proto.quorum == 5

    def test_quorum_override(self) -> None:
        proto = self.make(n=7, f=2, quorum_override=3)
        assert proto.quorum == 3

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            self.make(n=1, f=1)
        with pytest.raises(ValueError):
            self.make(n=5, f=0)
        with pytest.raises(ValueError):
            self.make(n=5, f=5)


class TestSuspicionQuorum:
    def build_direct(self, n: int = 4, f: int = 1) -> FSourceOmega:
        sim = Simulation()
        network = Network(sim)
        protos = [FSourceOmega(pid, sim, network, n=n, f=f)
                  for pid in range(n)]
        for proto in protos:
            proto.start()
        return protos[0]

    def test_counter_advances_only_at_quorum(self) -> None:
        proto = self.build_direct(n=4, f=1)  # quorum 3
        proto.deliver(Suspect(1, target=3, epoch=0))
        assert proto.counter_of(3) == 0
        proto.deliver(Suspect(2, target=3, epoch=0))
        assert proto.counter_of(3) == 0
        # Duplicate suspector must not count twice.
        proto.deliver(Suspect(2, target=3, epoch=0))
        assert proto.counter_of(3) == 0
        proto.deliver(Suspect(3, target=3, epoch=0))
        assert proto.counter_of(3) == 1

    def test_stale_epoch_suspicions_ignored(self) -> None:
        proto = self.build_direct(n=4, f=1)
        proto.counters[3] = 5
        proto.deliver(Suspect(1, target=3, epoch=2))
        proto.deliver(Suspect(2, target=3, epoch=2))
        proto.deliver(Suspect(0, target=3, epoch=2))
        assert proto.counter_of(3) == 5

    def test_ahead_epoch_adopted_as_gossip(self) -> None:
        proto = self.build_direct(n=4, f=1)
        proto.deliver(Suspect(1, target=3, epoch=9))
        assert proto.counter_of(3) == 9

    def test_counters_merge_componentwise_max(self) -> None:
        proto = self.build_direct(n=4, f=1)
        proto.counters[1] = 4
        proto.deliver(FsAlive(2, counters=(0, 2, 7, 1)))
        assert proto.counters == [0, 4, 7, 1]

    def test_output_is_minimum_priority(self) -> None:
        proto = self.build_direct(n=4, f=1)
        proto.deliver(FsAlive(2, counters=(5, 3, 3, 4)))
        assert proto.leader() == 1, "min (counter, id) wins"


class TestConvergence:
    def test_converges_with_exactly_f_timely_links(self) -> None:
        cluster = build()
        cluster.start_all()
        cluster.run_until(400.0)
        report = analyze_omega_run(cluster)
        assert report.omega_holds

    def test_source_counter_bounded(self) -> None:
        cluster = build(source=2, targets=(0, 4), f=2)
        cluster.start_all()
        cluster.run_until(300.0)
        mid = [cluster.process(p).counter_of(2) for p in cluster.pids]
        cluster.run_until(500.0)
        end = [cluster.process(p).counter_of(2) for p in cluster.pids]
        assert mid == end, "the ◇f-source's counter must freeze"

    def test_crashed_process_counter_grows_forever(self) -> None:
        cluster = build()
        FaultPlan.crashes_at((20.0, 1)).schedule(cluster)
        cluster.start_all()
        cluster.run_until(200.0)
        mid = cluster.process(0).counter_of(1)
        cluster.run_until(500.0)
        end = cluster.process(0).counter_of(1)
        assert end > mid, "silent processes keep accruing confirmed suspicions"

    def test_tolerates_crash_of_timely_target(self) -> None:
        cluster = build(source=2, targets=(0, 4), f=2)
        FaultPlan.crashes_at((20.0, 0), (30.0, 4)).schedule(cluster)
        cluster.start_all()
        cluster.run_until(500.0)
        report = analyze_omega_run(cluster)
        assert report.omega_holds
        assert report.final_leader in {1, 2, 3}


class TestLowerBound:
    """R4: with only f-1 timely links the would-be source is not safe."""

    def test_sub_threshold_source_counter_grows(self) -> None:
        # f = 2 but only ONE timely output link, and fair-lossy outages
        # that grow over time (the model's unbounded silences): the n - f
        # processes behind bad links meet the quorum forever.
        grown = build(n=5, f=2, source=2, targets=(0,),
                      outages=True)
        grown.start_all()
        grown.run_until(300.0)
        mid = grown.process(0).counter_of(2)
        grown.run_until(600.0)
        end = grown.process(0).counter_of(2)
        assert end > mid, "with an ◇(f-1)-source the counter keeps growing"

    def test_proper_f_source_contrast(self) -> None:
        # Same adversarial outages but the full f timely links: bounded.
        proper = build(n=5, f=2, source=2, targets=(0, 4),
                       outages=True)
        proper.start_all()
        proper.run_until(300.0)
        mid = proper.process(0).counter_of(2)
        proper.run_until(600.0)
        end = proper.process(0).counter_of(2)
        assert end == mid

    def test_quorum_ablation_too_small_quorum_hurts_source(self) -> None:
        # With quorum n - f - 1 the source's counter grows even with all
        # f timely links in place — the constant n - f is tight.
        cluster = build(n=5, f=2, source=2, targets=(0, 4),
                        outages=True, quorum_override=2)
        cluster.start_all()
        cluster.run_until(300.0)
        mid = cluster.process(0).counter_of(2)
        cluster.run_until(600.0)
        end = cluster.process(0).counter_of(2)
        assert end > mid
