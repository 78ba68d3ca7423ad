"""Unit tests for the OmegaProtocol base class and the registry."""

from __future__ import annotations

import pytest

from repro.core.all_timely import AllTimelyOmega
from repro.core.comm_efficient import CommEfficientOmega
from repro.core.config import OmegaConfig
from repro.core.f_source import FSourceOmega
from repro.core.omega import OmegaProtocol
from repro.core.packet_efficient import PacketEfficientOmega
from repro.core.registry import (
    OMEGA_ALGORITHMS,
    algorithm_class,
    failure_model,
    make_factory,
)
from repro.core.source_omega import SourceOmega
from repro.sim.engine import Simulation
from repro.sim.network import Network


class Fixed(OmegaProtocol):
    """A trivial protocol for base-class tests."""


def build_one() -> tuple[Simulation, Fixed]:
    sim = Simulation(seed=0)
    network = Network(sim)
    proto = Fixed(0, sim, network)
    Fixed(1, sim, network)
    return sim, proto


class TestOutputHistory:
    def test_initial_output_recorded_on_start(self) -> None:
        _, proto = build_one()
        proto.start()
        assert proto.leader() == 0
        assert proto.history == [(0.0, 0)]
        assert proto.leader_changes == 0

    def test_changes_recorded_with_time(self) -> None:
        sim, proto = build_one()
        proto.start()
        sim.run_until(2.0)
        proto._output(1)
        sim.run_until(3.0)
        proto._output(0)
        assert proto.history == [(0.0, 0), (2.0, 1), (3.0, 0)]
        assert proto.leader_changes == 2

    def test_same_output_not_duplicated(self) -> None:
        _, proto = build_one()
        proto.start()
        proto._output(0)
        proto._output(0)
        assert len(proto.history) == 1

    def test_default_config_attached(self) -> None:
        _, proto = build_one()
        assert isinstance(proto.config, OmegaConfig)


class TestRegistry:
    def test_known_names(self) -> None:
        assert set(OMEGA_ALGORITHMS) == {
            "all-timely", "source", "comm-efficient", "f-source",
            "crash-recovery", "packet-efficient",
        }

    def test_algorithm_class_lookup(self) -> None:
        assert algorithm_class("all-timely") is AllTimelyOmega
        assert algorithm_class("source") is SourceOmega
        assert algorithm_class("comm-efficient") is CommEfficientOmega
        assert algorithm_class("f-source") is FSourceOmega
        assert algorithm_class("packet-efficient") is PacketEfficientOmega

    def test_only_the_recovering_omega_survives_a_recover(self) -> None:
        assert {name: failure_model(name) for name in OMEGA_ALGORITHMS} \
            == {name: "crash-recovery" if name == "crash-recovery"
                else "crash-stop" for name in OMEGA_ALGORITHMS}

    def test_unknown_name_lists_known(self) -> None:
        with pytest.raises(KeyError, match="all-timely"):
            algorithm_class("raft")

    def test_factory_builds_processes(self) -> None:
        sim = Simulation()
        network = Network(sim)
        factory = make_factory("source", OmegaConfig(eta=0.25))
        proto = factory(0, sim, network)
        assert isinstance(proto, SourceOmega)
        assert proto.config.eta == 0.25

    def test_f_source_factory_requires_n_and_f(self) -> None:
        with pytest.raises(ValueError):
            make_factory("f-source")

    def test_f_source_factory_passes_parameters(self) -> None:
        sim = Simulation()
        network = Network(sim)
        factory = make_factory("f-source", n=5, f=2, quorum_override=4)
        proto = factory(0, sim, network)
        assert isinstance(proto, FSourceOmega)
        assert proto.n == 5 and proto.f == 2 and proto.quorum == 4
