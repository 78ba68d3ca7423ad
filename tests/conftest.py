"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest
from hypothesis import settings

from repro.sim.engine import Simulation
from repro.sim.messages import Message
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.trace import TraceLog
from repro.sim.metrics import MetricsCollector

# Tier-1 is deterministic: every ``@given`` test draws the same examples
# on every run and replays nothing from a local example database.  Random
# search runs as ``--hypothesis-profile=explore --hypothesis-seed=N``,
# so a failure found there names the seed that reproduces it.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.register_profile("explore")
settings.load_profile("deterministic")


@dataclass(frozen=True)
class Probe(Message):
    """A minimal concrete message for substrate tests."""

    payload: int = 0


@dataclass(frozen=True)
class Ping(Message):
    """A second fairness type beside :class:`Probe`."""


class Recorder(Process):
    """A process that records everything it receives and every timer."""

    def on_start(self) -> None:
        self.received: list[tuple[float, Message]] = []
        self.timer_fires: list[tuple[float, object]] = []

    def on_message(self, message: Message) -> None:
        self.received.append((self.now, message))

    def on_timer(self, key) -> None:  # noqa: ANN001 - hashable key
        self.timer_fires.append((self.now, key))


@pytest.fixture
def sim() -> Simulation:
    """A fresh simulation with a fixed seed."""
    return Simulation(seed=1234)


@pytest.fixture
def network(sim: Simulation) -> Network:
    """A traced network over timely default links."""
    return Network(sim, observers=(MetricsCollector(window=1.0),
                                   TraceLog(enabled=True)))


@pytest.fixture
def rng() -> random.Random:
    """A seeded plain RNG for policy-level tests."""
    return random.Random(99)


def make_pair(sim: Simulation, network: Network) -> tuple[Recorder, Recorder]:
    """Two started recorder processes on the network."""
    a = Recorder(0, sim, network)
    b = Recorder(1, sim, network)
    a.start()
    b.start()
    return a, b


def inject(network: Network, *events) -> None:  # noqa: ANN002
    """Schedule nemesis link-fault ``events`` on one bare network, through
    the same validation and per-pair path a plan takes on a cluster."""
    from types import SimpleNamespace

    from repro.sim.nemesis import FaultPlan

    FaultPlan(events).schedule(SimpleNamespace(
        sim=network.sim, pids=network.pids, networks=(network,)))


def severed(network: Network, src: int, dst: int) -> bool:
    """Whether a message ``src`` sends ``dst`` now drops as ``partition``."""
    before = network.metrics.dropped_by_reason.get("partition", 0)
    network.send(src, dst, Probe(src))
    return network.metrics.dropped_by_reason.get("partition", 0) > before


def drip(count: int, period: float, start: float, **fields):  # noqa: ANN003,ANN201
    """The fixed-count client drip as a :class:`~repro.load.LoadSpec`:
    one client on one key, ``count`` commands ``period`` apart from
    ``start``; attach it to a built system with ``.drive(system)``."""
    from repro.load import LoadSpec

    return LoadSpec(clients=1, keys=1, arrival="steady", rate=1 / period,
                    start=start, duration=count * period, **fields)
