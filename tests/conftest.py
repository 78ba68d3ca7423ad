"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from repro.sim.engine import Simulation
from repro.sim.messages import Message
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.trace import TraceLog
from repro.sim.metrics import MetricsCollector


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
