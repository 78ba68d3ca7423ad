"""Cluster assembly: n machines + networks + kernel in one handle.

:class:`Cluster` is the object experiments and examples actually hold.
It wires a :class:`~repro.sim.engine.Simulation`, one or more
:class:`~repro.sim.network.Network`\\ s with link maps from
:mod:`repro.sim.topology`, and per pid a *stack* of protocol processes —
one layer per network — then exposes the handful of operations runs
need: start everything, run the clock, crash, recover, pause and resume
machines, and ask who is still up.

A machine fails as a whole: every operation on a pid hits every layer
of its stack, first to last, and machines are walked in pid order.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.sim.engine import Simulation
from repro.sim.links import LinkPolicy
from repro.sim.metrics import MetricsCollector
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.topology import apply_links
from repro.sim.trace import TraceLog

__all__ = ["Cluster"]

ProcessFactory = Callable[[int, Simulation, Network], Process]


class Cluster:
    """A running system of ``n`` machines, each a stack of processes.

    ``stacks[pid]`` holds one process per network, in ``networks``
    order; a machine is up while its first layer is.  Build a
    one-layer cluster with :meth:`build`; construct processes via the
    factory so the cluster stays agnostic of which protocol it hosts.

    Determinism: a cluster is deterministic in its build arguments — the
    same ``(n, factory, links, seed)`` and the same sequence of
    operations (``run_until``, ``crash``, ...) replay the identical run,
    on any machine, in any worker process.  All times accepted and
    reported by cluster methods are **seconds of simulated time**.
    """

    def __init__(self, sim: Simulation, networks: Sequence[Network],
                 stacks: Mapping[int, Sequence[Process]]) -> None:
        self.sim = sim
        self.networks = tuple(networks)
        self.stacks = {pid: tuple(stacks[pid]) for pid in sorted(stacks)}
        self.processes = {pid: stack[0] for pid, stack in self.stacks.items()}
        # What up_pids() reads on every client offer, sorted once.
        self._firsts = tuple(self.processes.items())

    @classmethod
    def build(
        cls,
        n: int,
        process_factory: ProcessFactory,
        links: Mapping[tuple[int, int], LinkPolicy] | None = None,
        seed: int = 0,
        trace: bool = False,
        link_rng: str = "pair",
    ) -> "Cluster":
        """Assemble a cluster of ``n`` one-layer machines, pids ``0..n-1``.

        The network always gets a :class:`MetricsCollector`; a
        :class:`TraceLog` is attached only when ``trace`` is true (an
        untraced cluster pays nothing for tracing — asking for
        ``cluster.trace`` anyway lazily attaches a disabled log rather
        than crashing).

        Parameters
        ----------
        n:
            Number of processes.
        process_factory:
            Called as ``factory(pid, sim, network)`` for each pid; must
            return a :class:`Process` registered on that network (the
            base class constructor registers automatically).
        links:
            Link map from :mod:`repro.sim.topology`; defaults to one
            timely law for every pair.
        seed:
            Root seed of the run.
        trace:
            Enable full event tracing (tests: yes, benchmarks: no).
        link_rng:
            Link RNG stream granularity, forwarded to
            :class:`~repro.sim.network.Network`: ``"pair"`` (default)
            or ``"src"`` (one stream per sender; the large-n setting).
        """
        if n < 2:
            raise ValueError("a distributed system needs at least 2 processes")
        sim = Simulation(seed=seed)
        network = Network(sim, observers=(
            MetricsCollector(),
            *((TraceLog(enabled=True),) if trace else ()),
        ), link_rng=link_rng)
        if links is not None:
            apply_links(network, links)
        return cls(sim, (network,), {
            pid: (process_factory(pid, sim, network),) for pid in range(n)})

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of machines."""
        return len(self.stacks)

    @property
    def pids(self) -> list[int]:
        """All pids, sorted."""
        return list(self.stacks)

    @property
    def network(self) -> Network:
        """The first network (the only one of a :meth:`build` cluster)."""
        return self.networks[0]

    @property
    def metrics(self) -> MetricsCollector:
        """The first network's metrics collector."""
        return self.network.metrics

    @property
    def trace(self) -> TraceLog:
        """The first network's trace log.

        On clusters built with ``trace=False`` this returns a disabled
        log (lazily attached) instead of crashing, so trace views stay
        safe to request unconditionally.
        """
        return self.network.trace

    def process(self, pid: int) -> Process:
        """The first layer of machine ``pid``."""
        return self.processes[pid]

    def up_pids(self) -> list[int]:
        """Pids of machines that are currently up (never crashed, or recovered)."""
        return [pid for pid, first in self._firsts if not first._crashed]

    def crashed_pids(self) -> list[int]:
        """Pids of machines that are currently down."""
        return [pid for pid, first in self._firsts if first._crashed]

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def start_all(self) -> None:
        """Start every layer of every machine now (post each layer's
        ``start`` with ``sim.call_at`` for a staggered boot)."""
        for stack in self.stacks.values():
            for layer in stack:
                layer.start()

    def run_until(self, deadline: float) -> None:
        """Advance the simulated clock to ``deadline`` (simulated seconds)."""
        self.sim.run_until(deadline)

    def run_for(self, duration: float) -> None:
        """Advance the simulated clock by ``duration`` simulated seconds."""
        self.sim.run_for(duration)

    def crash(self, pid: int) -> None:
        """Crash one machine immediately: every layer at the same instant."""
        for layer in self.stacks[pid]:
            layer.crash()

    def crash_many(self, pids: Sequence[int]) -> None:
        """Crash several machines immediately."""
        for pid in pids:
            self.crash(pid)

    def recover(self, pid: int) -> None:
        """Reboot one down machine: each layer recovers as a fresh
        incarnation with its own stable storage (see :meth:`Process.recover`)."""
        for layer in self.stacks[pid]:
            layer.recover()

    def pause(self, pid: int) -> None:
        """Freeze one machine (see :meth:`Process.pause`)."""
        for layer in self.stacks[pid]:
            layer.pause()

    def resume(self, pid: int) -> None:
        """Unfreeze one machine; each layer replays what it missed."""
        for layer in self.stacks[pid]:
            layer.resume()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(n={self.n}, t={self.sim.now:.3f}, "
                f"up={len(self.up_pids())})")
