"""Cluster assembly: n processes + network + kernel in one handle.

:class:`Cluster` is the object experiments and examples actually hold.
It wires a :class:`~repro.sim.engine.Simulation`, a
:class:`~repro.sim.network.Network` with a link map from
:mod:`repro.sim.topology`, and one protocol process per pid, then exposes
the handful of operations runs need: start everything, run the clock,
crash processes, and ask who is still up.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from repro.obs.observer import Observer
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
    """A running system of ``n`` protocol processes.

    Build one with :meth:`build`; construct processes via the factory so
    the cluster stays agnostic of which protocol it hosts.

    Determinism: a cluster is deterministic in its build arguments — the
    same ``(n, factory, links, seed)`` and the same sequence of
    operations (``run_until``, ``crash``, ...) replay the identical run,
    on any machine, in any worker process.  All times accepted and
    reported by cluster methods are **seconds of simulated time**.
    """

    def __init__(self, sim: Simulation, network: Network,
                 processes: dict[int, Process]) -> None:
        self.sim = sim
        self.network = network
        self.processes = processes

    @classmethod
    def build(
        cls,
        n: int,
        process_factory: ProcessFactory,
        links: Mapping[tuple[int, int], LinkPolicy] | None = None,
        seed: int = 0,
        trace: bool = False,
        metrics_window: float = 1.0,
        observers: Iterable[Observer] = (),
        link_rng: str = "pair",
    ) -> "Cluster":
        """Assemble a cluster of ``n`` processes with pids ``0..n-1``.

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
        metrics_window:
            Aggregation window of the metrics collector.
        observers:
            Extra observers to attach to the network's hub.
        link_rng:
            Link RNG stream granularity, forwarded to
            :class:`~repro.sim.network.Network`: ``"pair"`` (default)
            or ``"src"`` (one stream per sender; the large-n setting).
        """
        if n < 2:
            raise ValueError("a distributed system needs at least 2 processes")
        sim = Simulation(seed=seed)
        network = Network(sim, observers=(
            MetricsCollector(window=metrics_window),
            *((TraceLog(enabled=True),) if trace else ()),
            *observers,
        ), link_rng=link_rng)
        if links is not None:
            apply_links(network, links)
        processes = {pid: process_factory(pid, sim, network) for pid in range(n)}
        return cls(sim, network, processes)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of processes."""
        return len(self.processes)

    @property
    def pids(self) -> list[int]:
        """All pids, sorted."""
        return sorted(self.processes)

    @property
    def networks(self) -> tuple[Network, ...]:
        """All networks of this system (one; fault plans iterate this)."""
        return (self.network,)

    @property
    def metrics(self) -> MetricsCollector:
        """The network's metrics collector (delegates to the observer hub)."""
        return self.network.metrics

    @property
    def trace(self) -> TraceLog:
        """The network's trace log (delegates to the observer hub).

        On clusters built with ``trace=False`` this returns a disabled
        log (lazily attached) instead of crashing, so trace views stay
        safe to request unconditionally.
        """
        return self.network.trace

    def process(self, pid: int) -> Process:
        """The process with this pid."""
        return self.processes[pid]

    def up_pids(self) -> list[int]:
        """Pids of processes that are currently up (never crashed, or recovered)."""
        return [pid for pid in self.pids if not self.processes[pid].crashed]

    def crashed_pids(self) -> list[int]:
        """Pids of processes that are currently down."""
        return [pid for pid in self.pids if self.processes[pid].crashed]

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def start_all(self, stagger: float = 0.0) -> None:
        """Start every process, optionally staggering starts by ``stagger``.

        With a positive stagger, pid ``i`` starts at ``i * stagger`` —
        real systems never boot simultaneously, and several experiments
        rely on asymmetric starts to provoke leadership duels.
        """
        for index, pid in enumerate(self.pids):
            process = self.processes[pid]
            if stagger > 0:
                self.sim.call_at(index * stagger, process.start)
            else:
                process.start()

    def run_until(self, deadline: float) -> None:
        """Advance the simulated clock to ``deadline`` (simulated seconds)."""
        self.sim.run_until(deadline)

    def run_for(self, duration: float) -> None:
        """Advance the simulated clock by ``duration`` simulated seconds."""
        self.sim.run_for(duration)

    def crash(self, pid: int) -> None:
        """Crash one process immediately."""
        self.processes[pid].crash()

    def crash_many(self, pids: Sequence[int]) -> None:
        """Crash several processes immediately."""
        for pid in pids:
            self.crash(pid)

    def recover(self, pid: int) -> None:
        """Recover one down process as a fresh incarnation (see :meth:`Process.recover`)."""
        self.processes[pid].recover()

    def pause(self, pid: int) -> None:
        """Freeze one process (see :meth:`Process.pause`)."""
        self.processes[pid].pause()

    def resume(self, pid: int) -> None:
        """Unfreeze one process and replay what it missed."""
        self.processes[pid].resume()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Cluster(n={self.n}, t={self.sim.now:.3f}, "
                f"up={len(self.up_pids())})")
