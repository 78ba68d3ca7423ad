"""Pairing Omega with consensus on one simulated machine.

A real deployment runs the failure detector and the agreement protocol
in one process over the same NICs.  In the simulator each layer is a
:class:`~repro.sim.process.Process` registered under the node's pid on
its *own* network — one network for failure-detector traffic, one for
consensus traffic — both driven by the same simulation clock and both
given independently sampled link policies of the *same* topology.  This
keeps per-layer message accounting exact (the experiments report them
separately) while preserving the coupling that matters: a node crash
takes both layers down at the same instant.

:class:`ConsensusSystem` assembles the whole thing and exposes the same
surface as :class:`~repro.sim.cluster.Cluster` where it matters (``sim``,
``crash``, ``run_until``), so fault plans work unchanged.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from repro.consensus.compaction import CompactingReplica
from repro.consensus.config import ConsensusConfig
from repro.consensus.replica import LogReplica
from repro.consensus.single import SingleDecreeConsensus
from repro.core.omega import OmegaProtocol
from repro.core.registry import make_factory
from repro.core.config import OmegaConfig
from repro.sim.engine import Simulation
from repro.sim.links import LinkPolicy
from repro.sim.metrics import MetricsCollector
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.topology import apply_links
from repro.sim.trace import TraceLog

__all__ = ["ConsensusNode", "ConsensusSystem"]

LinkMapFactory = Callable[[], Mapping[tuple[int, int], LinkPolicy]]
# (pid, sim, agreement network, the node's Omega output) -> agreement process
AgreementFactory = Callable[[int, Simulation, Network, Callable[[], int]],
                            Process]


class ConsensusNode:
    """One machine: an Omega module plus an agreement process."""

    def __init__(self, pid: int, omega: OmegaProtocol, agreement: Process) -> None:
        self.pid = pid
        self.omega = omega
        self.agreement = agreement

    def start(self) -> None:
        """Start both layers."""
        self.omega.start()
        self.agreement.start()

    def crash(self) -> None:
        """Crash both layers at once — a node failure, not a link failure."""
        self.omega.crash()
        self.agreement.crash()

    def recover(self) -> None:
        """Bring both layers back — the machine rebooted.

        Each layer is its own :class:`~repro.sim.process.Process` with
        its own incarnation counter and (optionally) its own stable
        storage, so both must recover.
        """
        self.omega.recover()
        self.agreement.recover()

    def pause(self) -> None:
        """Freeze both layers — a machine stall, not a link failure."""
        self.omega.pause()
        self.agreement.pause()

    def resume(self) -> None:
        """Unfreeze both layers."""
        self.omega.resume()
        self.agreement.resume()

    @property
    def crashed(self) -> bool:
        """Whether the node is down."""
        return self.omega.crashed


class ConsensusSystem:
    """``n`` nodes running Omega + consensus over paired networks."""

    def __init__(self, sim: Simulation, fd_network: Network,
                 agreement_network: Network,
                 nodes: dict[int, ConsensusNode]) -> None:
        self.sim = sim
        self.fd_network = fd_network
        self.agreement_network = agreement_network
        self.nodes = nodes
        # What up_pids() reads on every client offer, sorted once: a
        # node is down exactly when its Omega layer is.
        self._omegas = tuple((pid, nodes[pid].omega) for pid in sorted(nodes))

    @classmethod
    def build_single_decree(
        cls,
        n: int,
        links_factory: LinkMapFactory,
        proposals: Sequence[Any],
        omega_name: str = "comm-efficient",
        omega_config: OmegaConfig | None = None,
        consensus_config: ConsensusConfig | None = None,
        f: int | None = None,
        seed: int = 0,
        trace: bool = False,
        metrics_window: float = 1.0,
        persist: bool = False,
    ) -> "ConsensusSystem":
        """Assemble a single-decree ensemble.

        ``links_factory`` is called twice (a map's policy objects carry
        per-link state, so each network gets its own map).  ``proposals[pid]`` is each node's initial value.
        ``f`` is only needed by the ``"f-source"`` Omega.  ``persist``
        puts the agreement layer's state on stable storage so nodes
        survive crash+recover (pair it with the ``"crash-recovery"``
        Omega for a fully recovery-capable node).
        """
        if len(proposals) != n:
            raise ValueError("need exactly one proposal per process")
        return cls._build(
            Simulation(seed=seed), n, links_factory,
            make_factory(omega_name, omega_config, n=n, f=f),
            lambda pid, sim, network, leader_of: SingleDecreeConsensus(
                pid, sim, network, n, proposals[pid], leader_of=leader_of,
                config=consensus_config, persist=persist),
            trace, metrics_window)

    @classmethod
    def build_replicated_log(
        cls,
        n: int,
        links_factory: LinkMapFactory,
        omega_name: str = "comm-efficient",
        omega_config: OmegaConfig | None = None,
        consensus_config: ConsensusConfig | None = None,
        f: int | None = None,
        seed: int = 0,
        trace: bool = False,
        metrics_window: float = 1.0,
        persist: bool = False,
    ) -> "ConsensusSystem":
        """Assemble a replicated-log ensemble (repeated consensus).

        ``persist`` puts each replica's acceptor state and log on stable
        storage so nodes survive crash+recover.
        """
        return cls._build(
            Simulation(seed=seed), n, links_factory,
            make_factory(omega_name, omega_config, n=n, f=f),
            lambda pid, sim, network, leader_of: LogReplica(
                pid, sim, network, n, leader_of=leader_of,
                config=consensus_config, persist=persist),
            trace, metrics_window)

    @classmethod
    def build_compacting_log(
        cls,
        n: int,
        links_factory: LinkMapFactory,
        machine_factory: Callable[[], Any],
        keep_tail: int = 32,
        omega_name: str = "comm-efficient",
        omega_config: OmegaConfig | None = None,
        consensus_config: ConsensusConfig | None = None,
        f: int | None = None,
        seed: int = 0,
        trace: bool = False,
        metrics_window: float = 1.0,
    ) -> "ConsensusSystem":
        """Assemble a replicated log with compaction and state machines."""
        return cls._build(
            Simulation(seed=seed), n, links_factory,
            make_factory(omega_name, omega_config, n=n, f=f),
            lambda pid, sim, network, leader_of: CompactingReplica(
                pid, sim, network, n, leader_of=leader_of,
                machine_factory=machine_factory, keep_tail=keep_tail,
                config=consensus_config),
            trace, metrics_window)

    @classmethod
    def _build(cls, sim: Simulation, n: int, links_factory: LinkMapFactory,
               omega_factory: Callable[[int, Simulation, Network],
                                       OmegaProtocol],
               make_agreement: AgreementFactory, trace: bool,
               metrics_window: float) -> "ConsensusSystem":
        """One Omega + agreement stack on ``sim``: a failure-detector
        network, an agreement network, and ``n`` nodes pairing the two."""
        fd_network = cls._network(sim, links_factory, trace, metrics_window)
        ag_network = cls._network(sim, links_factory, trace, metrics_window)
        nodes: dict[int, ConsensusNode] = {}
        for pid in range(n):
            omega = omega_factory(pid, sim, fd_network)
            nodes[pid] = ConsensusNode(
                pid, omega, make_agreement(pid, sim, ag_network, omega.leader))
        return cls(sim, fd_network, ag_network, nodes)

    @staticmethod
    def _network(sim: Simulation, links_factory: LinkMapFactory,
                 trace: bool, metrics_window: float) -> Network:
        network = Network(sim, observers=(
            MetricsCollector(window=metrics_window),
            *((TraceLog(enabled=True),) if trace else ()),
        ))
        apply_links(network, links_factory())
        return network

    # ------------------------------------------------------------------
    # Cluster-compatible surface (fault plans, runners)
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    @property
    def pids(self) -> list[int]:
        """All pids, sorted."""
        return sorted(self.nodes)

    def node(self, pid: int) -> ConsensusNode:
        """The node with this pid."""
        return self.nodes[pid]

    @property
    def networks(self) -> tuple[Network, Network]:
        """Both networks (fault plans apply network faults to each)."""
        return (self.fd_network, self.agreement_network)

    def crash(self, pid: int) -> None:
        """Crash one node (both layers)."""
        self.nodes[pid].crash()

    def recover(self, pid: int) -> None:
        """Recover one node (both layers)."""
        self.nodes[pid].recover()

    def pause(self, pid: int) -> None:
        """Freeze one node (both layers)."""
        self.nodes[pid].pause()

    def resume(self, pid: int) -> None:
        """Unfreeze one node (both layers)."""
        self.nodes[pid].resume()

    def up_pids(self) -> list[int]:
        """Pids of nodes still up, sorted."""
        return [pid for pid, omega in self._omegas if not omega._crashed]

    def start_all(self, stagger: float = 0.0) -> None:
        """Start every node, optionally staggered."""
        for index, pid in enumerate(self.pids):
            node = self.nodes[pid]
            if stagger > 0:
                self.sim.call_at(index * stagger, node.start)
            else:
                node.start()

    def run_until(self, deadline: float) -> None:
        """Advance the simulated clock to ``deadline``."""
        self.sim.run_until(deadline)

    def run_for(self, duration: float) -> None:
        """Advance the simulated clock by ``duration``."""
        self.sim.run_for(duration)
