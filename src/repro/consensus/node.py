"""Pairing Omega with consensus on one simulated machine.

A real deployment runs the failure detector and the agreement protocol
in one process over the same NICs.  In the simulator each layer is a
:class:`~repro.sim.process.Process` registered under the node's pid on
its *own* network — one network for failure-detector traffic, one per
agreement group — all driven by the same simulation clock and all
given independently sampled link policies of the *same* topology.  This
keeps per-layer message accounting exact (the experiments report them
separately) while preserving the coupling that matters: a node crash
takes every layer down at the same instant.

:class:`ConsensusSystem` is a :class:`~repro.sim.cluster.Cluster` whose
machine stacks are ``(omega, agreement₀, …, agreement_{g−1})``, so
``crash``/``recover``/``pause``/``resume`` and fault plans work
unchanged.  One replicated log is a total order, and a total order is a
bottleneck: with ``groups > 1`` the key space is *sharded* over that
many independent logs (:meth:`ConsensusSystem.group_of`), each
linearizable on its own, all following the machine's one Omega — whose
failure-detection traffic does not grow with the group count.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Hashable, Mapping, NamedTuple, Sequence

from repro.consensus.compaction import CompactingReplica
from repro.consensus.config import ConsensusConfig
from repro.consensus.replica import LogReplica
from repro.consensus.single import SingleDecreeConsensus
from repro.core.omega import OmegaProtocol
from repro.core.registry import make_factory
from repro.core.config import OmegaConfig
from repro.sim.cluster import Cluster
from repro.sim.engine import Simulation
from repro.sim.links import LinkPolicy
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.topology import apply_links

__all__ = ["ConsensusNode", "ConsensusSystem"]

LinkMapFactory = Callable[[], Mapping[tuple[int, int], LinkPolicy]]
# (pid, sim, agreement network, the node's Omega output) -> agreement process
AgreementFactory = Callable[[int, Simulation, Network, Callable[[], int]],
                            Process]


class ConsensusNode(NamedTuple):
    """One machine as one group sees it: its Omega module and its
    agreement process (the machine's lifecycle is the system's)."""

    omega: OmegaProtocol
    agreement: Process

    @property
    def crashed(self) -> bool:
        """Whether the node is down."""
        return self.omega.crashed


class ConsensusSystem(Cluster):
    """``n`` nodes running Omega + consensus over paired networks.

    ``networks`` is the failure-detector network followed by one
    agreement network per group.  :attr:`groups` holds one single-group
    view per agreement network, all sharing the Omega layer; a
    single-group system is its own only group.
    """

    def __init__(self, sim: Simulation, networks: Sequence[Network],
                 stacks: Mapping[int, Sequence[Process]]) -> None:
        super().__init__(sim, networks, stacks)
        self.fd_network, self.agreement_network = self.networks[:2]
        self.nodes = {pid: ConsensusNode(stack[0], stack[1])
                      for pid, stack in self.stacks.items()}
        self.groups: tuple[ConsensusSystem, ...] = (self,)
        if len(self.networks) > 2:
            self.groups = tuple(
                ConsensusSystem(sim, (self.fd_network, network), {
                    pid: (stack[0], stack[index])
                    for pid, stack in self.stacks.items()})
                for index, network in enumerate(self.networks[1:], start=1))

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
        persist: bool = False,
    ) -> "ConsensusSystem":
        """Assemble a single-decree ensemble.

        ``links_factory`` is called once per network (a map's policy
        objects carry per-link state, so each network gets its own
        map).  ``proposals[pid]`` is each node's initial value.
        ``f`` is only needed by the ``"f-source"`` Omega.  ``persist``
        puts the agreement layer's state on stable storage so nodes
        survive crash+recover (pair it with the ``"crash-recovery"``
        Omega for a fully recovery-capable node).
        """
        if len(proposals) != n:
            raise ValueError("need exactly one proposal per process")
        return cls._build(
            seed, n, 1, links_factory,
            make_factory(omega_name, omega_config, n=n, f=f),
            lambda pid, sim, network, leader_of: SingleDecreeConsensus(
                pid, sim, network, n, proposals[pid], leader_of=leader_of,
                config=consensus_config, persist=persist))

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
        persist: bool = False,
        groups: int = 1,
        machine_factory: Callable[[], Any] | None = None,
        keep_tail: int = 32,
    ) -> "ConsensusSystem":
        """Assemble ``groups`` replicated logs (repeated consensus) over
        ``n`` machines.

        ``persist`` puts each replica's acceptor state and log on stable
        storage so nodes survive crash+recover.  With a
        ``machine_factory`` every group runs
        :class:`~repro.consensus.compaction.CompactingReplica` replicas
        (state machines, compaction keeping ``keep_tail`` entries);
        those are crash-stop, so combining it with ``persist`` raises
        :class:`ValueError`.
        """
        if groups < 1:
            raise ValueError("groups must be at least 1")
        if machine_factory is not None and persist:
            raise ValueError(
                "machine_factory with persist=True is unsupported: "
                "compacting replicas are crash-stop (no durable snapshots)")

        def make_replica(pid: int, sim: Simulation, network: Network,
                         leader_of: Callable[[], int]) -> LogReplica:
            if machine_factory is not None:
                return CompactingReplica(
                    pid, sim, network, n, leader_of=leader_of,
                    machine_factory=machine_factory, keep_tail=keep_tail,
                    config=consensus_config)
            return LogReplica(pid, sim, network, n, leader_of=leader_of,
                              config=consensus_config, persist=persist)

        return cls._build(seed, n, groups, links_factory,
                          make_factory(omega_name, omega_config, n=n, f=f),
                          make_replica)

    @classmethod
    def _build(cls, seed: int, n: int, groups: int,
               links_factory: LinkMapFactory,
               omega_factory: Callable[[int, Simulation, Network],
                                       OmegaProtocol],
               make_agreement: AgreementFactory) -> "ConsensusSystem":
        """Every network (failure detector first, then one per group),
        then every Omega, then each group's agreement processes."""
        sim = Simulation(seed=seed)
        networks = []
        for _ in range(groups + 1):
            network = Network(sim)
            apply_links(network, links_factory())
            networks.append(network)
        stacks = {pid: [omega_factory(pid, sim, networks[0])]
                  for pid in range(n)}
        for network in networks[1:]:
            for pid, stack in stacks.items():
                stack.append(make_agreement(pid, sim, network, stack[0].leader))
        return cls(sim, networks, stacks)

    def group_of(self, key: Hashable) -> int:
        """The group index owning ``key`` (stable across runs/processes).

        Uses CRC-32 of ``repr(key)`` — Python's built-in ``hash`` is
        salted per process, which would break cross-run determinism.
        """
        return zlib.crc32(repr(key).encode()) % len(self.groups)

    def node(self, pid: int) -> ConsensusNode:
        """The node with this pid, as group 0 sees it."""
        return self.nodes[pid]
