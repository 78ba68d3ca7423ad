"""Sharded (multi-group) replicated logs on one simulation.

One replicated log is a total order — and a total order is a
bottleneck.  The standard production scale-out is horizontal:
*sharding* the key space over many **independent** replicated logs
("groups"), each a full Omega + multi-decree consensus stack, with
client commands routed by a stable hash of their key.  Cross-group
ordering is deliberately absent; each group is linearizable on its own.

:class:`ShardedLog` builds ``groups`` such stacks over a **single**
:class:`~repro.sim.engine.Simulation` so one deterministic clock drives
them all.  Two failure-detector layouts, matching the two deployments
the paper's Omega admits:

* ``shared_omega=True`` (default): one failure-detector network and one
  Omega module per *machine*, shared by every group on it — the
  paper-faithful "one leader oracle per machine" layout, and the cheap
  one (failure-detection traffic does not scale with group count).
  All groups on a machine follow the same leader.
* ``shared_omega=False``: every group runs its own Omega on its own
  failure-detector network, so groups elect independently (useful when
  per-group leaders should spread over machines after faults).

Machines, not processes, are the crash unit: :meth:`ShardedLog.crash`
takes down the machine's Omega layer(s) and its replica in *every*
group at the same instant, mirroring :class:`ConsensusNode`.

Each group is exposed as a plain
:class:`~repro.consensus.node.ConsensusSystem`, so the existing
checkers (:func:`~repro.consensus.checker.check_log`,
:func:`~repro.consensus.compaction.check_compacting_log`) verify each
group independently.
"""

from __future__ import annotations

import zlib
from functools import partial
from typing import Any, Callable, Hashable

from repro.consensus.compaction import CompactingReplica
from repro.consensus.config import ConsensusConfig
from repro.consensus.node import ConsensusNode, ConsensusSystem, LinkMapFactory
from repro.consensus.replica import LogReplica
from repro.core.config import OmegaConfig
from repro.core.registry import make_factory
from repro.sim.engine import Simulation
from repro.sim.network import Network

__all__ = ["ShardedLog"]


class ShardedLog:
    """``groups`` independent replicated logs over one simulated cluster.

    Build through :meth:`build`; the constructor just wires pre-built
    parts together.  The surface mirrors
    :class:`~repro.consensus.node.ConsensusSystem` where fault plans and
    the harness need it (``sim``, ``networks``, ``crash``, ``run_until``
    …), plus :meth:`group_of` for key routing.
    """

    def __init__(self, sim: Simulation, groups: tuple[ConsensusSystem, ...],
                 shared_omega: bool) -> None:
        if not groups:
            raise ValueError("need at least one group")
        self.sim = sim
        self.groups = groups
        self.shared_omega = shared_omega

    @classmethod
    def build(
        cls,
        n: int,
        groups: int,
        links_factory: LinkMapFactory,
        omega_name: str = "comm-efficient",
        omega_config: OmegaConfig | None = None,
        consensus_config: ConsensusConfig | None = None,
        shared_omega: bool = True,
        machine_factory: Callable[[], Any] | None = None,
        keep_tail: int = 32,
        f: int | None = None,
        seed: int = 0,
        metrics_window: float = 1.0,
        persist: bool = False,
    ) -> "ShardedLog":
        """Assemble ``groups`` replicated-log stacks over ``n`` machines.

        ``links_factory`` is called once per network (one
        failure-detector network — per group when ``shared_omega`` is
        off — plus one agreement network per group), each call yielding
        fresh stateful link policies of the same topology.  With a
        ``machine_factory`` every group runs
        :class:`~repro.consensus.compaction.CompactingReplica` replicas
        (compaction under sustained load); otherwise plain
        :class:`~repro.consensus.replica.LogReplica`.  ``persist`` puts
        plain replicas' state on stable storage; compacting groups are
        crash-stop, so the combination raises :class:`ValueError`.
        """
        if groups < 1:
            raise ValueError("groups must be at least 1")
        if machine_factory is not None and persist:
            raise ValueError(
                "machine_factory with persist=True is unsupported: "
                "compacting replicas are crash-stop (no durable snapshots)")
        sim = Simulation(seed=seed)
        omega_factory = make_factory(omega_name, omega_config, n=n, f=f)

        def make_replica(pid: int, sim: Simulation, network: Network,
                         leader_of: Callable[[], int]) -> LogReplica:
            if machine_factory is not None:
                return CompactingReplica(
                    pid, sim, network, n, leader_of=leader_of,
                    machine_factory=machine_factory, keep_tail=keep_tail,
                    config=consensus_config)
            return LogReplica(pid, sim, network, n, leader_of=leader_of,
                              config=consensus_config, persist=persist)

        if not shared_omega:
            return cls(sim, tuple(
                ConsensusSystem._build(sim, n, links_factory, omega_factory,
                                       make_replica, False, metrics_window)
                for _ in range(groups)), shared_omega)
        # One failure-detector network and one Omega per machine, shared
        # by every group's nodes.
        fd_network = ConsensusSystem._network(
            sim, links_factory, trace=False, metrics_window=metrics_window)
        omegas = [omega_factory(pid, sim, fd_network) for pid in range(n)]
        built: list[ConsensusSystem] = []
        for _ in range(groups):
            ag_network = ConsensusSystem._network(
                sim, links_factory, trace=False,
                metrics_window=metrics_window)
            built.append(ConsensusSystem(sim, fd_network, ag_network, {
                pid: ConsensusNode(pid, omega, make_replica(
                    pid, sim, ag_network, omega.leader))
                for pid, omega in enumerate(omegas)}))
        return cls(sim, tuple(built), shared_omega)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def group_of(self, key: Hashable) -> int:
        """The group index owning ``key`` (stable across runs/processes).

        Uses CRC-32 of ``repr(key)`` — Python's built-in ``hash`` is
        salted per process, which would break cross-run determinism.
        """
        return zlib.crc32(repr(key).encode()) % len(self.groups)

    def group(self, index: int) -> ConsensusSystem:
        """The group at ``index``."""
        return self.groups[index]

    # ------------------------------------------------------------------
    # Cluster-compatible surface (fault plans, bench, reports)
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of machines (every group spans all of them)."""
        return self.groups[0].n

    @property
    def pids(self) -> list[int]:
        """All machine pids, sorted."""
        return self.groups[0].pids

    @property
    def networks(self) -> tuple[Network, ...]:
        """Every distinct network: FD network(s) first, then one
        agreement network per group (fault plans hit all of them)."""
        out: list[Network] = []
        for group in self.groups:
            if group.fd_network not in out:
                out.append(group.fd_network)
        out.extend(group.agreement_network for group in self.groups)
        return tuple(out)

    def _omegas_of(self, pid: int) -> list[Any]:
        """The machine's Omega modules (one if shared, one per group)."""
        if self.shared_omega:
            return [self.groups[0].nodes[pid].omega]
        return [group.nodes[pid].omega for group in self.groups]

    def node(self, pid: int) -> ConsensusNode:
        """The first group's node (omega + replica) — handy for leaders."""
        return self.groups[0].nodes[pid]

    def crash(self, pid: int) -> None:
        """Crash one machine: its Omega layer(s) and every group replica."""
        for omega in self._omegas_of(pid):
            omega.crash()
        for group in self.groups:
            group.nodes[pid].agreement.crash()

    def recover(self, pid: int) -> None:
        """Reboot one machine (all layers, every group)."""
        for omega in self._omegas_of(pid):
            omega.recover()
        for group in self.groups:
            group.nodes[pid].agreement.recover()

    def pause(self, pid: int) -> None:
        """Freeze one machine (all layers, every group)."""
        for omega in self._omegas_of(pid):
            omega.pause()
        for group in self.groups:
            group.nodes[pid].agreement.pause()

    def resume(self, pid: int) -> None:
        """Unfreeze one machine (all layers, every group)."""
        for omega in self._omegas_of(pid):
            omega.resume()
        for group in self.groups:
            group.nodes[pid].agreement.resume()

    def up_pids(self) -> list[int]:
        """Pids of machines still up."""
        return self.groups[0].up_pids()

    def start_all(self, stagger: float = 0.0) -> None:
        """Start every machine (each Omega once, every group's replica)."""
        for index, pid in enumerate(self.pids):
            if stagger > 0:
                self.sim.call_at(index * stagger,
                                 partial(self._start_machine, pid))
            else:
                self._start_machine(pid)

    def _start_machine(self, pid: int) -> None:
        for omega in self._omegas_of(pid):
            omega.start()
        for group in self.groups:
            group.nodes[pid].agreement.start()

    def run_until(self, deadline: float) -> None:
        """Advance the simulated clock to ``deadline``."""
        self.sim.run_until(deadline)

    def run_for(self, duration: float) -> None:
        """Advance the simulated clock by ``duration``."""
        self.sim.run_for(duration)
