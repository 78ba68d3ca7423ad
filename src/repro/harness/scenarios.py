"""Canonical experiment scenarios.

An :class:`OmegaScenario` is a declarative description of one leader
election run — algorithm, system topology, crash script, seed, horizon —
that can be executed with :meth:`OmegaScenario.run`.  Benchmarks sweep
over these as data; tests replay the interesting ones; `EXPERIMENTS.md`
names them.

System names
------------
``all-timely``
    Every link timely from time zero (unit-test world).
``all-et``
    Every link ◇timely — the baseline algorithm's system.
``source``
    One ◇timely source (all output links), fair-lossy elsewhere — the
    system of R1/R2.
``multi-source``
    Several ◇timely sources — failover experiments stay in-model when
    one source crashes.
``f-source``
    ◇timely links only from ``source`` to ``targets``, fair-lossy
    elsewhere — the system of R3/R4.
``source-lossy``
    One ◇timely source, *lossy-async* elsewhere — outside every
    algorithm's stated assumptions; stress only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.checker import (
    CommunicationReport,
    OmegaRunReport,
    analyze_omega_run,
    communication_report,
)
from repro.core.config import OmegaConfig
from repro.core.registry import make_factory
from repro.sim.cluster import Cluster
from repro.sim.nemesis import FaultPlan
from repro.sim.topology import (
    LinkMap,
    LinkTimings,
    all_eventually_timely_links,
    all_timely_links,
    f_source_links,
    multi_source_links,
    source_links,
    source_links_lossy_elsewhere,
)

__all__ = ["OmegaScenario", "OmegaOutcome", "SYSTEM_NAMES"]

SYSTEM_NAMES = (
    "all-timely",
    "all-et",
    "source",
    "multi-source",
    "f-source",
    "source-lossy",
)


@dataclass(frozen=True)
class OmegaOutcome:
    """Everything an experiment wants to know about one finished run."""

    scenario: "OmegaScenario"
    cluster: Cluster
    report: OmegaRunReport
    comm: CommunicationReport

    @property
    def stabilized(self) -> bool:
        """Omega verdict of the run."""
        return self.report.omega_holds

    @property
    def communication_efficient(self) -> bool:
        """Only the final leader sent during the trailing window."""
        return self.comm.is_communication_efficient(self.report.final_leader)


@dataclass(frozen=True)
class OmegaScenario:
    """One leader-election run, as data.

    Attributes mirror the experiment axes; see the module docstring for
    the ``system`` names.  ``targets`` (and the implied ``f``, defaulting
    to ``len(targets)``) only matter for ``f-source``; ``sources`` only
    for ``multi-source``.

    ``crashes`` keeps the historical ``(time, pid)`` shorthand — a
    3-tuple ``(time, pid, recover_at)`` adds the crash-recovery bounce
    sugar; the general fault language is the ``faults`` field — a
    :class:`~repro.sim.nemesis.FaultPlan` repro string (pauses, healing
    partitions, link storms...), scheduled alongside the crashes.

    ``link_rng`` selects the link RNG stream granularity (``"pair"``,
    the default, or ``"src"``; see :class:`~repro.sim.network.Network`)
    — the large-n experiment families run ``"src"`` to avoid n²
    stream setup.
    """

    algorithm: str
    n: int
    system: str
    source: int = 0
    sources: tuple[int, ...] = ()
    targets: tuple[int, ...] = ()
    f: int | None = None
    crashes: tuple[tuple[float, ...], ...] = ()
    faults: str = ""
    seed: int = 0
    horizon: float = 120.0
    ce_window: float = 20.0
    quorum_override: int | None = None
    timings: LinkTimings = field(default_factory=lambda: LinkTimings(gst=5.0))
    config: OmegaConfig = field(default_factory=OmegaConfig)
    trace: bool = False
    link_rng: str = "pair"

    def __post_init__(self) -> None:
        if self.system not in SYSTEM_NAMES:
            raise ValueError(f"unknown system {self.system!r}; "
                             f"known: {SYSTEM_NAMES}")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")

    # ------------------------------------------------------------------
    # Derived pieces
    # ------------------------------------------------------------------

    @property
    def effective_f(self) -> int:
        """The fault bound handed to the f-source algorithm."""
        if self.f is not None:
            return self.f
        if self.targets:
            return len(self.targets)
        return 1

    def link_map(self) -> LinkMap:
        """Fresh link policies realizing the scenario's system: one law
        per link class, plus the pairs that differ from the base law."""
        if self.system == "all-timely":
            return all_timely_links(self.n, self.timings)
        if self.system == "all-et":
            return all_eventually_timely_links(self.n, self.timings)
        if self.system == "source":
            return source_links(self.n, self.source, self.timings)
        if self.system == "multi-source":
            sources = self.sources if self.sources else (self.source,)
            return multi_source_links(self.n, sources, self.timings)
        if self.system == "f-source":
            return f_source_links(self.n, self.source, self.targets,
                                  self.timings)
        return source_links_lossy_elsewhere(self.n, self.source, self.timings)

    def with_seed(self, seed: int) -> "OmegaScenario":
        """The same scenario under a different seed."""
        return replace(self, seed=seed)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def fault_plan(self) -> FaultPlan:
        """The combined fault plan: ``crashes`` shorthand plus ``faults``."""
        plan = FaultPlan.crashes_at(*self.crashes)
        if self.faults:
            plan = FaultPlan(plan.events
                             + FaultPlan.from_repro(self.faults).events)
        return plan

    def build(self) -> Cluster:
        """Assemble the cluster without running it (tests use this)."""
        factory = make_factory(self.algorithm, self.config, n=self.n,
                               f=self.effective_f,
                               quorum_override=self.quorum_override)
        cluster = Cluster.build(self.n, factory, links=self.link_map(),
                                seed=self.seed, trace=self.trace,
                                link_rng=self.link_rng)
        plan = self.fault_plan()
        if plan:
            plan.schedule(cluster)
        return cluster

    def run(self) -> OmegaOutcome:
        """Run to the horizon and analyze."""
        cluster = self.build()
        cluster.start_all()
        cluster.run_until(self.horizon)
        return OmegaOutcome(
            scenario=self,
            cluster=cluster,
            report=analyze_omega_run(cluster),
            comm=communication_report(cluster, self.ce_window),
        )
