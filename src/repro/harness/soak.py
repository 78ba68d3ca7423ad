"""Randomized soak campaigns: every algorithm, every stack, under nemesis.

The one runner for sampled fault campaigns, on both backends.  Each
*campaign* pairs a protocol stack with an in-model system and a nemesis
:class:`~repro.sim.nemesis.FaultPlan` sampled inside the campaign's
:class:`~repro.sim.nemesis.ModelEnvelope`, runs it to the horizon, and
checks the invariants with the standard checkers (the sim's
:func:`check_single_decree`, :func:`check_log` and Omega checker; a live
run reaches the same checkers through its merged report).

:func:`run_soak_case` judges every case the same way, in order:

``fail`` (before running)
    The plan does not parse, or does not round-trip byte-identically
    through its repro string.
``model-violation``
    The plan breaks the assumptions the algorithm is proved under
    (source crashed, too many crashes, disturbance never heals).  The
    case does *not* run — such a run proves nothing either way.
    Sampled campaigns are always in-model; this status exists for
    hand-built plans.
``fail`` / ``timeout`` / ``ok``
    The case ran: an invariant broke or the run raised (a real bug; the
    case's ``describe()`` line is a complete repro), a live control
    channel stayed unreachable (the one-line
    :class:`~repro.live.cluster.ControlError`), or every invariant held.

Every campaign is reconstructible from ``(soak seed, case index)``
alone — each sampler derives a private RNG stream from the pair, so
``python -m repro soak --seed 7 --case 12`` replays case 12 of campaign
seed 7 exactly.  :func:`campaign_digest` hashes the sampled *plans*;
:func:`outcome_digest` hashes what the protocols *did* with them (each
result's ``outcome`` hashes observables that carry no wall-clock time —
leaders, message censuses, decisions, storage syncs — so a changed sim
schedule names the case that moved; live schedules are not
deterministic, so live outcomes are not pinned).

:data:`CAMPAIGNS` names the four samplers (their docstrings have the
details):

``plain`` — :func:`sample_soak_case`, ``python -m repro soak``
    Crash-stop worlds under :func:`~repro.sim.nemesis.sample_plan`.
``recovery`` — :func:`sample_recovery_case`, ``soak --recovery``
    The crash-recovery Omega and persisted consensus under bouncing
    processes, permanent crashes and healing partitions, judged with
    the eventually-up notion of correctness.
    :func:`recovery_control_case` is its negative control: without
    stable storage, one scripted schedule decides two values.
``degraded`` — :func:`sample_degraded_case`, ``soak --degraded``
    Every registered Omega under loss/delay storms, flapping links and
    duplication, about half of the adaptive-capable cases with
    ``OmegaConfig.adaptive_qos`` on.
``live`` — :func:`sample_live_case`, ``python -m repro live soak``
    Omega, single-decree consensus or a ``persist=True`` replicated log
    with client load across real OS processes on the UDP backend, under
    crash→SIGKILL→respawn bounces and asymmetric netem shapes that heal
    with :data:`HEAL_MARGIN` of the horizon left calm.  The live
    backend is imported on first use only.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.consensus import ConsensusSystem, check_log, check_single_decree
from repro.core.config import OmegaConfig
from repro.core.registry import failure_model
from repro.harness.scenarios import OmegaScenario
from repro.load import LoadSpec
from repro.sim.nemesis import CrashFault, FaultEvent, FaultPlan, \
    ModelEnvelope, NetemFault, model_violations, sample_degraded_plan, \
    sample_plan, sample_recovery_plan
from repro.sim.topology import LinkTimings, multi_source_links

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.live.cluster import LiveRunOutcome

__all__ = [
    "CAMPAIGNS",
    "HEAL_MARGIN",
    "LiveSoakCase",
    "SoakCase",
    "SoakResult",
    "campaign_digest",
    "outcome_digest",
    "recovery_control_case",
    "run_soak_case",
    "sample_degraded_case",
    "sample_live_case",
    "sample_recovery_case",
    "sample_soak_case",
    "soak",
    "soak_bench_cases",
]

_HORIZON = 300.0

# The crash-stop campaign draws from this fixed tuple, NOT from the
# registry: adding an algorithm to the registry must never re-shuffle
# historical (seed, index) -> case mappings.  The crash-recovery
# algorithm has its own campaign (sample_recovery_case).
_SOAK_OMEGAS = ("all-timely", "comm-efficient", "f-source", "source")

# Consensus stacks drive their Omega layer by name; both ship with the
# majority-quorum heartbeat detectors (f-source needs explicit targets
# and is exercised through the dedicated omega campaigns instead).
_CONSENSUS_OMEGAS = ("source", "comm-efficient")

# The hostile-link campaign round-robins over every registered Omega —
# again a fixed tuple, not the registry, so (seed, index) -> case stays
# stable if the registry grows.
_DEGRADED_OMEGAS = ("all-timely", "source", "comm-efficient", "f-source",
                    "crash-recovery", "packet-efficient")

# The detectors wired to the adaptive degradation layer; only these may
# run with ``OmegaConfig.adaptive_qos`` flipped on in sampled cases.
_ADAPTIVE_OMEGAS = ("source", "comm-efficient", "packet-efficient")


@dataclass(frozen=True)
class SoakCase:
    """One campaign: algorithm/stack + topology + nemesis plan, as data."""

    index: int
    kind: str                  # "omega" | "single-decree" | "log"
    algorithm: str
    system: str                # scenario system name, or "consensus"
    n: int
    source: int
    targets: tuple[int, ...]   # f-source timely targets, else ()
    f: int                     # crash budget of the envelope
    seed: int
    gst: float
    fair_loss: float
    horizon: float
    plan: str                  # FaultPlan repro string
    recovery: bool = False     # crash-recovery campaign (persisted stacks)
    degraded: bool = False     # hostile-link campaign (degraded plans)
    adaptive: bool = False     # run with OmegaConfig.adaptive_qos on

    def fault_plan(self) -> FaultPlan:
        """The campaign's nemesis plan, parsed from its repro string."""
        return FaultPlan.from_repro(self.plan)

    def envelope(self) -> ModelEnvelope:
        """The model envelope this campaign is judged against; its
        failure model is the Omega algorithm's."""
        return ModelEnvelope(n=self.n, source=self.source, f=self.f,
                             gst=self.gst, horizon=self.horizon,
                             failure_model=failure_model(self.algorithm))

    def describe(self) -> str:
        """One-line repro: everything needed to replay this campaign."""
        parts = [f"#{self.index} {self.kind}/{self.algorithm}"
                 f"@{self.system} n={self.n} source={self.source}"]
        if self.recovery:
            parts.append("recovery")
        if self.degraded:
            parts.append("degraded")
        if self.adaptive:
            parts.append("adaptive")
        if self.targets:
            parts.append("targets=" + ",".join(map(str, self.targets)))
        parts.append(f"f={self.f} seed={self.seed} gst={self.gst:g} "
                     f"loss={self.fair_loss:g}")
        if self.plan:
            parts.append(f"plan=[{self.plan}]")
        return " ".join(parts)


@dataclass(frozen=True)
class LiveSoakCase:
    """One live campaign: stack + plan on real processes, as data.

    ``stack`` picks the protocol layer (``omega`` — leader election
    only; ``consensus`` — single-decree on the agreement plane; ``log``
    — the replicated log, with a client workload); ``plan`` is the
    fault schedule's repro string, in wall-clock seconds from cluster
    start.
    """

    index: int
    stack: str
    algorithm: str
    n: int
    persist: bool
    workload: int
    seed: int
    horizon: float
    plan: str

    def describe(self) -> str:
        """One-line repro: everything needed to replay this case."""
        parts = [f"#{self.index} live/{self.stack}/{self.algorithm}"
                 f" n={self.n}"]
        if self.persist:
            parts.append("persist")
        if self.workload:
            parts.append(f"workload={self.workload}")
        parts.append(f"seed={self.seed} horizon={self.horizon:g}")
        parts.append(f"plan=[{self.plan}]")
        return " ".join(parts)

    def fault_plan(self) -> FaultPlan:
        """The case's wall-clock fault plan, parsed from its repro string."""
        return FaultPlan.from_repro(self.plan)

    def envelope(self) -> ModelEnvelope:
        """The model envelope this case's plan is judged against."""
        return ModelEnvelope(
            n=self.n, source=0, f=(self.n - 1) // 2,
            gst=self.horizon * (1.0 - HEAL_MARGIN),
            horizon=self.horizon, heal_margin=HEAL_MARGIN,
            failure_model=failure_model(self.algorithm))


@dataclass(frozen=True)
class SoakResult:
    """Outcome of one campaign (``status``: see the module docstring).

    ``document`` is a live run's merged ``repro-report/v1`` document;
    ``observed`` is what ``outcome`` hashes, as ``(name, value)`` pairs.
    """

    case: SoakCase | LiveSoakCase
    status: str
    detail: str
    outcome: str               # 16-hex digest of the run's observables
    wall_s: float = 0.0
    document: dict[str, Any] | None = None
    observed: tuple[tuple[str, Any], ...] = ()

    @property
    def ok(self) -> bool:
        """True unless an in-model invariant broke or a run timed out."""
        return self.status not in ("fail", "timeout")


def _draw_shape(rng: random.Random, kind: str, algorithm: str,
                ) -> tuple[str, int, int, tuple[int, ...], int]:
    """Draw ``(system, n, source, targets, f)`` for one campaign.

    Consensus stacks run on the ``"consensus"`` topology; an Omega
    algorithm runs on a system its proof covers.  The draw order is part
    of the ``(seed, index) -> case`` contract: the pinned plan digests
    move if it changes.
    """
    if kind != "omega":
        system = "consensus"
    elif algorithm == "all-timely":
        system = rng.choice(["all-timely", "all-et"])
    elif algorithm == "packet-efficient":
        system = "all-et"  # needs every link ◇timely (see its module doc)
    elif algorithm == "f-source":
        system = "f-source"
    else:
        system = rng.choice(["source", "multi-source"])
    if system == "f-source":
        n = rng.randint(5, 7)
        source = rng.randrange(n)
        others = [pid for pid in range(n) if pid != source]
        return system, n, source, tuple(sorted(rng.sample(others, 2))), 2
    n = rng.randint(3, 7)
    source = rng.randrange(n)
    return system, n, source, (), (n - 1) // 2


def _draw_case(rng: random.Random, index: int, kind: str, algorithm: str,
               shape: tuple[str, int, int, tuple[int, ...], int],
               sample: Callable[[random.Random, ModelEnvelope], FaultPlan],
               **flags: bool) -> SoakCase:
    """Draw the seed/gst/loss tail and the plan, and seal the case."""
    system, n, source, targets, f = shape
    seed = rng.randrange(1_000_000)
    gst = round(rng.uniform(0.0, 8.0), 2)
    fair_loss = round(rng.uniform(0.0, 0.4), 2)
    plan = sample(rng, ModelEnvelope(n=n, source=source, f=f, gst=gst,
                                     horizon=_HORIZON))
    return SoakCase(index=index, kind=kind, algorithm=algorithm,
                    system=system, n=n, source=source, targets=targets,
                    f=f, seed=seed, gst=gst, fair_loss=fair_loss,
                    horizon=_HORIZON, plan=plan.to_repro(), **flags)


def sample_soak_case(soak_seed: int, index: int) -> SoakCase:
    """Draw campaign ``index`` of the soak run seeded ``soak_seed``.

    Deterministic from the pair alone: the case RNG is a private stream
    named by ``(soak_seed, index)``, so any case can be replayed without
    re-sampling its predecessors.
    """
    rng = random.Random(f"soak/{soak_seed}/{index}")
    kind = rng.choice(["omega", "omega", "omega", "single-decree", "log"])
    algorithm = rng.choice(_SOAK_OMEGAS if kind == "omega"
                           else _CONSENSUS_OMEGAS)
    return _draw_case(rng, index, kind, algorithm,
                      _draw_shape(rng, kind, algorithm), sample_plan)


def sample_recovery_case(soak_seed: int, index: int) -> SoakCase:
    """Draw campaign ``index`` of the crash-recovery soak run.

    Same determinism contract as :func:`sample_soak_case`, but every
    case exercises the crash-recovery stacks: the ``"crash-recovery"``
    Omega for detector campaigns, and persisted consensus (driven by
    that same Omega) for the agreement campaigns.  Plans come from
    :func:`~repro.sim.nemesis.sample_recovery_plan` — bouncing
    processes (sometimes the source itself), a permanent-crash budget,
    healing partitions and degrade storms.
    """
    rng = random.Random(f"soak-recovery/{soak_seed}/{index}")
    kind = rng.choice(["omega", "omega", "single-decree", "log"])
    algorithm = "crash-recovery"
    return _draw_case(rng, index, kind, algorithm,
                      _draw_shape(rng, kind, algorithm),
                      sample_recovery_plan, recovery=True)


def sample_degraded_case(soak_seed: int, index: int) -> SoakCase:
    """Draw campaign ``index`` of the hostile-link soak run.

    Same determinism contract as :func:`sample_soak_case`.  Algorithms
    round-robin over every registered Omega (``_DEGRADED_OMEGAS``), so
    any case count that is a multiple of six covers the whole registry;
    plans come from :func:`~repro.sim.nemesis.sample_degraded_plan`.
    On the adaptive-capable detectors, roughly half the cases enable
    ``OmegaConfig.adaptive_qos`` so the estimator/backoff/batching
    layer is soaked alongside the static baseline.
    """
    rng = random.Random(f"soak-degraded/{soak_seed}/{index}")
    algorithm = _DEGRADED_OMEGAS[index % len(_DEGRADED_OMEGAS)]
    shape = _draw_shape(rng, "omega", algorithm)
    adaptive = algorithm in _ADAPTIVE_OMEGAS and rng.random() < 0.5
    return _draw_case(rng, index, "omega", algorithm, shape,
                      sample_degraded_plan, degraded=True, adaptive=adaptive)


#: Fraction of the horizon that must remain calm after the last live
#: disturbance heals.  Live runs pay spawn stagger and real scheduling
#: jitter, so the margin is wall-clock-aware: wider than the sim's
#: default would need to be for "eventually" to have room to happen.
HEAL_MARGIN = 0.4

#: The live protocol zoo, cycled by case index: ``(stack, algorithm,
#: persist)``.  Order is load-bearing — the ``persist=True`` replicated
#: log leads, so a ``--cases 1`` campaign (the CI smoke job) is exactly
#: the crash→SIGKILL→respawn→storage-recovery path under asymmetric
#: netem with client load.  It respawns a pid, so its Omega is the
#: crash-recovery one.
_COMBOS: tuple[tuple[str, str, bool], ...] = (
    ("log", "crash-recovery", True),
    ("omega", "source", False),
    ("consensus", "comm-efficient", False),
    ("omega", "crash-recovery", False),
    ("log", "comm-efficient", False),
    ("omega", "comm-efficient", False),
)

#: Client commands driven through the ``submit`` control op per live
#: log case.
_LIVE_WORKLOAD = 10


def _sample_netem_pair(rng: random.Random, n: int,
                       heal_by: float) -> list[FaultEvent]:
    """An asymmetric netem regime: two opposed directions, shaped apart.

    One direction gets a heavy-tailed pareto jitter spread with
    probabilistic reorder; the other a uniform spread with a rate cap —
    the classic asymmetric-link weather the paper's ◇timely model must
    ride out.  Both windows heal by ``heal_by``.
    """
    src, dst = rng.sample(range(n), 2)
    start = round(rng.uniform(1.0, 2.0), 2)
    end = round(min(heal_by - 0.5, start + rng.uniform(2.5, 4.0)), 2)
    slow = NetemFault(
        start, end, ((src, dst),),
        delay=round(rng.uniform(0.02, 0.06), 2),
        jitter=round(rng.uniform(0.02, 0.05), 2), dist="pareto",
        reorder=round(rng.uniform(0.05, 0.2), 2),
        loss=round(rng.uniform(0.0, 0.08), 2))
    capped = NetemFault(
        start, end, ((dst, src),),
        delay=round(rng.uniform(0.01, 0.03), 2),
        jitter=round(rng.uniform(0.0, 0.02), 2), dist="uniform",
        rate=float(rng.randrange(200, 400)),
        loss=round(rng.uniform(0.0, 0.05), 2))
    return [slow, capped]


def _sample_live_plan(rng: random.Random, stack: str, algorithm: str,
                      persist: bool, n: int, horizon: float) -> str:
    """A wall-clock fault schedule for one live case, in-model by design.

    Every case gets the asymmetric netem pair.  Cases exercising
    recovery (``persist=True`` logs and the crash-recovery Omega) add a
    crash→respawn bounce of a non-source pid that heals inside the
    envelope; a crash-stop Omega case may instead lose a non-source pid
    for good (within the ``f`` bound).
    """
    heal_by = horizon * (1.0 - HEAL_MARGIN)
    events: list[FaultEvent] = _sample_netem_pair(rng, n, heal_by)
    victim = rng.randrange(1, n)  # never the designated source, pid 0
    if persist or algorithm == "crash-recovery":
        crash_at = round(rng.uniform(2.0, 3.0), 2)
        recover_at = round(min(heal_by - 1.0,
                               crash_at + rng.uniform(2.0, 3.0)), 2)
        events.append(CrashFault(crash_at, victim, recover_at))
    elif stack == "omega" and rng.random() < 0.5:
        events.append(CrashFault(round(rng.uniform(2.0, 4.0), 2), victim))
    return FaultPlan(events).to_repro()


def sample_live_case(soak_seed: int, index: int, *,
                     horizon: float = 15.0) -> LiveSoakCase:
    """Draw case ``index`` of the live soak run seeded ``soak_seed``.

    Same determinism contract as :func:`sample_soak_case`.  The stack
    cycles through ``_COMBOS`` by index; ``horizon`` is the wall
    seconds each case runs.
    """
    rng = random.Random(f"live-soak/{soak_seed}/{index}")
    stack, algorithm, persist = _COMBOS[index % len(_COMBOS)]
    n = 3
    seed = rng.randrange(1_000_000)
    plan = _sample_live_plan(rng, stack, algorithm, persist, n, horizon)
    return LiveSoakCase(
        index=index, stack=stack, algorithm=algorithm, n=n,
        persist=persist, workload=(_LIVE_WORKLOAD if stack == "log" else 0),
        seed=seed, horizon=horizon, plan=plan)


#: The campaigns by name: each samples case ``index`` of the run seeded
#: ``soak_seed``.  ``python -m repro soak`` runs ``plain``;
#: ``--recovery`` and ``--degraded`` name the next two, and
#: ``python -m repro live soak`` runs ``live``.
CAMPAIGNS: dict[str, Callable[[int, int], SoakCase | LiveSoakCase]] = {
    "plain": sample_soak_case,
    "recovery": sample_recovery_case,
    "degraded": sample_degraded_case,
    "live": sample_live_case,
}


def run_soak_case(case: SoakCase | LiveSoakCase,
                  rundir: str | Path | None = None) -> SoakResult:
    """Judge one campaign: plan, then model, then run and check invariants.

    A live case writes its node logs, node reports and merged
    ``report.json`` under ``rundir`` (a fresh temp dir when None); the
    sim ignores it.
    """
    started = time.monotonic()
    try:
        plan = case.fault_plan()
    except ValueError as error:  # FaultPlanError is a ValueError
        return _result(case, started, "fail",
                       f"plan does not parse: {error}")
    if plan.to_repro() != case.plan:
        return _result(case, started, "fail",
                       f"plan did not replay byte-identically: "
                       f"{plan.to_repro()!r} != {case.plan!r}")
    violations = model_violations(plan, case.envelope())
    if violations:
        return _result(case, started, "model-violation",
                       "; ".join(violations))
    try:
        ok, detail, observed, document = _execute(case, rundir)
    except Exception as exc:  # soak keeps going; the case line is the repro
        if isinstance(case, LiveSoakCase):
            from repro.live.cluster import ControlError

            if isinstance(exc, ControlError):
                return _result(case, started, "timeout", str(exc))
        return _result(case, started, "fail", f"raised {exc!r}")
    return _result(case, started, "ok" if ok else "fail", detail, observed,
                   document)


def _result(case: SoakCase | LiveSoakCase, started: float, status: str,
            detail: str, observed: dict[str, Any] | None = None,
            document: dict[str, Any] | None = None) -> SoakResult:
    """Seal a result: ``outcome`` hashes the status and the observables."""
    observed = observed or {}
    return SoakResult(case, status, detail,
                      _digest(repr((status, *observed.values()))),
                      time.monotonic() - started, document,
                      tuple(observed.items()))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _census(network) -> tuple:  # noqa: ANN001 - any observed Network
    return tuple(sorted(network.metrics.sent_by_kind.items()))


def _storage_counts(process) -> tuple[int, int, int]:  # noqa: ANN001
    storage = process._storage
    if storage is None:
        return (0, 0, 0)
    return (storage.syncs_ok, storage.syncs_failed, storage.batches_lost)


def _consensus_observables(system: ConsensusSystem,
                           per_process) -> dict[str, Any]:  # noqa: ANN001
    """Both networks' send censuses, then one row per process."""
    rows = []
    for pid in system.pids:
        process = system.node(pid).agreement
        rows.append((pid, *per_process(process), process.promised,
                     _storage_counts(process)))
    return {"fd_census": _census(system.fd_network),
            "agreement_census": _census(system.agreement_network),
            "processes": tuple(rows)}


def _execute(case: SoakCase | LiveSoakCase, rundir: str | Path | None,
             ) -> tuple[bool, str, dict[str, Any], dict[str, Any] | None]:
    """Run one in-model case: ``(ok, detail, observed, document)``."""
    if isinstance(case, LiveSoakCase):
        return _execute_live(case, rundir)
    execute = {"omega": _execute_omega,
               "single-decree": _execute_single_decree,
               "log": _execute_log}[case.kind]
    timings = LinkTimings(gst=case.gst, fair_loss=case.fair_loss)
    return (*execute(case, timings), None)


def _execute_omega(case: SoakCase,
                   timings: LinkTimings) -> tuple[bool, str, dict[str, Any]]:
    scenario = OmegaScenario(
        algorithm=case.algorithm, n=case.n, system=case.system,
        source=case.source, targets=case.targets,
        f=case.f if case.algorithm == "f-source" else None,
        faults=case.plan, seed=case.seed, horizon=case.horizon,
        timings=timings, config=OmegaConfig(adaptive_qos=case.adaptive))
    outcome = scenario.run()
    report = outcome.report
    observed = {"final_leader": report.final_leader,
                "stabilization_time": report.stabilization_time,
                "leader_changes": report.total_changes,
                "census": _census(outcome.cluster.network),
                "busy_links": tuple(sorted(outcome.comm.links))}
    if not report.verdict():
        return (False, f"omega violated: outputs={report.final_outputs}",
                observed)
    # A pid that recovered and stayed up is eventually-up — a legitimate
    # leader; only pids still down at the end may not be trusted.
    if report.final_leader in case.fault_plan().down_pids():
        return False, f"down leader {report.final_leader} trusted", observed
    detail = (f"leader={report.final_leader} "
              f"stab={report.stabilization_time:.1f}s")
    if case.recovery:
        detail += " " + _storage_detail(
            outcome.cluster.process(pid) for pid in outcome.cluster.pids)
    return True, detail, observed


def _storage_detail(processes) -> str:  # noqa: ANN001 - any Process iterable
    """Aggregate stable-storage traffic across an ensemble, one token."""
    counts = [_storage_counts(process) for process in processes]
    return (f"storage[syncs={sum(ok + failed for ok, failed, _ in counts)} "
            f"lost_batches={sum(lost for _, _, lost in counts)}]")


def _execute_single_decree(case: SoakCase, timings: LinkTimings,
                           ) -> tuple[bool, str, dict[str, Any]]:
    system = ConsensusSystem.build_single_decree(
        case.n,
        lambda: multi_source_links(case.n, (case.source,), timings),
        proposals=[f"v{pid}" for pid in range(case.n)],
        omega_name=case.algorithm, seed=case.seed, persist=case.recovery)
    case.fault_plan().schedule(system)
    system.start_all()
    system.run_until(case.horizon)
    report = check_single_decree(system)
    observed = _consensus_observables(
        system, lambda process: (process.decision, process.decision_time))
    if report.verdict():
        detail = (f"decided {next(iter(report.decided.values()))!r} "
                  f"by {report.latest_decision:.1f}s")
        if case.recovery:
            detail += " " + _storage_detail(
                node.agreement for node in system.nodes.values())
        return True, detail, observed
    if not (report.agreement and report.validity):
        return False, "safety violated", observed
    return False, (f"liveness: decided={sorted(report.decided)} "
                   f"correct={report.correct}"), observed


def _execute_log(case: SoakCase,
                 timings: LinkTimings) -> tuple[bool, str, dict[str, Any]]:
    system = ConsensusSystem.build_replicated_log(
        case.n,
        lambda: multi_source_links(case.n, (case.source,), timings),
        omega_name=case.algorithm, seed=case.seed, persist=case.recovery)
    fleet = LoadSpec(clients=1, keys=1, arrival="steady", rate=1 / 0.6,
                     start=3.0, duration=12 * 0.6).drive(system)
    case.fault_plan().schedule(system)
    system.start_all()
    system.run_until(case.horizon)
    report = check_log(system, fleet.group_payloads[0])
    observed = _consensus_observables(system, lambda replica: (
        replica.commit_index,
        hashlib.sha256(repr(replica.committed_prefix()).encode()).hexdigest()))
    if not report.verdict():
        return False, f"safety violated: {report.divergences}", observed
    if not fleet.done():
        return False, "liveness: commands missing", observed
    # Communication efficiency: once calm, only the leader sends.
    metrics = system.agreement_network.metrics
    tail = case.horizon - metrics.window
    leader = system.node(system.up_pids()[0]).omega.leader()
    senders = metrics.senders_between(tail, tail) - {leader}
    if senders:
        return False, (f"calm tail: p{leader} leads but "
                       f"{sorted(senders)} sent in the last window"), observed
    detail = f"committed {report.max_committed} entries"
    if case.recovery:
        detail += " " + _storage_detail(
            node.agreement for node in system.nodes.values())
    return True, detail, observed


def _execute_live(case: LiveSoakCase, rundir: str | Path | None,
                  ) -> tuple[bool, str, dict[str, Any], dict[str, Any]]:
    """Run one case on a live cluster; write its merged ``report.json``.

    The cluster's own ``finally`` teardown has reaped every node process
    by the time this returns or raises.
    """
    from repro.live.cluster import LiveCluster, LiveClusterSpec
    from repro.obs.report import validate_report

    spec = LiveClusterSpec(
        n=case.n, algorithm=case.algorithm, horizon=case.horizon,
        seed=case.seed, faults=case.plan,
        consensus=(case.stack == "consensus"), log=(case.stack == "log"),
        persist=case.persist, workload=case.workload, workload_start=1.0,
        workload_period=0.4)
    rundir = Path(rundir if rundir is not None
                  else tempfile.mkdtemp(prefix="repro-live-soak-"))
    outcome = LiveCluster(spec, rundir).run()
    document = outcome.document
    (rundir / "report.json").write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n")
    observed = _live_observables(outcome)
    problems = validate_report(document)
    if problems:
        return False, "schema: " + "; ".join(problems), observed, document
    if not outcome.verdict.ok:
        return (False, "; ".join(outcome.verdict.violations), observed,
                document)
    return True, _live_detail(document), observed, document


def _live_observables(outcome: LiveRunOutcome) -> dict[str, Any]:
    """What a live run judged, with every wall-clock field left out: the
    final leader, the decisions, and a hash of the longest applied-id
    prefix."""
    decisions = sorted({repr(report["decision"])
                        for report in outcome.node_reports
                        if report.get("decision") is not None})
    return {"final_leader": outcome.omega.final_leader,
            "decisions": tuple(decisions),
            "applied_ids": _digest(repr(outcome.applied_ids))}


def _live_detail(document: dict[str, Any]) -> str:
    """The one-line summary printed next to a passing live case."""
    evidence = document.get("verdict", {}).get("evidence", {})
    parts = []
    leader = evidence.get("final_leader")
    if leader is not None:
        parts.append(f"leader={leader}")
    workload = document.get("workload")
    if workload:
        parts.append(f"committed={workload['committed']}"
                     f"/{workload['submitted']}")
        latency = workload.get("latency_s") or {}
        p95 = latency.get("p95")
        if p95 is not None:
            parts.append(f"p95={p95:.2f}s")
    return " ".join(parts) if parts else "all properties held"


def recovery_control_case(persist: bool = False) -> tuple[bool, str]:
    """The negative control: Paxos without stable storage loses safety.

    A scripted three-process schedule, deterministic by construction:

    1. ``p2`` is down from the start; ``p0`` leads and decides ``v0``
       with the quorum ``{p0, p1}``.
    2. ``p0`` crashes for good (its memory of the decision survives for
       the checker, as crash-stop memory does).
    3. ``p1`` bounces.  Without persistence the recovery wipes its
       promise, its accepted value *and* its decision — the amnesia at
       the heart of the crash-recovery model.
    4. ``p2`` recovers and leads.  Its prepare quorum ``{p1, p2}``
       intersects the decision quorum only in the amnesiac ``p1``,
       which reports nothing — so ``p2`` freely decides ``v2``.

    Returns ``(agreement_held, detail)``: ``False`` with
    ``persist=False`` (the violation), ``True`` with ``persist=True``
    (the same schedule, healed by stable storage).
    """
    from repro.consensus.single import SingleDecreeConsensus
    from repro.sim.engine import Simulation
    from repro.sim.network import Network
    from repro.sim.topology import all_timely_links, apply_links

    leader = [0]
    sim = Simulation(seed=0)
    network = Network(sim)
    apply_links(network, all_timely_links(3))
    processes = [
        SingleDecreeConsensus(pid, sim, network, 3, f"v{pid}",
                              leader_of=lambda: leader[0], persist=persist)
        for pid in range(3)
    ]
    for process in processes:
        process.start()
    processes[2].crash()       # sleeps through the first decision
    sim.run_until(10.0)        # p0 decides v0 with quorum {p0, p1}
    processes[0].crash()       # the decider goes down for good
    processes[1].crash()       # p1 bounces; amnesia unless persisted
    sim.run_until(12.0)        # in-flight traffic drains into down nodes
    processes[1].recover()
    processes[2].recover()
    leader[0] = 2
    sim.run_until(60.0)
    decided = {process.pid: process.decision for process in processes
               if process.decision is not None}
    agreement = len(set(decided.values())) <= 1
    return agreement, f"decisions {decided}"


def campaign_digest(cases: Sequence[SoakCase | LiveSoakCase]) -> str:
    """Short stable hash over the campaign's repro lines — the *plan*
    digest: it hashes what the sampler drew, not what the protocols did
    with it (that is :func:`outcome_digest`).

    Two soak runs with the same ``(seed, case count)`` must print the
    same digest; a mismatch means determinism broke somewhere.
    """
    return _digest("\n".join(case.describe() for case in cases))


def outcome_digest(results: Sequence[SoakResult]) -> str:
    """Short stable hash over the per-case ``outcome`` digests, in order.

    The behavioural half of the contract: it moves when any case's
    status, leaders, message census, decisions, commit indexes, promises
    or storage syncs move — on the same plans (:func:`campaign_digest`).
    """
    return _digest("\n".join(f"#{result.case.index} {result.outcome}"
                             for result in results))


def soak(cases: int | None = None, minutes: float | None = None,
         soak_seed: int = 0, stop_on_failure: bool = False,
         only: tuple[int, ...] = (), campaign: str = "plain",
         outdir: str | Path | None = None) -> list[SoakResult]:
    """Run a soak campaign; returns one result per executed case.

    Exactly one of ``cases`` (fixed count) or ``minutes`` (wall-clock
    budget, sampling case after case until it runs out) must be given.
    ``only`` runs exactly the named case indices instead, in ascending
    order — the replay path behind ``python -m repro soak --case N``;
    sampling is random-access, so any index replays.  ``campaign``
    names the sampler in :data:`CAMPAIGNS` (see module docstring).  A
    live case ``N`` keeps its run directory at ``outdir/caseN`` (a
    fresh temp dir per case when ``outdir`` is None).
    """
    if (cases is None) == (minutes is None):
        raise ValueError("pass exactly one of cases= or minutes=")
    if cases is not None and cases < 1:
        raise ValueError(f"cases must be positive, got {cases}")
    if minutes is not None and not (minutes > 0 and math.isfinite(minutes)):
        raise ValueError(f"minutes must be positive and finite, "
                         f"got {minutes}")
    if campaign not in CAMPAIGNS:
        raise ValueError(f"unknown campaign {campaign!r}; "
                         f"known: {', '.join(CAMPAIGNS)}")
    if any(index < 0 for index in only):
        raise ValueError(f"case indices must be >= 0, got {sorted(only)}")

    sample = CAMPAIGNS[campaign]
    indices = (sorted(set(only)) if only
               else itertools.count() if cases is None else range(cases))
    deadline = None if minutes is None else time.monotonic() + minutes * 60.0
    results = []
    for index in indices:
        if deadline is not None and time.monotonic() >= deadline:
            break
        rundir = None if outdir is None else Path(outdir) / f"case{index}"
        result = run_soak_case(sample(soak_seed, index), rundir)
        results.append(result)
        if not result.ok and stop_on_failure:
            break
    return results


def soak_bench_cases(results: Sequence[SoakResult]) -> list[dict]:
    """Bench-shaped case rows of a campaign, for
    :func:`repro.harness.bench.build_report`.

    A sim row's ``result`` carries the ``outcome`` digest and each named
    observable (as its ``repr``), so ``soak --compare`` names the
    observable that moved.  A live row carries the run's commit-latency
    percentiles under ``result.latency_s`` instead — the same block the
    sim's E19 load cases emit — so ``--compare`` against a sim bench
    report prints per-percentile latency drift across backends.
    """
    rows = []
    for result in results:
        case = result.case
        document = result.document or {}
        workload = document.get("workload") or {}
        block: dict[str, Any] = {"status": result.status, "plan": case.plan}
        if workload:
            block.update((key, workload.get(key)) for key in
                         ("latency_s", "committed", "throughput_cps"))
        if isinstance(case, LiveSoakCase):
            case_id = f"live-soak/{case.stack}/{case.algorithm}#{case.index}"
        else:
            campaign = ("recovery" if case.recovery else
                        "degraded" if case.degraded else "plain")
            case_id = f"soak/{campaign}/{case.kind}/{case.algorithm}" \
                      f"#{case.index}"
            block["outcome"] = result.outcome
            block.update((name, repr(value))
                         for name, value in result.observed)
        rows.append({
            "case_id": case_id,
            "ok": result.ok,
            "events": int(document.get("sim", {})
                          .get("events_executed", 0)),
            "sim_time_s": case.horizon,
            "verdict": document.get("verdict",
                                    {"ok": result.ok, "violations": []}),
            "result": block,
            "timing": {"wall_s": result.wall_s},
        })
    return rows
