"""Randomized soak campaigns: every algorithm, every stack, under nemesis.

The fuzzer (:mod:`repro.harness.fuzz`) samples a handful of worlds per
commit; the soak harness is its long-running sibling.  Each *campaign*
pairs one registered Omega algorithm (or one of the two consensus
stacks) with an in-model system topology and a nemesis
:class:`~repro.sim.nemesis.FaultPlan` sampled inside the campaign's
:class:`~repro.sim.nemesis.ModelEnvelope`, runs it to the horizon, and
checks the existing invariants (:func:`analyze_omega_run`,
:func:`check_single_decree`, :func:`check_log`).

Three judgments are possible, in order:

``model-violation``
    The plan breaks the assumptions the algorithm is proved under
    (source crashed, too many crashes, disturbance never heals).  The
    invariants are *not* consulted — such a run proves nothing either
    way.  Sampled campaigns are always in-model; this status exists for
    hand-built plans replayed through :func:`run_soak_case`.
``fail``
    In-model, but an invariant broke (or the run raised) — a real bug.
    The case's :meth:`~SoakCase.describe` line is a complete repro.
``ok``
    In-model and every invariant held.

Every campaign is reconstructible from ``(soak seed, case index)``
alone — :func:`sample_soak_case` derives a private RNG stream from the
pair, so ``python -m repro soak --seed 7 --case 12`` replays case 12 of
campaign seed 7 exactly, and two runs of the same campaign produce
byte-identical digests: :func:`campaign_digest` over the sampled *plans*,
:func:`outcome_digest` over what the protocols *did* with them (each
result's ``outcome`` hashes protocol-clock observables only — leaders,
message censuses, decisions, storage syncs — so a changed schedule names
the case that moved).

``python -m repro soak --recovery`` switches to the *crash-recovery*
campaign (:func:`sample_recovery_case`): every case runs the
``"crash-recovery"`` Omega and/or persisted consensus stacks under
plans from :func:`~repro.sim.nemesis.sample_recovery_plan` — bouncing
processes, permanent crashes and healing partitions — and the verdicts
use the crash-recovery notion of correctness (eventually-up counts).
:func:`recovery_control_case` is the matching negative control: a
scripted schedule in which an unpersisted acceptor forgets its vote and
two processes decide differently, demonstrating the violation stable
storage exists to prevent.

``python -m repro soak --degraded`` switches to the *hostile-link*
campaign (:func:`sample_degraded_case`): round-robin over every
registered Omega algorithm under plans from
:func:`~repro.sim.nemesis.sample_degraded_plan` — sustained loss/delay
storms, flapping links and duplication, with crashes rare.  Roughly
half the cases on the adaptive-capable detectors flip
``OmegaConfig.adaptive_qos`` on, so the estimator/backoff/batching
layer soaks under exactly the link hostility it was built for.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from typing import Protocol, Sequence

from repro.consensus import ConsensusSystem, WorkloadSpec, check_log, \
    check_single_decree
from repro.core.checker import analyze_omega_run
from repro.core.config import OmegaConfig
from repro.harness.scenarios import OmegaScenario
from repro.sim.nemesis import FaultPlan, ModelEnvelope, model_violations, \
    sample_degraded_plan, sample_plan, sample_recovery_plan
from repro.sim.topology import LinkTimings, multi_source_links

__all__ = [
    "SoakCase",
    "SoakResult",
    "campaign_digest",
    "outcome_digest",
    "recovery_control_case",
    "run_soak_case",
    "sample_degraded_case",
    "sample_recovery_case",
    "sample_soak_case",
    "soak",
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
        """The model envelope this campaign is judged against."""
        return ModelEnvelope(n=self.n, source=self.source, f=self.f,
                             gst=self.gst, horizon=self.horizon)

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
class SoakResult:
    """Outcome of one campaign."""

    case: SoakCase
    status: str                # "ok" | "fail" | "model-violation"
    detail: str
    outcome: str               # 16-hex digest of the run's observables

    @property
    def ok(self) -> bool:
        """True unless an in-model invariant broke."""
        return self.status != "fail"


def sample_soak_case(soak_seed: int, index: int) -> SoakCase:
    """Draw campaign ``index`` of the soak run seeded ``soak_seed``.

    Deterministic from the pair alone: the case RNG is a private stream
    named by ``(soak_seed, index)``, so any case can be replayed without
    re-sampling its predecessors.
    """
    rng = random.Random(f"soak/{soak_seed}/{index}")
    kind = rng.choice(["omega", "omega", "omega", "single-decree", "log"])
    targets: tuple[int, ...] = ()
    if kind == "omega":
        algorithm = rng.choice(_SOAK_OMEGAS)
        if algorithm == "all-timely":
            system = rng.choice(["all-timely", "all-et"])
            n = rng.randint(3, 7)
            source = rng.randrange(n)
            f = (n - 1) // 2
        elif algorithm == "f-source":
            system = "f-source"
            n = rng.randint(5, 7)
            source = rng.randrange(n)
            others = [pid for pid in range(n) if pid != source]
            targets = tuple(sorted(rng.sample(others, 2)))
            f = 2
        else:
            system = rng.choice(["source", "multi-source"])
            n = rng.randint(3, 7)
            source = rng.randrange(n)
            f = (n - 1) // 2
    else:
        algorithm = rng.choice(_CONSENSUS_OMEGAS)
        system = "consensus"
        n = rng.randint(3, 7)
        source = rng.randrange(n)
        f = (n - 1) // 2

    seed = rng.randrange(1_000_000)
    gst = round(rng.uniform(0.0, 8.0), 2)
    fair_loss = round(rng.uniform(0.0, 0.4), 2)
    envelope = ModelEnvelope(n=n, source=source, f=f, gst=gst,
                             horizon=_HORIZON)
    plan = sample_plan(rng, envelope)
    return SoakCase(index=index, kind=kind, algorithm=algorithm,
                    system=system, n=n, source=source, targets=targets,
                    f=f, seed=seed, gst=gst, fair_loss=fair_loss,
                    horizon=_HORIZON, plan=plan.to_repro())


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
    system = rng.choice(["source", "multi-source"]) if kind == "omega" \
        else "consensus"
    n = rng.randint(3, 7)
    source = rng.randrange(n)
    f = (n - 1) // 2
    seed = rng.randrange(1_000_000)
    gst = round(rng.uniform(0.0, 8.0), 2)
    fair_loss = round(rng.uniform(0.0, 0.4), 2)
    envelope = ModelEnvelope(n=n, source=source, f=f, gst=gst,
                             horizon=_HORIZON)
    plan = sample_recovery_plan(rng, envelope)
    return SoakCase(index=index, kind=kind, algorithm=algorithm,
                    system=system, n=n, source=source, targets=(),
                    f=f, seed=seed, gst=gst, fair_loss=fair_loss,
                    horizon=_HORIZON, plan=plan.to_repro(), recovery=True)


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
    targets: tuple[int, ...] = ()
    if algorithm == "all-timely":
        system = rng.choice(["all-timely", "all-et"])
        n = rng.randint(3, 7)
        source = rng.randrange(n)
        f = (n - 1) // 2
    elif algorithm == "packet-efficient":
        system = "all-et"  # needs every link ◇timely (see its module doc)
        n = rng.randint(3, 7)
        source = rng.randrange(n)
        f = (n - 1) // 2
    elif algorithm == "f-source":
        system = "f-source"
        n = rng.randint(5, 7)
        source = rng.randrange(n)
        others = [pid for pid in range(n) if pid != source]
        targets = tuple(sorted(rng.sample(others, 2)))
        f = 2
    else:
        system = rng.choice(["source", "multi-source"])
        n = rng.randint(3, 7)
        source = rng.randrange(n)
        f = (n - 1) // 2
    adaptive = algorithm in _ADAPTIVE_OMEGAS and rng.random() < 0.5
    seed = rng.randrange(1_000_000)
    gst = round(rng.uniform(0.0, 8.0), 2)
    fair_loss = round(rng.uniform(0.0, 0.4), 2)
    envelope = ModelEnvelope(n=n, source=source, f=f, gst=gst,
                             horizon=_HORIZON)
    plan = sample_degraded_plan(rng, envelope)
    return SoakCase(index=index, kind="omega", algorithm=algorithm,
                    system=system, n=n, source=source, targets=targets,
                    f=f, seed=seed, gst=gst, fair_loss=fair_loss,
                    horizon=_HORIZON, plan=plan.to_repro(),
                    degraded=True, adaptive=adaptive)


def run_soak_case(case: SoakCase) -> SoakResult:
    """Judge one campaign: model check first, then run and check invariants.

    A plan outside the campaign's envelope short-circuits to
    ``model-violation`` — running it would prove nothing, since every
    invariant is conditional on the model's assumptions.
    """
    violations = model_violations(case.fault_plan(), case.envelope())
    if violations:
        return _result(case, "model-violation", "; ".join(violations))
    try:
        ok, detail, observed = _execute(case)
    except Exception as exc:  # soak keeps going; the case line is the repro
        return _result(case, "fail", f"raised {exc!r}")
    return _result(case, "ok" if ok else "fail", detail, observed)


def _result(case: SoakCase, status: str, detail: str,
            observed: tuple = ()) -> SoakResult:
    """Seal a result: ``outcome`` hashes the status and the observables."""
    return SoakResult(case, status, detail,
                      _digest(repr((status, *observed))))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _census(network) -> tuple:  # noqa: ANN001 - any observed Network
    return tuple(sorted(network.metrics.sent_by_kind.items()))


def _storage_counts(process) -> tuple[int, int, int]:  # noqa: ANN001
    storage = process._storage
    if storage is None:
        return (0, 0, 0)
    return (storage.syncs_ok, storage.syncs_failed, storage.batches_lost)


def _consensus_observables(system: ConsensusSystem, per_process) -> tuple:  # noqa: ANN001
    """Both networks' send censuses, then one row per process."""
    rows = []
    for pid in system.pids:
        process = system.node(pid).agreement
        rows.append((pid, *per_process(process), process.promised,
                     _storage_counts(process)))
    return (_census(system.fd_network), _census(system.agreement_network),
            tuple(rows))


def _execute(case: SoakCase) -> tuple[bool, str, tuple]:
    timings = LinkTimings(gst=case.gst, fair_loss=case.fair_loss)
    if case.kind == "omega":
        return _execute_omega(case, timings)
    if case.kind == "single-decree":
        return _execute_single_decree(case, timings)
    return _execute_log(case, timings)


def _execute_omega(case: SoakCase,
                   timings: LinkTimings) -> tuple[bool, str, tuple]:
    scenario = OmegaScenario(
        algorithm=case.algorithm, n=case.n, system=case.system,
        source=case.source, targets=case.targets,
        f=case.f if case.algorithm == "f-source" else None,
        faults=case.plan, seed=case.seed, horizon=case.horizon,
        timings=timings, config=OmegaConfig(adaptive_qos=case.adaptive))
    outcome = scenario.run()
    report = outcome.report
    observed = (report.final_leader, report.stabilization_time,
                report.total_changes, _census(outcome.cluster.network),
                tuple(sorted(outcome.comm.links)))
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


def _execute_single_decree(case: SoakCase,
                           timings: LinkTimings) -> tuple[bool, str, tuple]:
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
                 timings: LinkTimings) -> tuple[bool, str, tuple]:
    system = ConsensusSystem.build_replicated_log(
        case.n,
        lambda: multi_source_links(case.n, (case.source,), timings),
        omega_name=case.algorithm, seed=case.seed, persist=case.recovery)
    workload = WorkloadSpec(count=12, period=0.6, start=3.0).build(system)
    case.fault_plan().schedule(system)
    system.start_all()
    system.run_until(case.horizon)
    report = check_log(system, workload.submitted)
    observed = _consensus_observables(system, lambda replica: (
        replica.commit_index,
        hashlib.sha256(repr(replica.committed_prefix()).encode()).hexdigest()))
    if not report.verdict():
        return False, f"safety violated: {report.divergences}", observed
    if not workload.done():
        return False, "liveness: commands missing", observed
    detail = f"committed {report.max_committed} entries"
    if case.recovery:
        detail += " " + _storage_detail(
            node.agreement for node in system.nodes.values())
    return True, detail, observed


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


class Describable(Protocol):
    """Anything with a one-line repro ``describe()`` (soak case shape)."""

    def describe(self) -> str: ...


def campaign_digest(cases: Sequence[Describable]) -> str:
    """Short stable hash over the campaign's repro lines — the *plan*
    digest: it hashes what the sampler drew, not what the protocols did
    with it (that is :func:`outcome_digest`).

    Two soak runs with the same ``(seed, case count)`` must print the
    same digest; a mismatch means determinism broke somewhere.  Duck-
    typed over anything with a one-line ``describe()`` — sim
    :class:`SoakCase` and :class:`repro.live.chaos.LiveSoakCase` alike —
    so sim and live campaigns share one digest convention.
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
         only: tuple[int, ...] = (), recovery: bool = False,
         degraded: bool = False) -> list[SoakResult]:
    """Run a soak campaign; returns one result per executed case.

    Exactly one of ``cases`` (fixed count) or ``minutes`` (wall-clock
    budget, sampling case after case until it runs out) must be given.
    ``only`` restricts execution to the named case indices — the replay
    path behind ``python -m repro soak --case N``.  ``recovery``
    switches to the crash-recovery campaign, ``degraded`` to the
    hostile-link campaign (see module docstring); at most one of the
    two may be set.
    """
    if (cases is None) == (minutes is None):
        raise ValueError("pass exactly one of cases= or minutes=")
    if cases is not None and cases < 1:
        raise ValueError("cases must be positive")
    if recovery and degraded:
        raise ValueError("recovery and degraded campaigns are exclusive")

    sample = (sample_recovery_case if recovery
              else sample_degraded_case if degraded
              else sample_soak_case)
    results = []
    deadline = None if minutes is None else time.monotonic() + minutes * 60.0
    index = 0
    while True:
        if cases is not None and index >= cases:
            break
        if deadline is not None and time.monotonic() >= deadline:
            break
        if only and index > max(only):
            break
        case = sample(soak_seed, index)
        index += 1
        if only and case.index not in only:
            continue
        result = run_soak_case(case)
        results.append(result)
        if not result.ok and stop_on_failure:
            break
    return results
