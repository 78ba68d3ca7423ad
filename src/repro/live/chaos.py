"""Supervised live soak campaigns: the protocol zoo under real faults.

The sim soak harness (:mod:`repro.harness.soak`) samples seeded fault
campaigns and replays them deterministically inside the simulator.
This module is its live mirror: each :class:`LiveSoakCase` runs the
full protocol stack — Omega alone, single-decree consensus, or a
``persist=True`` replicated log with a client workload — across real
OS processes on the UDP backend, under a sampled wall-clock
:class:`~repro.sim.nemesis.FaultPlan` of crash→SIGKILL→respawn bounces
and asymmetric netem shapes.

Three properties make a campaign trustworthy:

* **Replayable** — a case is pure data; its :meth:`LiveSoakCase.describe`
  line carries the exact fault-plan repro string, and
  :func:`run_live_case` refuses to run a plan that does not round-trip
  byte-identically through the codec.  ``--case N`` replays any index
  of a seeded campaign bit-for-bit.
* **Judged** — every plan is checked against the paper's
  :class:`~repro.sim.nemesis.ModelEnvelope` first (with wall-clock-aware
  margins: disturbances must heal with :data:`HEAL_MARGIN` of the
  horizon left calm), and every run's merged ``repro-report/v1``
  document goes through the standard Verdict machinery plus the
  replicated-log safety/liveness checkers.
* **Supervised** — control-plane stalls surface as a named ``timeout``
  status (the one-line :class:`~repro.live.cluster.ControlError`), never
  as a hung campaign, and the cluster's ``finally`` teardown guarantees
  no orphaned node processes outlive a case, whatever its outcome.

Entry point: ``python -m repro live soak`` (see :mod:`repro.cli`).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.live.cluster import ControlError, LiveCluster, LiveClusterSpec
from repro.sim.nemesis import (
    CrashFault,
    FaultEvent,
    FaultPlan,
    ModelEnvelope,
    NetemFault,
    model_violations,
)

__all__ = [
    "HEAL_MARGIN",
    "LiveSoakCase",
    "LiveSoakResult",
    "live_bench_cases",
    "live_soak",
    "run_live_case",
    "sample_live_case",
]

#: Fraction of the horizon that must remain calm after the last
#: disturbance heals.  Live runs pay spawn stagger and real scheduling
#: jitter, so the margin is wall-clock-aware: wider than the sim's
#: default would need to be for "eventually" to have room to happen.
HEAL_MARGIN = 0.4

#: The protocol zoo, cycled by case index: ``(stack, algorithm,
#: persist)``.  Order is load-bearing — the ``persist=True`` replicated
#: log leads, so a ``--cases 1`` campaign (the CI smoke job) is exactly
#: the crash→SIGKILL→respawn→storage-recovery path under asymmetric
#: netem with client load.
_COMBOS: tuple[tuple[str, str, bool], ...] = (
    ("log", "comm-efficient", True),
    ("omega", "source", False),
    ("consensus", "comm-efficient", False),
    ("omega", "crash-recovery", False),
    ("log", "comm-efficient", False),
    ("omega", "comm-efficient", False),
)

#: Client commands driven through the ``submit`` control op per log case.
_WORKLOAD = 10


@dataclass(frozen=True)
class LiveSoakCase:
    """One live soak case: pure data, fully replayable.

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

    def envelope(self) -> ModelEnvelope:
        """The model envelope this case's plan is judged against."""
        return ModelEnvelope(
            n=self.n, source=0, f=(self.n - 1) // 2,
            gst=self.horizon * (1.0 - HEAL_MARGIN),
            horizon=self.horizon, heal_margin=HEAL_MARGIN)

    def cluster_spec(self) -> LiveClusterSpec:
        """The :class:`LiveClusterSpec` realizing this case."""
        return LiveClusterSpec(
            n=self.n, algorithm=self.algorithm, horizon=self.horizon,
            seed=self.seed, faults=self.plan,
            consensus=(self.stack == "consensus"),
            log=(self.stack == "log"), persist=self.persist,
            workload=self.workload, workload_start=1.0,
            workload_period=0.4)


@dataclass
class LiveSoakResult:
    """Outcome of one executed case.

    ``status`` is one of ``ok`` (all properties held), ``fail`` (a
    verdict violation or schema problem), ``model-violation`` (the plan
    exits the paper's model — nothing was run), or ``timeout`` (a
    control channel stayed unreachable through its supervised retries;
    ``detail`` carries the :class:`~repro.live.cluster.ControlError`
    one-liner naming node, endpoint, attempts, and elapsed backoff).
    """

    case: LiveSoakCase
    status: str
    detail: str
    wall_s: float = 0.0
    document: dict[str, Any] | None = None
    replayed_exact: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------

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


def _sample_plan(rng: random.Random, stack: str, algorithm: str,
                 persist: bool, n: int, horizon: float) -> str:
    """A wall-clock fault schedule for one case, in-model by design.

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
    """Deterministically sample case ``index`` of campaign ``soak_seed``.

    The generator is keyed on ``(soak_seed, index)`` alone, so any case
    of any campaign can be resampled — and replayed — in isolation.
    """
    rng = random.Random(f"live-soak/{soak_seed}/{index}")
    stack, algorithm, persist = _COMBOS[index % len(_COMBOS)]
    n = 3
    seed = rng.randrange(1_000_000)
    plan = _sample_plan(rng, stack, algorithm, persist, n, horizon)
    return LiveSoakCase(
        index=index, stack=stack, algorithm=algorithm, n=n,
        persist=persist, workload=(_WORKLOAD if stack == "log" else 0),
        seed=seed, horizon=horizon, plan=plan)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

def run_live_case(case: LiveSoakCase,
                  rundir: str | Path) -> LiveSoakResult:
    """Execute one case end to end; never raises for in-protocol failure.

    Order of checks: the plan must replay byte-identically from its
    repro string (a codec regression fails the case before any process
    spawns), then pass the model envelope; only then does the cluster
    run.  A :class:`~repro.live.cluster.ControlError` anywhere in the
    run — spawn handshake, mid-plan control round, workload submit —
    becomes a ``timeout`` result after the cluster's own ``finally``
    teardown has already reaped every node process.
    """
    from repro.obs.report import validate_report

    started = time.monotonic()
    try:
        plan = FaultPlan.from_repro(case.plan)
    except Exception as error:  # FaultPlanError is a ValueError
        return LiveSoakResult(case, "fail",
                              f"plan does not parse: {error}")
    if plan.to_repro() != case.plan:
        return LiveSoakResult(
            case, "fail",
            f"plan did not replay byte-identically: "
            f"{plan.to_repro()!r} != {case.plan!r}")
    violations = model_violations(plan, case.envelope())
    if violations:
        return LiveSoakResult(case, "model-violation",
                              "; ".join(violations), replayed_exact=True)
    rundir = Path(rundir)
    try:
        outcome = LiveCluster(case.cluster_spec(), rundir).run()
    except ControlError as error:
        return LiveSoakResult(case, "timeout", str(error),
                              wall_s=time.monotonic() - started,
                              replayed_exact=True)
    document = outcome.document
    report_path = rundir / "report.json"
    report_path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n")
    problems = validate_report(document)
    wall = time.monotonic() - started
    if problems:
        return LiveSoakResult(case, "fail",
                              "schema: " + "; ".join(problems),
                              wall_s=wall, document=document,
                              replayed_exact=True)
    if not outcome.verdict.ok:
        return LiveSoakResult(case, "fail",
                              "; ".join(outcome.verdict.violations),
                              wall_s=wall, document=document,
                              replayed_exact=True)
    return LiveSoakResult(case, "ok", _ok_detail(case, document),
                          wall_s=wall, document=document,
                          replayed_exact=True)


def _ok_detail(case: LiveSoakCase, document: dict[str, Any]) -> str:
    """The one-line summary printed next to a passing case."""
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


def live_soak(cases: int = 6, soak_seed: int = 0,
              outdir: str | Path | None = None,
              only: Sequence[int] = (), horizon: float = 15.0,
              stop_on_failure: bool = False) -> list[LiveSoakResult]:
    """Run a seeded live campaign; returns one result per executed case.

    ``only`` runs exactly the named case indices instead of the first
    ``cases``, in ascending order — the replay path behind ``--case N``;
    sampling is keyed by ``(soak_seed, index)``, so any index replays
    the plan the unrestricted campaign would run.  Each case gets its
    own ``caseN/`` subdirectory under ``outdir`` holding node logs, node
    reports, and the merged ``report.json``.
    """
    import tempfile

    root = Path(outdir) if outdir is not None else Path(
        tempfile.mkdtemp(prefix="repro-live-soak-"))
    root.mkdir(parents=True, exist_ok=True)
    results = []
    for index in (sorted(set(only)) if only else range(cases)):
        case = sample_live_case(soak_seed, index, horizon=horizon)
        result = run_live_case(case, root / f"case{index}")
        results.append(result)
        if stop_on_failure and not result.ok:
            break
    return results


# ----------------------------------------------------------------------
# Bench bridge (latency comparability across backends)
# ----------------------------------------------------------------------

def live_bench_cases(results: Sequence[LiveSoakResult]) -> list[dict]:
    """Bench-shaped case rows for :func:`repro.harness.bench.build_report`.

    Each row carries the run's commit-latency percentiles under
    ``result.latency_s`` — the same block the sim's E19 load cases
    emit — so ``--compare`` against a sim bench report prints per-
    percentile latency drift across backends.
    """
    rows = []
    for result in results:
        case = result.case
        document = result.document or {}
        workload = document.get("workload") or {}
        block: dict[str, Any] = {
            "status": result.status,
            "plan": case.plan,
        }
        if workload:
            block["latency_s"] = workload.get("latency_s")
            block["committed"] = workload.get("committed")
            block["throughput_cps"] = workload.get("throughput_cps")
        rows.append({
            "case_id": (f"live-soak/{case.stack}/{case.algorithm}"
                        f"#{case.index}"),
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
