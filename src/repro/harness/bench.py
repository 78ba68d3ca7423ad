"""Scale-out experiment bench runner.

This module turns the E1–E4 experiment suite (plus E17, the
packet-budget and adaptive-degradation rows of docs/DEGRADATION.md,
and E18, the large-n communication-efficiency census at n = 256/512/
1024) into a list of independent :class:`BenchCase` values, fans them out
across CPU cores with ``multiprocessing``, and merges the results into
a versioned, machine-readable report (``BENCH_<date>.json``) so the
repository's performance trajectory is measurable run over run.

Determinism
-----------
Each case carries its own seed and runs one self-contained simulation,
so a case's *result* (verdicts, stabilization times, link censuses,
event counts, simulated durations) is bit-for-bit identical no matter
which worker executes it or how many jobs run concurrently.  Cases are
generated in canonical order and results are merged back into that
order, so two reports produced from the same suite and seed differ only
in the wall-clock ``timing`` blocks and the ``meta`` header — that is
asserted by ``tests/test_bench.py``.

Report schema (``repro-bench/v1``)
----------------------------------
See ``docs/PERFORMANCE.md`` for the field-by-field description.  The
deterministic payload lives under ``cases[*]`` (minus ``timing``) and
``summary``; everything wall-clock- or host-dependent lives under
``cases[*].timing`` and ``meta``.  Each case additionally carries two
additive (schema-compatible) deterministic blocks: ``verdict`` — the
shared :class:`~repro.obs.verdict.Verdict` of the experiment's checker
— and ``profile`` — the kernel's profiling counters
(:meth:`~repro.sim.engine.Simulation.profile`).
"""

from __future__ import annotations

import datetime as _datetime
import json
import multiprocessing
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, Sequence

from repro.core import OmegaConfig, analyze_omega_run, measure_qos
from repro.harness.scenarios import OmegaScenario
from repro.obs.observer import Observer, capture
from repro.obs.verdict import Verdict
from repro.sim import DegradeFault, FaultPlan, LinkTimings

__all__ = [
    "SCHEMA_VERSION",
    "EXPERIMENTS",
    "BenchCase",
    "default_suite",
    "run_case",
    "run_suite",
    "build_report",
    "report_to_json",
    "strip_nondeterministic",
    "compare_reports",
    "default_output_name",
]

SCHEMA_VERSION = "repro-bench/v1"
"""Version tag of the JSON report layout; bump on breaking changes."""

EXPERIMENTS = ("e1", "e2", "e3", "e4", "e17", "e18", "e19")
"""Experiment families the runner knows how to fan out."""

_TIMINGS = LinkTimings(gst=5.0)


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BenchCase:
    """One independently runnable experiment case.

    ``case_id`` is the canonical identity (unique within a suite, stable
    across runs); ``params`` are the keyword arguments of the experiment
    family's runner.  Cases are plain data so they pickle cleanly across
    ``multiprocessing`` workers.
    """

    case_id: str
    experiment: str
    params: dict = field(default_factory=dict)


def _census_horizon(n: int) -> float:
    """Simulated seconds needed for the counter race to settle at size n.

    Stabilization of the accusation-counter algorithms grows with n
    (more processes accuse before the source's counter wins); these
    horizons leave a comfortable quiet tail for the trailing census
    window at every size the suite uses.
    """
    if n <= 16:
        return 240.0
    if n <= 64:
        return 480.0
    return 900.0


def default_suite(
    seed: int = 7,
    experiments: Sequence[str] = EXPERIMENTS,
    quick: bool = False,
    full: bool = False,
) -> list[BenchCase]:
    """The canonical E1–E4 case list.

    Parameters
    ----------
    seed:
        Base seed; each case derives its own from it deterministically.
    experiments:
        Subset of :data:`EXPERIMENTS` to include.
    quick:
        CI-smoke sizing: a handful of small-n, short-horizon cases.
    full:
        Also include the heaviest large-n rows (E3 census at n = 128,
        E18 at n = 512 and n = 1024).
    """
    unknown = set(experiments) - set(EXPERIMENTS)
    if unknown:
        raise ValueError(f"unknown experiments {sorted(unknown)}; "
                         f"known: {EXPERIMENTS}")
    cases: list[BenchCase] = []

    if "e1" in experiments:
        algorithms = (("all-timely", ), ("comm-efficient", )) if quick else (
            ("all-timely", ), ("source", ), ("comm-efficient", ), ("f-source", ))
        sizes = (3, 4) if quick else (3, 5, 8, 12)
        seeds = (seed,) if quick else (seed, seed + 1)
        for (algorithm,) in algorithms:
            for n in sizes:
                for case_seed in seeds:
                    cases.append(BenchCase(
                        case_id=f"e1/{algorithm}/n={n}/seed={case_seed}",
                        experiment="e1",
                        params={"algorithm": algorithm, "n": n,
                                "seed": case_seed}))

    if "e2" in experiments:
        combos: list[tuple[str, int, float]] = (
            [("comm-efficient", 6, 90.0)] if quick else
            [("all-timely", 8, 120.0), ("source", 8, 120.0),
             ("comm-efficient", 8, 120.0), ("comm-efficient", 32, 240.0)])
        for algorithm, n, horizon in combos:
            cases.append(BenchCase(
                case_id=f"e2/{algorithm}/n={n}",
                experiment="e2",
                params={"algorithm": algorithm, "n": n, "seed": seed,
                        "horizon": horizon}))

    if "e3" in experiments:
        combos_e3: list[tuple[str, str, int]] = []
        if quick:
            combos_e3 = [("all-timely", "all-et", 4),
                         ("comm-efficient", "source", 4)]
        else:
            for algorithm, system in (("all-timely", "all-et"),
                                      ("source", "source"),
                                      ("comm-efficient", "source"),
                                      ("f-source", "f-source")):
                for n in (4, 8, 16):
                    combos_e3.append((algorithm, system, n))
            combos_e3 += [("source", "source", 32),
                          ("comm-efficient", "source", 32),
                          ("comm-efficient", "source", 64)]
            if full:
                combos_e3.append(("comm-efficient", "source", 128))
        for algorithm, system, n in combos_e3:
            cases.append(BenchCase(
                case_id=f"e3/{algorithm}/n={n}",
                experiment="e3",
                params={"algorithm": algorithm, "system": system, "n": n,
                        "seed": seed}))

    if "e4" in experiments:
        etas = (0.5,) if quick else (0.25, 0.5, 1.0, 2.0)
        seeds = (seed,) if quick else (seed, seed + 1)
        for eta in etas:
            for case_seed in seeds:
                cases.append(BenchCase(
                    case_id=f"e4/eta={eta:g}/seed={case_seed}",
                    experiment="e4",
                    params={"eta": eta, "seed": case_seed}))

    if "e17" in experiments:
        # Packet budgets: one row per registered Omega variant, run with
        # the packet tally attached (the timed e1-e4 paths stay
        # observer-free, so these rows never perturb the perf guard).
        budget_algorithms = (("comm-efficient", "packet-efficient")
                             if quick else _E17_ALGORITHMS)
        budget_n = 4 if quick else 8
        for algorithm in budget_algorithms:
            cases.append(BenchCase(
                case_id=f"e17/budget/{algorithm}/n={budget_n}",
                experiment="e17",
                params={"mode": "budget", "algorithm": algorithm,
                        "n": budget_n, "seed": seed}))
        # Adaptive-vs-static comm-efficient under a sustained degrade
        # storm: the robustness headline row.  Sized to the regime the
        # adaptive layer targets (small/mid ensembles; at n >= 8 the
        # monotone static timeouts are already near-optimal for this
        # storm and batching is dominated by the loss rate — see
        # docs/DEGRADATION.md).
        for n in ((4,) if quick else (4, 6)):
            cases.append(BenchCase(
                case_id=f"e17/adaptive-vs-static/n={n}",
                experiment="e17",
                params={"mode": "adaptive", "n": n, "seed": seed}))

    if "e19" in experiments:
        # Consensus-under-load rows (docs/LOAD.md): client fleets driving
        # the replicated log, measured as committed-command throughput
        # and commit-latency percentiles.  All sim-time figures, so the
        # rows are deterministic at any --jobs level.
        if quick:
            cases.append(BenchCase(
                case_id="e19/batching/n=5",
                experiment="e19",
                params={"mode": "batching", "seed": seed, "clients": 200,
                        "keys": 64, "rate": 40.0, "duration": 15.0,
                        "horizon": 60.0}))
            cases.append(BenchCase(
                case_id="e19/sharded/groups=4/n=5",
                experiment="e19",
                params={"mode": "sharded", "seed": seed, "groups": 4,
                        "clients": 200, "keys": 64, "rate": 20.0,
                        "duration": 20.0, "horizon": 60.0}))
            cases.append(_persist_open_case(seed, duration=60.0, crash_at=30.0,
                                            recover_at=40.0, horizon=100.0))
        else:
            cases.append(BenchCase(
                case_id="e19/open/n=5",
                experiment="e19",
                params={"mode": "open", "seed": seed, "clients": 2000,
                        "keys": 512, "rate": 40.0, "duration": 60.0,
                        "horizon": 120.0}))
            cases.append(BenchCase(
                case_id="e19/closed/n=5",
                experiment="e19",
                params={"mode": "closed", "seed": seed, "clients": 64,
                        "keys": 256, "think_time": 4.0, "duration": 60.0,
                        "horizon": 120.0}))
            cases.append(BenchCase(
                case_id="e19/batching/n=5",
                experiment="e19",
                params={"mode": "batching", "seed": seed, "clients": 500,
                        "keys": 128, "rate": 60.0, "duration": 40.0,
                        "horizon": 120.0}))
            cases.append(BenchCase(
                case_id="e19/sharded/groups=4/n=5",
                experiment="e19",
                params={"mode": "sharded", "seed": seed, "groups": 4,
                        "clients": 1000, "keys": 256, "rate": 40.0,
                        "duration": 45.0, "horizon": 100.0}))
            cases.append(BenchCase(
                case_id="e19/compaction/n=5",
                experiment="e19",
                params={"mode": "compaction", "seed": seed, "groups": 2,
                        "keep_tail": 16, "clients": 200, "keys": 64,
                        "rate": 15.0, "duration": 45.0, "horizon": 100.0}))
            cases.append(_persist_open_case(seed, duration=200.0,
                                            crash_at=100.0, recover_at=115.0,
                                            horizon=260.0))

    if "e18" in experiments and not quick:
        # Large-n CE census: the paper's n-1-links claim at the next
        # order of magnitude.  n=256 rides in the default suite; the
        # n=512/1024 rows are --full material (tens of seconds each).
        for n in ((256, 512, 1024) if full else (256,)):
            cases.append(BenchCase(
                case_id=f"e18/comm-efficient/n={n}",
                experiment="e18",
                params={"n": n, "seed": seed}))

    return cases


def _persist_open_case(seed: int, **shape: float) -> BenchCase:
    """The persisted commit path: storage syncs, write-ahead rules and
    the retransmission backoff gate under open-loop load, through one
    crash and recovery of the trusted leader (the arrivals continue)."""
    return BenchCase(
        case_id="e19/persist-open/n=5",
        experiment="e19",
        params={"mode": "persist-open", "seed": seed, "persist": True,
                "omega": "crash-recovery", "clients": 1000, "keys": 256,
                "rate": 3.0, **shape})


# ----------------------------------------------------------------------
# Per-experiment runners (top-level so they pickle under spawn)
# ----------------------------------------------------------------------

def _run_e1(algorithm: str, n: int, seed: int) -> tuple[Verdict, dict, Any]:
    source = n // 2
    if algorithm == "all-timely":
        scenario = OmegaScenario(algorithm=algorithm, n=n, system="all-et",
                                 seed=seed, horizon=300.0, timings=_TIMINGS)
    elif algorithm == "f-source":
        scenario = OmegaScenario(algorithm=algorithm, n=n, system="f-source",
                                 source=source, targets=(0, n - 1), seed=seed,
                                 horizon=600.0, timings=_TIMINGS)
    else:
        scenario = OmegaScenario(algorithm=algorithm, n=n, system="source",
                                 source=source, seed=seed, horizon=300.0,
                                 timings=_TIMINGS)
    outcome = scenario.run()
    details = {
        "omega_holds": outcome.stabilized,
        "stabilization_time_s": outcome.report.stabilization_time,
        "final_leader": outcome.report.final_leader,
    }
    return outcome.report.verdict(), details, outcome.cluster


def _run_e2(algorithm: str, n: int, seed: int,
            horizon: float) -> tuple[Verdict, dict, Any]:
    system = "all-et" if algorithm == "all-timely" else "source"
    outcome = OmegaScenario(algorithm=algorithm, n=n, system=system,
                            source=n // 2, seed=seed, horizon=horizon,
                            timings=_TIMINGS).run()
    metrics = outcome.cluster.metrics
    window = 10.0
    senders = len(metrics.senders_between(horizon - window, horizon - 0.001))
    messages = metrics.messages_between(horizon - window, horizon - 0.001)
    expected = 1 if algorithm == "comm-efficient" else n
    details = {
        "senders_final_window": senders,
        "messages_final_window": messages,
        "expected_senders": expected,
        "total_sent": metrics.total_sent,
    }
    verdict = outcome.report.verdict()
    if senders == expected:
        verdict = verdict.merge(Verdict.passed(senders_final_window=senders))
    else:
        verdict = verdict.merge(Verdict.failed(
            f"{senders} senders in the final window, expected {expected}",
            senders_final_window=senders))
    return verdict, details, outcome.cluster


def _run_e3(algorithm: str, system: str, n: int,
            seed: int) -> tuple[Verdict, dict, Any]:
    outcome = OmegaScenario(
        algorithm=algorithm, n=n, system=system, source=1,
        targets=(0, 2) if system == "f-source" else (),
        seed=seed, horizon=_census_horizon(n), ce_window=20.0,
        timings=_TIMINGS).run()
    active = len(outcome.comm.links)
    if algorithm == "comm-efficient":
        ok = active == n - 1 and outcome.communication_efficient
        expectation = f"exactly {n - 1} leader-adjacent links"
    else:
        ok = active > n - 1
        expectation = f"more than {n - 1} links (not communication-efficient)"
    details = {
        "links_active_final_window": active,
        "ce_target": n - 1,
        "full_mesh": n * (n - 1),
        "communication_efficient": outcome.communication_efficient,
    }
    if ok:
        verdict = Verdict.passed(links_active_final_window=active)
    else:
        verdict = Verdict.failed(
            f"{active} busy links in the final window, expected {expectation}",
            links_active_final_window=active)
    return verdict, details, outcome.cluster


def _run_e4(eta: float, seed: int) -> tuple[Verdict, dict, Any]:
    n, crash_at = 6, 60.0
    config = OmegaConfig(eta=eta, initial_timeout=4 * eta, growth_step=eta)
    scenario = OmegaScenario(
        algorithm="comm-efficient", n=n, system="multi-source",
        sources=(1, 2), seed=seed, horizon=crash_at, timings=_TIMINGS,
        config=config)
    cluster = scenario.build()
    cluster.start_all()
    cluster.run_until(crash_at)
    first = analyze_omega_run(cluster).final_leader
    latency = None
    if first is not None:
        cluster.crash(first)
        cluster.run_until(crash_at + 400.0)
        report = analyze_omega_run(cluster)
        if report.omega_holds and report.stabilization_time is not None:
            latency = report.stabilization_time - crash_at
    details = {
        "crashed_leader": first,
        "reelection_latency_s": latency,
        "eta_s": eta,
    }
    if latency is not None:
        verdict = Verdict.passed(reelection_latency_s=latency)
    else:
        verdict = Verdict.failed(
            "no re-election after crashing the first leader",
            crashed_leader=first)
    return verdict, details, cluster


# E17 (docs/DEGRADATION.md): per-packet budgets and adaptive degradation.
# The fixed tuple keeps case ids stable if the registry grows.
_E17_ALGORITHMS = ("all-timely", "source", "comm-efficient", "f-source",
                   "crash-recovery", "packet-efficient")


class _PacketTally(Observer):
    """Minimal packet accounting for e17 (attached via ``capture``).

    Unlike :class:`~repro.obs.report.RunRecorder` this records nothing
    but the packet counters, so budget rows stay cheap; the timed e1-e4
    cases never attach it and keep their observer-free hot path.
    """

    def __init__(self) -> None:
        self.sent = 0
        self.bytes_sent = 0
        self.delivered = 0
        self.bytes_delivered = 0
        self.by_kind: dict[str, list[int]] = {}

    def on_packet_send(self, time: float, src: int, dst: int, kind: str,
                       size: int, packets: int) -> None:
        self.sent += packets
        self.bytes_sent += size
        entry = self.by_kind.setdefault(kind, [0, 0])
        entry[0] += packets
        entry[1] += size

    def on_packet_deliver(self, time: float, src: int, dst: int, kind: str,
                          size: int, packets: int) -> None:
        self.delivered += packets
        self.bytes_delivered += size

    def block(self, mtu: int) -> dict:
        """The additive ``packets`` budget block of a bench case result."""
        return {
            "mtu": mtu,
            "sent": self.sent,
            "bytes_sent": self.bytes_sent,
            "by_kind": {kind: {"packets": packets, "bytes": size}
                        for kind, (packets, size)
                        in sorted(self.by_kind.items())},
            "delivered": self.delivered,
            "bytes_delivered": self.bytes_delivered,
        }


def _e17_scenario(algorithm: str, n: int, seed: int,
                  config: OmegaConfig | None = None,
                  faults: str = "") -> OmegaScenario:
    """The e17 scenario of one algorithm on its weakest adequate system."""
    source = n // 2
    if algorithm in ("all-timely", "packet-efficient"):
        return OmegaScenario(algorithm=algorithm, n=n, system="all-et",
                             seed=seed, horizon=300.0, timings=_TIMINGS,
                             config=config, faults=faults)
    if algorithm == "f-source":
        return OmegaScenario(algorithm=algorithm, n=n, system="f-source",
                             source=source, targets=(0, n - 1), seed=seed,
                             horizon=600.0, timings=_TIMINGS,
                             config=config, faults=faults)
    return OmegaScenario(algorithm=algorithm, n=n, system="source",
                         source=source, seed=seed, horizon=300.0,
                         timings=_TIMINGS, config=config, faults=faults)


def _run_e17_budget(algorithm: str, n: int,
                    seed: int) -> tuple[Verdict, dict, Any]:
    """One packet-budget row: run observed, report the packet economy."""
    scenario = _e17_scenario(algorithm, n, seed)
    with capture(_PacketTally):
        outcome = scenario.run()
    network = outcome.cluster.network
    tally = network.hub.first(_PacketTally)
    horizon = scenario.horizon
    details = {
        "omega_holds": outcome.stabilized,
        "stabilization_time_s": outcome.report.stabilization_time,
        "final_leader": outcome.report.final_leader,
        "packets": tally.block(network.mtu),
        "packets_per_sim_s": tally.sent / horizon,
        "bytes_per_sim_s": tally.bytes_sent / horizon,
    }
    verdict = outcome.report.verdict().merge(Verdict.passed(
        packets_sent=tally.sent, bytes_sent=tally.bytes_sent))
    return verdict, details, outcome.cluster


def _e17_degrade_plan(n: int) -> str:
    """A sustained all-links degrade storm, healed with calm to spare."""
    pairs = tuple((i, j) for i in range(n) for j in range(n) if i != j)
    return FaultPlan([DegradeFault(30.0, 150.0, pairs,
                                   loss=0.35, delay=0.4)]).to_repro()


def _run_e17_adaptive(n: int, seed: int) -> tuple[Verdict, dict, Any]:
    """Adaptive vs static comm-efficient under the same degrade storm.

    The claim this row defends (ISSUE 6): with ``adaptive_qos`` on, the
    comm-efficient detector sends measurably fewer packets over the
    degraded window at no worse agreement/good-fraction QoS.
    """
    faults = _e17_degrade_plan(n)
    sides: dict[str, dict] = {}
    clusters: dict[str, Any] = {}
    for label, adaptive in (("static", False), ("adaptive", True)):
        scenario = _e17_scenario("comm-efficient", n, seed,
                                 config=OmegaConfig(adaptive_qos=adaptive),
                                 faults=faults)
        with capture(_PacketTally):
            outcome = scenario.run()
        network = outcome.cluster.network
        tally = network.hub.first(_PacketTally)
        qos = measure_qos(outcome.cluster, start=30.0,
                          end=scenario.horizon)
        sides[label] = {
            "omega_holds": outcome.stabilized,
            "packets": tally.block(network.mtu),
            "agreement_fraction": qos.agreement_fraction,
            "good_fraction": qos.good_fraction,
            "output_changes": qos.total_changes,
        }
        clusters[label] = outcome.cluster
    static, adaptive = sides["static"], sides["adaptive"]
    saved = static["packets"]["sent"] - adaptive["packets"]["sent"]
    details = {
        "faults": faults,
        "static": static,
        "adaptive": adaptive,
        "packets_saved": saved,
        "packets_saved_fraction": (saved / static["packets"]["sent"]
                                   if static["packets"]["sent"] else None),
    }
    qos_epsilon = 0.02  # "no worse" up to interval-measurement noise
    fewer = adaptive["packets"]["sent"] < static["packets"]["sent"]
    no_worse = (
        adaptive["agreement_fraction"]
        >= static["agreement_fraction"] - qos_epsilon
        and adaptive["good_fraction"] >= static["good_fraction"] - qos_epsilon)
    if not (static["omega_holds"] and adaptive["omega_holds"]):
        verdict = Verdict.failed("omega did not hold on both sides")
    elif not fewer:
        verdict = Verdict.failed(
            f"adaptive sent {adaptive['packets']['sent']} packets, "
            f"static {static['packets']['sent']}: no saving")
    elif not no_worse:
        verdict = Verdict.failed(
            f"adaptive QoS regressed beyond {qos_epsilon:g}: "
            f"agreement {adaptive['agreement_fraction']:.3f} vs "
            f"{static['agreement_fraction']:.3f}, good "
            f"{adaptive['good_fraction']:.3f} vs "
            f"{static['good_fraction']:.3f}")
    else:
        verdict = Verdict.passed(packets_saved=saved)
    return verdict, details, clusters["adaptive"]


def _run_e17(mode: str, **params: Any) -> tuple[Verdict, dict, Any]:
    if mode == "budget":
        return _run_e17_budget(**params)
    if mode == "adaptive":
        return _run_e17_adaptive(**params)
    raise ValueError(f"unknown e17 mode {mode!r}")


_E18_HORIZONS = {256: 400.0, 512: 500.0, 1024: 600.0}
"""Sim-seconds per E18 size: steady tails scaled with n, sized so the
n=1024 row stays within a one-minute single-core wall budget (steady
state costs ~5 wall-seconds per 100 sim-seconds at n=1024)."""


def _run_e18(n: int, seed: int) -> tuple[Verdict, dict, Any]:
    # Large-n census runs the paper's steady-state regime: the source is
    # the priority minimum (pid 0) and the initial timeout clears the
    # worst pre-GST delay (8 > eta + pre_gst_delay_max = 5.5), so no
    # process is falsely accused and the run goes quiet right after
    # stabilization.  The alternative — a worst-case accusation race —
    # scales super-linearly in wall time (measured 1281.5 sim-s to
    # stabilize at n=256) and measures the race, not the census.
    # link_rng="src" keeps RNG setup at n streams instead of n².
    outcome = OmegaScenario(
        algorithm="comm-efficient", n=n, system="source", source=0,
        seed=seed, horizon=_E18_HORIZONS.get(n, 600.0), ce_window=20.0,
        timings=_TIMINGS, config=OmegaConfig(initial_timeout=8.0),
        link_rng="src").run()
    active = len(outcome.comm.links)
    ok = (outcome.stabilized and active == n - 1
          and outcome.communication_efficient)
    details = {
        "links_active_final_window": active,
        "ce_target": n - 1,
        "full_mesh": n * (n - 1),
        "communication_efficient": outcome.communication_efficient,
        "omega_holds": outcome.report.omega_holds,
        "stabilization_time_s": outcome.report.stabilization_time,
        "final_leader": outcome.report.final_leader,
    }
    if ok:
        verdict = Verdict.passed(links_active_final_window=active)
    else:
        verdict = Verdict.failed(
            f"expected a stabilized run with exactly {n - 1} busy links, "
            f"got {active} (omega_holds="
            f"{outcome.report.omega_holds}, ce="
            f"{outcome.communication_efficient})",
            links_active_final_window=active)
    return verdict, details, outcome.cluster


# E19 (docs/LOAD.md): client-fleet load against the replicated log.

_COMMIT_P50_TICKS = 4
"""Persisted rows fail above this commit p50, in driver ticks: a commit
is a few link delays plus one sync, and waits at most for the next tick
at the forwarder and at the leader — more means messages sit gated."""


def _run_e19_load(mode: str, seed: int, crash_at: float | None = None,
                  recover_at: float | None = None,
                  **spec_kwargs: Any) -> tuple[Verdict, dict, Any]:
    """One fleet row: run a LoadSpec, judge per group, require drain.

    With ``crash_at`` the leader (as pid 0's Omega sees it at that
    instant) is crashed, and recovers at ``recover_at``.
    """
    from repro.load import LoadSpec  # local: keep bench importable early

    spec = LoadSpec(
        seed=seed,
        mode="closed" if mode == "closed" else "open",
        compacting=(mode == "compaction"),
        **spec_kwargs)
    run = spec.build()
    system = run.system
    if crash_at is not None:
        def crash_leader() -> None:
            pid = system.node(0).omega.leader()
            system.crash(pid)
            system.sim.call_at(recover_at, partial(system.recover, pid))

        system.sim.call_at(crash_at, crash_leader)
    outcome = run.run()
    details = outcome.to_json()
    verdict = outcome.verdict
    if spec.persist:
        limit = _COMMIT_P50_TICKS * spec.consensus_config().tick
        p50 = outcome.latency_p50_s
        if p50 is None or p50 > limit:
            verdict = verdict.merge(Verdict.failed(
                f"commit p50 {p50} s exceeds {_COMMIT_P50_TICKS} ticks "
                f"({limit} s)"))
    if outcome.done:
        verdict = verdict.merge(Verdict.passed(
            committed=outcome.committed,
            throughput_cps=outcome.throughput_cps))
    else:
        verdict = verdict.merge(Verdict.failed(
            f"{outcome.issued - outcome.committed} of {outcome.issued} "
            f"commands never committed by the horizon",
            committed=outcome.committed))
    return verdict, details, run.system


def _run_e19_batching(seed: int,
                      **spec_kwargs: Any) -> tuple[Verdict, dict, Any]:
    """Batched+pipelined vs the unbatched control on the same offered load.

    The claim this row defends (ISSUE 9): with multi-command slots
    (``batch_size=8``) and a pipelining window (``max_batch=8``) the
    leader commits strictly more commands per simulated second than the
    one-command-one-slot control (``batch_size=1``, window 1) at n=5 —
    with both sides passing the consensus checkers.  Only the batched
    side must drain by the horizon; falling behind is exactly what the
    control demonstrates.
    """
    from repro.load import LoadSpec  # local: keep bench importable early

    outcomes: dict[str, Any] = {}
    systems: dict[str, Any] = {}
    for label, batch_size, window in (("batched", 8, 8), ("control", 1, 1)):
        run = LoadSpec(seed=seed, batch_size=batch_size, window=window,
                       **spec_kwargs).build()
        outcomes[label] = run.run()
        systems[label] = run.system
    batched, control = outcomes["batched"], outcomes["control"]
    speedup = (batched.throughput_cps / control.throughput_cps
               if batched.throughput_cps and control.throughput_cps else None)
    details = {
        "batched": batched.to_json(),
        "control": control.to_json(),
        "latency_s": batched.to_json()["latency_s"],
        "throughput_cps": batched.throughput_cps,
        "speedup": speedup,
    }
    if not (batched.verdict.ok and control.verdict.ok):
        verdict = Verdict.failed("a consensus checker failed on one side")
    elif not batched.done:
        verdict = Verdict.failed(
            f"batched side left {batched.issued - batched.committed} "
            f"commands uncommitted")
    elif not (batched.throughput_cps or 0) > (control.throughput_cps or 0):
        verdict = Verdict.failed(
            f"batching did not beat the control: "
            f"{batched.throughput_cps} vs {control.throughput_cps} cps")
    else:
        verdict = Verdict.passed(
            throughput_cps=batched.throughput_cps,
            control_throughput_cps=control.throughput_cps,
            speedup=speedup)
    return verdict, details, systems["batched"]


def _run_e19(mode: str, **params: Any) -> tuple[Verdict, dict, Any]:
    if mode == "batching":
        return _run_e19_batching(**params)
    if mode in ("open", "closed", "sharded", "compaction", "persist-open"):
        return _run_e19_load(mode, **params)
    raise ValueError(f"unknown e19 mode {mode!r}")


_RUNNERS: dict[str, Callable[..., tuple[Verdict, dict, Any]]] = {
    "e1": _run_e1,
    "e2": _run_e2,
    "e3": _run_e3,
    "e4": _run_e4,
    "e17": _run_e17,
    "e18": _run_e18,
    "e19": _run_e19,
}


def run_case(case: BenchCase) -> dict:
    """Execute one case and return its result record (see module docstring).

    Everything outside the ``timing`` block is deterministic in
    ``(case.experiment, case.params)``.
    """
    started = time.perf_counter()
    verdict, details, cluster = _RUNNERS[case.experiment](**case.params)
    wall = time.perf_counter() - started
    events = cluster.sim.events_executed
    sim_time = cluster.sim.now
    return {
        "case_id": case.case_id,
        "experiment": case.experiment,
        "params": dict(case.params),
        "ok": verdict.ok,
        "verdict": verdict.to_json(),
        "result": details,
        "events": events,
        "sim_time_s": sim_time,
        "profile": cluster.sim.profile(),
        "timing": {
            "wall_s": wall,
            "events_per_s": events / wall if wall > 0 else None,
            "sim_s_per_wall_s": sim_time / wall if wall > 0 else None,
        },
    }


# ----------------------------------------------------------------------
# Fan-out
# ----------------------------------------------------------------------

def _pool_context() -> multiprocessing.context.BaseContext:
    # fork is the fast path on Linux; spawn keeps macOS/Windows working
    # (runners and BenchCase are all top-level, so both pickle fine).
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def run_suite(cases: Sequence[BenchCase], jobs: int = 1) -> list[dict]:
    """Run ``cases``, fanning out over ``jobs`` worker processes.

    Results are returned in the canonical order of ``cases`` regardless
    of completion order, so the report is byte-identical (modulo wall
    times) at any parallelism level.  ``jobs <= 1`` runs inline, which
    is also the mode workers themselves use.
    """
    if jobs <= 1 or len(cases) <= 1:
        return [run_case(case) for case in cases]
    with _pool_context().Pool(processes=min(jobs, len(cases))) as pool:
        unordered = pool.imap_unordered(run_case, cases, chunksize=1)
        by_id = {result["case_id"]: result for result in unordered}
    return [by_id[case.case_id] for case in cases]


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------

def build_report(results: Iterable[dict], *, seed: int, jobs: int,
                 suite: str, wall_s: float | None = None) -> dict:
    """Assemble the versioned report around per-case results."""
    results = list(results)
    report = {
        "schema": SCHEMA_VERSION,
        "suite": suite,
        "seed": seed,
        "cases": results,
        "summary": {
            "cases": len(results),
            "ok": sum(1 for r in results if r["ok"]),
            "failed": sum(1 for r in results if not r["ok"]),
            "events": sum(r["events"] for r in results),
            "sim_time_s": sum(r["sim_time_s"] for r in results),
        },
        "meta": {
            "created_utc": _datetime.datetime.now(
                _datetime.timezone.utc).isoformat(),
            "jobs": jobs,
            "wall_s": wall_s,
            "host": platform.node(),
            "platform": platform.platform(),
            "python": sys.version.split()[0],
            "cpu_count": os.cpu_count(),
        },
    }
    return report


def strip_nondeterministic(report: dict) -> dict:
    """The deterministic core of a report: drop ``meta`` and ``timing``.

    Two reports of the same suite and seed must compare equal under this
    projection at any ``--jobs`` level — the determinism regression test
    and CI's verdict-regression check both rely on it.
    """
    core = {key: value for key, value in report.items() if key != "meta"}
    core["cases"] = [
        {key: value for key, value in case.items() if key != "timing"}
        for case in report["cases"]
    ]
    return core


def compare_reports(old: dict, new: dict) -> dict:
    """Diff two bench reports: determinism drift and throughput drift.

    Compares the :func:`strip_nondeterministic` projections per case
    (``changed`` lists cases whose deterministic record — verdict,
    result, events, profile — differs) and, for cases present in both
    reports, the nondeterministic ``timing.events_per_s`` figures
    (``throughput`` rows; ``ratio`` is new/old).  Cases whose ``result``
    carries a ``latency_s`` percentile block (the E19 load rows) also
    get ``latency`` rows — old/new/ratio per percentile — so commit-tail
    drift is visible at a glance.  ``added``/``removed`` list case_ids
    present in only one report — suite-shape changes, not regressions.
    ``ok`` is True iff no common case's deterministic record changed;
    the CLI's ``bench --compare`` exits nonzero on it.
    """
    old_cases = {case["case_id"]: case
                 for case in strip_nondeterministic(old)["cases"]}
    new_cases = {case["case_id"]: case
                 for case in strip_nondeterministic(new)["cases"]}
    changed = [case_id for case_id, case in new_cases.items()
               if case_id in old_cases and old_cases[case_id] != case]
    old_timing = {case["case_id"]: case.get("timing") or {}
                  for case in old["cases"]}
    new_timing = {case["case_id"]: case.get("timing") or {}
                  for case in new["cases"]}
    throughput = []
    for case_id in new_cases:
        if case_id not in old_cases:
            continue
        old_eps = old_timing[case_id].get("events_per_s")
        new_eps = new_timing[case_id].get("events_per_s")
        throughput.append({
            "case_id": case_id,
            "old_events_per_s": old_eps,
            "new_events_per_s": new_eps,
            "ratio": (new_eps / old_eps
                      if old_eps and new_eps else None),
        })
    latency = []
    for case_id in new_cases:
        if case_id not in old_cases:
            continue
        old_block = (old_cases[case_id].get("result") or {}).get("latency_s")
        new_block = (new_cases[case_id].get("result") or {}).get("latency_s")
        if not isinstance(old_block, dict) or not isinstance(new_block, dict):
            continue
        for quantile in sorted(set(old_block) | set(new_block)):
            old_value = old_block.get(quantile)
            new_value = new_block.get(quantile)
            latency.append({
                "case_id": case_id,
                "quantile": quantile,
                "old_s": old_value,
                "new_s": new_value,
                "ratio": (new_value / old_value
                          if old_value and new_value else None),
            })
    return {
        "ok": not changed,
        "changed": changed,
        "added": sorted(set(new_cases) - set(old_cases)),
        "removed": sorted(set(old_cases) - set(new_cases)),
        "throughput": throughput,
        "latency": latency,
    }


def report_to_json(report: dict) -> str:
    """Canonical JSON rendering (sorted keys, stable float repr)."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def default_output_name(today: _datetime.date | None = None) -> str:
    """``BENCH_<YYYY-MM-DD>.json`` — one file per day of the trajectory."""
    day = today if today is not None else _datetime.date.today()
    return f"BENCH_{day.isoformat()}.json"
