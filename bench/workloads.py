"""The six benchmark workloads (why each exists: bench/README.md).

Every workload drives the program only through public entry points and
splits one **pass** into three steps so each can be timed on its own:

``build(seed)``
    Assemble the system from the seed (set-up, not measured as work).
``drive(built)``
    ``start_all`` + ``run_until`` (+ the scripted crash): the only part
    inside ``wall_s``.
``judge(built)``
    Run the paper's checkers and distil a :class:`PassResult`; a
    violation fails every operation of the pass.

An **operation** is what the workload's user waits for: one process
converging on the final leader (Omega workloads), one client command
committing (log workloads).  ``latencies`` are per operation, on the
workload's protocol clock — simulated seconds on the five sim
workloads (deterministic per seed), node-clock seconds on ``live_log``.
"""

from __future__ import annotations

import gc
import resource
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Any, Iterable

from repro import LoadSpec, OmegaConfig, OmegaScenario
from repro.core import checker as omega_checker
from repro.sim import LinkTimings

__all__ = ["PassResult", "WORKLOADS", "make", "run_pass"]

#: Trailing window (simulated seconds) of the communication census.
CE_WINDOW = 20.0


@dataclass
class PassResult:
    """What one pass of a workload measured."""

    wall_s: float
    events: int
    latencies: list[float]
    msgs: int
    units: float
    attempted: int
    failed: int
    violations: list[str]
    facts: dict[str, float] = field(default_factory=dict)
    setup_samples: list[float] = field(default_factory=list)

    @property
    def msg_cost(self) -> float:
        """Messages per unit of service (see bench/README.md)."""
        return self.msgs / self.units

    def fingerprint(self) -> tuple:
        """Everything that must repeat exactly for a seed on the sim."""
        return (self.events, self.msgs, self.units, self.attempted,
                self.failed, tuple(self.latencies))


def _network_facts(networks: Iterable[Any]) -> dict[str, float]:
    """Message counts from the networks' own metrics collectors."""
    sent: Counter[str] = Counter()
    delivered = dropped = 0
    for network in networks:
        metrics = network.metrics
        sent.update(metrics.sent_by_kind)
        delivered += sum(metrics.delivered_by_kind.values())
        dropped += sum(metrics.dropped_by_reason.values())
    return {
        "sends": sum(sent.values()),
        "delivered": delivered,
        "dropped": dropped,
        "alive_msgs": sent["Alive"],
        "accuse_msgs": sent["Accusation"],
    }


def _silence_violations(comm: Any, leader: int | None) -> list[str]:
    """Communication efficiency: only ``leader`` sent in the last window."""
    if comm.is_communication_efficient(leader):
        return []
    return [f"final-window senders {sorted(comm.senders)} are not just "
            f"the leader {leader}"]


def _steady_messages(cluster: Any) -> int:
    """Messages sent in the last ``CE_WINDOW`` simulated seconds."""
    end = cluster.sim.now
    return cluster.metrics.messages_between(end - CE_WINDOW, end - 1e-9)


class OmegaCensus:
    """Steady-state heartbeats at n=256 (the E18 shape)."""

    name = "omega_census"
    backend = "sim"

    def __init__(self, quick: bool) -> None:
        self.n, self.horizon = (48, 120.0) if quick else (256, 400.0)

    def build(self, seed: int) -> Any:
        # Source = the priority minimum and a timeout that clears the
        # worst pre-GST delay: nobody is falsely accused, so the run is
        # the census (kernel + broadcast + timer re-arming), not a race.
        return OmegaScenario(
            algorithm="comm-efficient", n=self.n, system="source", source=0,
            seed=seed, horizon=self.horizon, timings=LinkTimings(gst=5.0),
            config=OmegaConfig(initial_timeout=8.0), link_rng="src").build()

    def drive(self, cluster: Any) -> None:
        cluster.start_all()
        cluster.run_until(self.horizon)

    def judge(self, cluster: Any) -> dict[str, Any]:
        report = omega_checker.analyze_omega_run(cluster)
        comm = omega_checker.communication_report(cluster, CE_WINDOW)
        violations = list(report.verdict().violations)
        if len(comm.links) != self.n - 1:
            violations.append(
                f"{len(comm.links)} busy links in the final window, "
                f"expected exactly {self.n - 1}")
        violations += _silence_violations(comm, report.final_leader)
        settled = [cluster.process(pid).history[-1][0]
                   for pid in report.correct
                   if report.final_outputs[pid] == report.final_leader]
        return {
            "events": cluster.sim.events_executed,
            "latencies": sorted(settled),
            "msgs": _steady_messages(cluster),
            "units": CE_WINDOW,
            "attempted": self.n,
            "failed": self.n - len(settled),
            "violations": violations,
            "facts": {
                **_network_facts(cluster.networks),
                **cluster.sim.profile(),
                "leader_changes": report.total_changes,
                "stabilization_s": report.stabilization_time or 0.0,
            },
        }


class OmegaFailover:
    """Accusation race, then the elected leader crashes (4 seeds a pass)."""

    name = "omega_failover"
    backend = "sim"

    def __init__(self, quick: bool) -> None:
        if quick:
            self.n, self.sources, self.seeds = 12, (6, 7, 8), 2
            self.crash_at, self.horizon = 300.0, 500.0
        else:
            self.n, self.sources, self.seeds = 32, (16, 17, 18), 4
            self.crash_at, self.horizon = 400.0, 800.0

    def build(self, seed: int) -> Any:
        # Non-minimal source pids: the minimum-id processes are not
        # timely, so the accusation counters have to sort it out.
        return [{"cluster": OmegaScenario(
            algorithm="comm-efficient", n=self.n, system="multi-source",
            sources=self.sources, seed=seed * 16 + index,
            horizon=self.horizon, timings=LinkTimings(gst=5.0)).build()}
            for index in range(self.seeds)]

    def drive(self, built: Any) -> None:
        for run in built:
            cluster = run["cluster"]
            cluster.start_all()
            cluster.run_until(self.crash_at)
            run["before"] = omega_checker.analyze_omega_run(cluster)
            if run["before"].final_leader is not None:
                cluster.crash(run["before"].final_leader)
            cluster.run_until(self.horizon)

    def judge(self, built: Any) -> dict[str, Any]:
        out: dict[str, Any] = {
            "events": 0, "latencies": [], "msgs": 0,
            "units": CE_WINDOW * len(built), "attempted": 0, "failed": 0,
            "violations": []}
        facts: Counter[str] = Counter()
        stabilizations, reelections = [], []
        for run in built:
            cluster, before = run["cluster"], run["before"]
            after = omega_checker.analyze_omega_run(cluster)
            out["violations"] += [f"before the crash: {text}" for text
                                  in before.verdict().violations]
            out["violations"] += list(after.verdict().violations)
            out["violations"] += _silence_violations(
                omega_checker.communication_report(cluster, CE_WINDOW),
                after.final_leader)
            settled = [cluster.process(pid).history[-1][0] - self.crash_at
                       for pid in after.correct
                       if after.final_outputs[pid] == after.final_leader]
            out["events"] += cluster.sim.events_executed
            out["latencies"] += settled
            out["msgs"] += _steady_messages(cluster)
            out["attempted"] += len(after.correct)
            out["failed"] += len(after.correct) - len(settled)
            facts.update(_network_facts(cluster.networks))
            facts.update(cluster.sim.profile())
            facts["leader_changes"] += after.total_changes
            stabilizations.append(before.stabilization_time or 0.0)
            reelections.append((after.stabilization_time or 0.0)
                               - self.crash_at)
        out["latencies"].sort()
        out["facts"] = {
            **facts,
            "stabilization_s": statistics.median(stabilizations),
            "reelection_s": statistics.median(reelections),
        }
        return out


def _exactly_once(run: Any) -> list[str]:
    """Apply-level check on every up replica of every group.

    The applied command sequences must be duplicate-free and prefix
    consistent, and the most advanced replica must have applied every
    command the fleet saw commit.
    """
    violations = []
    fleet = run.fleet
    for index, group in enumerate(run.system.groups):
        applied = {pid: group.nodes[pid].agreement.applied_commands()
                   for pid in group.up_pids()}
        longest = max(applied.values(), key=len, default=[])
        for pid, commands in applied.items():
            if len(set(commands)) != len(commands):
                violations.append(
                    f"group {index}: replica {pid} applied a command twice")
            if commands != longest[:len(commands)]:
                violations.append(
                    f"group {index}: replica {pid}'s applied sequence "
                    f"diverges from the most advanced replica's")
        committed = {payload for payload in fleet.group_payloads[index]
                     if (payload[1], payload[2]) in fleet.commit_times}
        missing = len(committed - set(longest))
        if missing:
            violations.append(
                f"group {index}: {missing} committed commands were never "
                f"applied on the most advanced replica")
    return violations


def _judge_load(run: Any) -> dict[str, Any]:
    """Checkers and counters of one finished :class:`~repro.load.LoadRun`."""
    outcome = run.outcome()  # check_log per group
    system, fleet, spec = run.system, run.fleet, run.spec
    sizes: Counter[int] = Counter()
    for size, count in outcome.queue["batch_sizes"].items():
        sizes[int(size)] += count
    slots = sum(sizes.values())
    window_start = spec.start + min(20.0, spec.duration / 2)
    window_end = spec.start + spec.duration
    in_window = sum(1 for when in fleet.commit_times.values()
                    if window_start <= when < window_end)
    facts = {
        **_network_facts(system.networks),
        **system.sim.profile(),
        "leader_changes": sum(system.node(pid).omega.leader_changes
                              for pid in system.pids),
        "issued": outcome.issued,
        "retries": outcome.retries,
        "shed": outcome.queue["shed"],
        "client_shed": outcome.shed,
        "queue_max_depth": outcome.queue["max_queue_depth"],
        "cmds_per_slot": (sum(size * count for size, count in sizes.items())
                          / slots if slots else 0.0),
        "goodput_cps": in_window / (window_end - window_start),
        "commit_p99_s": outcome.latency_p99_s or 0.0,
    }
    trusted = {system.node(pid).omega.leader() for pid in system.up_pids()}
    omega = [] if len(trusted) == 1 and trusted <= set(system.up_pids()) \
        else [f"Omega modules end trusting {sorted(trusted)}, "
              f"not one common up process"]
    return {
        "events": system.sim.events_executed,
        "latencies": fleet.latencies(),
        "msgs": int(facts["sends"]),
        "units": float(outcome.committed),
        "attempted": outcome.issued,
        "failed": outcome.issued - outcome.committed,
        "violations": (list(outcome.verdict.violations)
                       + _exactly_once(run) + omega),
        "facts": facts,
    }


class LogOpen:
    """Open-loop Poisson load below the knee: the latency path."""

    name = "log_open"
    backend = "sim"

    def __init__(self, quick: bool) -> None:
        self.duration, self.horizon = (40.0, 70.0) if quick else (300.0, 340.0)

    def spec(self, seed: int) -> LoadSpec:
        return LoadSpec(
            n=5, groups=1, mode="open", arrival="poisson", rate=60.0,
            clients=2000, keys=512, start=5.0, duration=self.duration,
            horizon=self.horizon, batch_size=8, window=8, queue_limit=128,
            seed=seed)

    def build(self, seed: int) -> Any:
        return self.spec(seed).build()

    def drive(self, run: Any) -> None:
        run.system.start_all()
        run.system.run_until(run.spec.horizon)

    def judge(self, run: Any) -> dict[str, Any]:
        return _judge_load(run)

    def max_rate(self, seed: int) -> float:
        """Highest ladder rate with p95 <= 5 s and nothing uncommitted.

        Untimed; climbs 100 simulated seconds per step and stops at the
        first step that misses (a rate *ladder*, per the choosing-metrics
        guide, not a search).
        """
        best = 0.0
        for rate in (40.0, 80.0, 120.0, 160.0, 240.0, 320.0):
            outcome = replace(
                self.spec(seed), rate=rate,
                duration=min(100.0, self.duration), horizon=140.0).run()
            if (not outcome.done or outcome.latency_p95_s is None
                    or outcome.latency_p95_s > 5.0):
                break
            best = rate
        return best


class LogClosed(LogOpen):
    """Closed-loop saturation over 4 groups: batching, shedding, retries."""

    name = "log_closed"

    def __init__(self, quick: bool) -> None:
        self.clients, self.duration, self.horizon = (
            (256, 30.0, 70.0) if quick else (2048, 100.0, 160.0))

    def spec(self, seed: int) -> LoadSpec:
        return LoadSpec(
            n=5, mode="closed", groups=4, clients=self.clients,
            think_time=1.0, keys=256, duration=self.duration,
            horizon=self.horizon, seed=seed)


class LogRecovery:
    """Persisted log; the trusted leader crashes and recovers under load."""

    name = "log_recovery"
    backend = "sim"

    def __init__(self, quick: bool) -> None:
        if quick:
            self.seeds, self.duration, self.crash_at, self.down = (
                1, 200.0, 100.0, 15.0)
        else:
            self.seeds, self.duration, self.crash_at, self.down = (
                2, 600.0, 300.0, 30.0)

    def build(self, seed: int) -> Any:
        built = []
        for index in range(self.seeds):
            run = LoadSpec(
                persist=True, omega="crash-recovery", rate=3.0,
                duration=self.duration, horizon=self.duration + 100.0,
                clients=1000, keys=256,
                seed=seed * 16 + index).build()
            run.system.sim.call_at(
                self.crash_at, partial(self._crash_trusted, run.system))
            built.append(run)
        return built

    def _crash_trusted(self, system: Any) -> None:
        """Crash whichever pid most Omega modules trust; recover it later."""
        votes = Counter(system.node(pid).omega.leader()
                        for pid in system.up_pids())
        pid = votes.most_common(1)[0][0]
        system.crash(pid)
        system.sim.call_at(self.crash_at + self.down,
                           partial(system.recover, pid))

    def drive(self, built: Any) -> None:
        for run in built:
            run.system.start_all()
            run.system.run_until(run.spec.horizon)

    def judge(self, built: Any) -> dict[str, Any]:
        parts = [_judge_load(run) for run in built]
        facts: Counter[str] = Counter()
        for part in parts:
            facts.update(part["facts"])
        outages = []
        for run in built:
            after = [when for when in run.fleet.commit_times.values()
                     if when > self.crash_at]
            outages.append(min(after) - self.crash_at if after else 0.0)
        for key in ("cmds_per_slot", "goodput_cps", "commit_p99_s"):
            facts[key] = statistics.median(part["facts"][key]
                                           for part in parts)
        facts["queue_max_depth"] = max(part["facts"]["queue_max_depth"]
                                       for part in parts)
        facts["unavailable_s"] = statistics.median(outages)
        return {
            "events": sum(part["events"] for part in parts),
            "latencies": sorted(value for part in parts
                                for value in part["latencies"]),
            "msgs": sum(part["msgs"] for part in parts),
            "units": sum(part["units"] for part in parts),
            "attempted": sum(part["attempted"] for part in parts),
            "failed": sum(part["failed"] for part in parts),
            "violations": [text for part in parts
                           for text in part["violations"]],
            "facts": dict(facts),
        }


def run_pass(workload: Any, seed: int) -> PassResult:
    """One pass of a sim workload: build, timed drive, judge."""
    gc.collect()
    built = workload.build(seed)
    started = time.perf_counter()
    workload.drive(built)
    wall = time.perf_counter() - started
    judged = workload.judge(built)
    if judged["failed"] == 0 and judged["violations"]:
        # A checker violation fails every operation of the pass.
        judged["failed"] = judged["attempted"]
    return PassResult(wall_s=wall, **judged)


class LiveLog:
    """Replicated log on the live UDP backend, several clusters pooled.

    One cluster fixes its nodes' relative tick phases for its whole
    life, and commit latency is tick-paced, so a single cluster's
    percentiles depend on spawn-timing luck.  A pass therefore runs
    several fresh clusters (staggered so their boot bursts do not
    collide on a 2-core host) and pools their latencies; the submit
    period is incommensurate with the tick, so each cluster sweeps
    every submit phase.
    """

    name = "live_log"
    backend = "live"

    STAGGER = 1.0

    def __init__(self, quick: bool) -> None:
        if quick:
            self.commands, self.start, self.horizon = 12, 1.2, 3.5
        else:
            self.commands, self.start, self.horizon = 40, 1.7, 6.5

    def clusters_for(self, seconds: float) -> int:
        """How many staggered clusters finish within ``seconds``."""
        return max(2, 1 + int((seconds - self.horizon - 1.5)
                              / self.STAGGER))

    def run_batch(self, seed: int, clusters: int, tmp: Path) -> PassResult:
        """Run ``clusters`` fresh clusters concurrently and pool them."""
        from repro.live import ControlError, LiveCluster, LiveClusterSpec
        from repro.live.report import live_latencies

        outcomes: list[Any] = [None] * clusters

        def one(index: int) -> None:
            time.sleep(index * self.STAGGER)
            spec = LiveClusterSpec(
                n=3, log=True, persist=False, batch_size=1, tick=0.25,
                workload=self.commands, workload_period=0.097,
                workload_start=self.start, horizon=self.horizon,
                seed=seed * 16 + index)
            for attempt in (1, 2):
                cluster = LiveCluster(spec, tmp / f"c{index}-{attempt}")
                started = time.perf_counter()
                try:
                    outcome: Any = cluster.run()
                except ControlError as error:
                    outcome = error
                    if not cluster.submitted:
                        # A node never answered its first probe: the
                        # cluster picks ports by bind(0)+close ("racy by
                        # nature") and two sockets drew the same one.
                        # That is the harness's race, not the workload:
                        # retry once on fresh ports.
                        continue
                except Exception as error:  # noqa: BLE001 - thread
                    outcome = error        # boundary; reported below
                break
            outcomes[index] = (time.perf_counter() - started, outcome,
                               attempt - 1)

        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        threads = [threading.Thread(target=one, args=(index,))
                   for index in range(clusters)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)

        walls, latencies, violations = [], [], []
        facts: Counter[str] = Counter()
        attempted = committed = 0
        for index, (wall, outcome, retries) in enumerate(outcomes):
            walls.append(wall)
            facts["boot_retries"] += retries
            attempted += self.commands
            if isinstance(outcome, Exception):
                violations.append(f"cluster {index}: {outcome!r}")
                continue
            violations += [f"cluster {index}: {text}"
                           for text in outcome.verdict.violations]
            latencies += live_latencies(outcome.node_reports).values()
            committed += outcome.document["workload"]["committed"]
            for report in outcome.node_reports:
                facts["events"] += report["clock"]["events_executed"]
                for plane in report["planes"].values():
                    facts["sends"] += sum(plane["sent_by_kind"].values())
                    facts["packets_sent"] += sum(
                        plane["packets_by_kind"].values())
                    facts["packet_bytes"] += sum(
                        plane["packet_bytes_by_kind"].values())
                    facts["dropped"] += sum(
                        plane["dropped_by_reason"].values())
        facts["cpu_s"] = ((after.ru_utime + after.ru_stime)
                          - (before.ru_utime + before.ru_stime))
        facts["children_rss_mb"] = after.ru_maxrss / 1024
        return PassResult(
            wall_s=statistics.median(walls),
            events=int(facts["events"]),
            latencies=sorted(latencies),
            msgs=int(facts["sends"]),
            units=float(max(committed, 1)),
            attempted=attempted,
            failed=attempted if violations else attempted - committed,
            violations=violations,
            facts=dict(facts),
            setup_samples=[wall - self.horizon for wall in walls])


WORKLOADS = {cls.name: cls for cls in (
    OmegaCensus, OmegaFailover, LogOpen, LogClosed, LogRecovery, LiveLog)}


def make(name: str, quick: bool = False) -> Any:
    """The workload called ``name`` at full or ``--quick`` sizing."""
    return WORKLOADS[name](quick)
