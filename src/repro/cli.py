"""Command-line interface: run the paper's systems from a terminal.

Examples
--------
::

    python -m repro algorithms
    python -m repro omega --algorithm comm-efficient --system source \
        --n 6 --source 2 --horizon 150
    python -m repro omega --algorithm f-source --system f-source \
        --n 5 --source 2 --targets 0,4 --crash 30:0
    python -m repro omega --algorithm comm-efficient --system relay-tree \
        --n 6 --source 2 --relay
    python -m repro consensus --n 5 --omega comm-efficient --crash 2:0
    python -m repro log --n 5 --commands 50 --crash-leader-at 20
    python -m repro sweep --n 5 --horizon 400
    python -m repro soak --cases 50 --seed 7
    python -m repro soak --minutes 10
    python -m repro bench --jobs 4 --seed 7
    python -m repro bench --quick --jobs 2 --out bench-smoke.json
    python -m repro load --quick --jobs 2 --no-out
    python -m repro load --seed 7 --out BENCH_load.json
    python -m repro report scenario --algorithm comm-efficient --n 6
    python -m repro report bench --case-id e2/comm-efficient/n=8
    python -m repro report soak --seed 7 --case 12 --out report.json
    python -m repro live run --n 3 --horizon 3 --consensus
    python -m repro live run --n 3 --horizon 8 --log --persist --workload 10
    python -m repro live soak --quick
    python -m repro live soak --cases 1 --seed 7 --bench-out live-bench.json
    python -m repro live crossval --n 3 --horizon 3
    python -m repro live serve --port 8642

Every command prints human-readable tables (the same renderer the
benchmarks use) and exits non-zero if the run violated the property it
was asked to demonstrate.
"""

from __future__ import annotations

import argparse
import os
from typing import Sequence

from repro.consensus import (
    ConsensusSystem,
    WorkloadSpec,
    check_log,
    check_single_decree,
)
from repro.core import (
    OMEGA_ALGORITHMS,
    OmegaConfig,
    analyze_omega_run,
    communication_report,
    make_relayed,
    origins_between,
)
from repro.core.registry import algorithm_class
from repro.harness import OmegaScenario, render_table
from repro.harness.scenarios import SYSTEM_NAMES
from repro.sim import Cluster, FaultPlan, FaultPlanError, LinkTimings
from repro.sim.topology import (
    f_source_links,
    multi_source_links,
    relay_tree_links,
    source_links,
)

__all__ = ["main", "build_parser"]


def _parse_crashes(values: list[str]) -> tuple[tuple[float, ...], ...]:
    """Parse ``--crash TIME:PID[:RECOVER]`` specs.

    Malformed specs exit with a one-line message; a pid outside the
    target ensemble is caught at schedule time with a one-line
    :class:`~repro.sim.nemesis.FaultPlanError` naming the pid and n.
    """
    crashes = []
    for item in values:
        parts = item.split(":")
        try:
            if len(parts) == 2:
                crashes.append((float(parts[0]), int(parts[1])))
            elif len(parts) == 3:
                crashes.append((float(parts[0]), int(parts[1]),
                                float(parts[2])))
            else:
                raise ValueError(item)
        except ValueError:
            raise SystemExit(f"bad --crash {item!r}; expected TIME:PID "
                             f"or TIME:PID:RECOVER")
    return tuple(crashes)


def _parse_targets(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise SystemExit(f"bad --targets {text!r}; expected e.g. 0,3")


# ----------------------------------------------------------------------
# omega
# ----------------------------------------------------------------------

def cmd_omega(args: argparse.Namespace) -> int:
    timings = LinkTimings(gst=args.gst,
                          fair_outage_period=args.outage_period,
                          fair_outage_growth=args.outage_growth)
    config = OmegaConfig(eta=args.eta)
    crashes = _parse_crashes(args.crash)

    if args.relay or args.system == "relay-tree":
        cluster = _run_relayed(args, timings, config, crashes)
        relayed = True
    else:
        scenario = OmegaScenario(
            algorithm=args.algorithm, n=args.n, system=args.system,
            source=args.source, targets=_parse_targets(args.targets),
            f=args.f, crashes=crashes, faults=args.faults, seed=args.seed,
            horizon=args.horizon, timings=timings, config=config)
        try:
            cluster = scenario.run().cluster
        except FaultPlanError as error:
            raise SystemExit(f"bad fault plan: {error}")
        relayed = False

    report = analyze_omega_run(cluster)
    comm = communication_report(cluster, window=args.ce_window)
    rows = [[pid, report.final_outputs[pid],
             cluster.process(pid).leader_changes]
            for pid in cluster.up_pids()]
    print(render_table(["process", "trusts", "changes"], rows,
                       title=f"omega run: {args.algorithm} on {args.system} "
                             f"(n={args.n}, seed={args.seed})"))
    print(f"\nomega holds:        {report.omega_holds}")
    print(f"final leader:       {report.final_leader}")
    print(f"stabilization time: {report.stabilization_time}")
    print(f"senders (last {args.ce_window:g}s): {sorted(comm.senders)}")
    print(f"busy links:         {len(comm.links)}")
    if relayed:
        end = cluster.sim.now
        origins = sorted(origins_between(cluster, end - args.ce_window, end))
        print(f"originators:        {origins}")
    else:
        print(f"comm-efficient:     "
              f"{comm.is_communication_efficient(report.final_leader)}")
    return 0 if report.omega_holds else 1


def _run_relayed(args: argparse.Namespace, timings: LinkTimings,
                 config: OmegaConfig, crashes) -> Cluster:  # noqa: ANN001
    cls = make_relayed(algorithm_class(args.algorithm))
    if args.system == "relay-tree":
        links = relay_tree_links(args.n, args.source, timings)
    elif args.system == "source":
        links = source_links(args.n, args.source, timings)
    elif args.system == "multi-source":
        links = multi_source_links(args.n, (args.source,), timings)
    elif args.system == "f-source":
        links = f_source_links(args.n, args.source,
                               _parse_targets(args.targets), timings)
    else:
        raise SystemExit(f"--relay does not support system {args.system!r}")
    if args.algorithm == "f-source":
        raise SystemExit("--relay currently supports the heartbeat "
                         "algorithms (all-timely/source/comm-efficient)")
    cluster = Cluster.build(
        args.n, lambda pid, sim, net: cls(pid, sim, net, config),
        links=links, seed=args.seed)
    if crashes:
        FaultPlan.crashes_at(*crashes).schedule(cluster)
    cluster.start_all()
    cluster.run_until(args.horizon)
    return cluster


# ----------------------------------------------------------------------
# consensus / log
# ----------------------------------------------------------------------

def cmd_consensus(args: argparse.Namespace) -> int:
    timings = LinkTimings(gst=args.gst, fair_loss=args.loss)
    system = ConsensusSystem.build_single_decree(
        args.n, lambda: source_links(args.n, args.source, timings),
        proposals=[f"value-from-{pid}" for pid in range(args.n)],
        omega_name=args.omega, f=args.f, seed=args.seed,
        persist=args.persist)
    crashes = _parse_crashes(args.crash)
    if crashes:
        FaultPlan.crashes_at(*crashes).schedule(system)
    system.start_all()
    system.run_until(args.horizon)
    report = check_single_decree(system)
    rows = [[pid, report.decided.get(pid, "-"),
             report.decision_times.get(pid)]
            for pid in system.pids]
    print(render_table(["process", "decision", "decided at (s)"], rows,
                       title=f"single-decree consensus (n={args.n}, "
                             f"omega={args.omega}, seed={args.seed})"))
    print(f"\nagreement: {report.agreement}   validity: {report.validity}")
    print(f"all correct decided: {report.all_correct_decided}")
    ok = report.agreement and report.validity and report.all_correct_decided
    return 0 if ok else 1


def cmd_log(args: argparse.Namespace) -> int:
    timings = LinkTimings(gst=args.gst, fair_loss=args.loss)
    sources = (args.source, (args.source + 1) % args.n)
    system = ConsensusSystem.build_replicated_log(
        args.n, lambda: multi_source_links(args.n, sources, timings),
        omega_name=args.omega, seed=args.seed, persist=args.persist)
    workload = WorkloadSpec(count=args.commands,
                            period=args.period, start=5.0).build(system)
    system.start_all()
    if args.crash_leader_at is not None:
        system.run_until(args.crash_leader_at)
        leader = system.node(system.up_pids()[0]).omega.leader()
        print(f"crashing leader {leader} at t={args.crash_leader_at}")
        system.crash(leader)
    system.run_until(args.horizon)
    report = check_log(system, workload.submitted)
    rows = [[pid, report.committed_by_pid[pid],
             "up" if pid in report.correct else "crashed"]
            for pid in system.pids]
    print(render_table(["replica", "committed entries", "state"], rows,
                       title=f"replicated log (n={args.n}, "
                             f"{args.commands} commands, seed={args.seed})"))
    print(f"\nagreement: {report.agreement}   validity: {report.validity}")
    print(f"all commands committed: {workload.done()}")
    ok = report.agreement and report.validity and workload.done()
    return 0 if ok else 1


# ----------------------------------------------------------------------
# sweep / algorithms
# ----------------------------------------------------------------------

def cmd_sweep(args: argparse.Namespace) -> int:
    timings = LinkTimings(gst=args.gst, fair_outage_period=15.0,
                          fair_outage_growth=4.0)
    quiet_tail = args.horizon * 0.3
    systems = (("all links ◇timely", "all-et", ()),
               ("one ◇(n-1)-source", "source", ()),
               ("one ◇f-source (f=2)", "f-source", (0, args.n - 1)))
    algorithms = tuple(OMEGA_ALGORITHMS)
    rows = []
    for label, system, targets in systems:
        row: list[object] = [label]
        for algorithm in algorithms:
            outcome = OmegaScenario(
                algorithm=algorithm, n=args.n, system=system,
                source=args.n // 2, targets=targets, f=2, seed=args.seed,
                horizon=args.horizon, ce_window=40.0,
                timings=timings).run()
            stable = (outcome.stabilized
                      and outcome.report.stabilization_time is not None
                      and outcome.report.stabilization_time
                      <= args.horizon - quiet_tail)
            if not stable:
                row.append("FAILS")
            elif outcome.communication_efficient:
                row.append("holds + CE")
            else:
                row.append("holds")
        rows.append(row)
    print(render_table(["system \\ algorithm", *algorithms], rows,
                       title="synchrony sweep: assumptions vs guarantees"))
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.harness.fuzz import fuzz

    results = fuzz(args.cases, fuzz_seed=args.seed,
                   stop_on_failure=not args.keep_going)
    failures = [result for result in results if not result.ok]
    for result in results:
        status = "ok  " if result.ok else "FAIL"
        print(f"{status} {result.case.describe()} -- {result.detail}")
    print(f"\n{len(results) - len(failures)}/{len(results)} cases passed")
    return 1 if failures else 0


def cmd_soak(args: argparse.Namespace) -> int:
    from repro.harness.soak import (
        campaign_digest,
        outcome_digest,
        recovery_control_case,
        soak,
    )

    if args.minutes is not None and args.case:
        raise SystemExit("--case requires --cases mode (a fixed campaign)")
    if args.recovery and args.degraded:
        raise SystemExit("--recovery and --degraded are exclusive campaigns")
    cases = None if args.minutes is not None else args.cases
    results = soak(cases=cases, minutes=args.minutes, soak_seed=args.seed,
                   stop_on_failure=args.stop_on_failure,
                   only=tuple(args.case), recovery=args.recovery,
                   degraded=args.degraded)
    if args.case and not results:
        raise SystemExit(f"--case indices {args.case} outside "
                         f"--cases {args.cases}")
    failures = []
    for result in results:
        mark = {"ok": "ok  ", "fail": "FAIL",
                "model-violation": "OOM "}[result.status]
        print(f"{mark} {result.case.describe()} -- {result.detail} "
              f"outcome={result.outcome}")
        if result.status == "fail":
            failures.append(result)
    digest = campaign_digest([result.case for result in results])
    mode = ("recovery campaigns" if args.recovery
            else "degraded campaigns" if args.degraded else "campaigns")
    print(f"\n{len(results) - len(failures)}/{len(results)} {mode} ok "
          f"(seed={args.seed})")
    print(f"campaign digest: {digest}")
    print(f"outcome digest: {outcome_digest(results)}")
    if args.recovery:
        # Control pair: the same crash+recover schedule violates
        # agreement without stable storage and holds with it.
        volatile_ok, volatile_detail = recovery_control_case(persist=False)
        durable_ok, durable_detail = recovery_control_case(persist=True)
        print("\nrecovery control case (why stable storage matters):")
        print(f"  persist=False: "
              f"{'agreement held' if volatile_ok else 'AGREEMENT VIOLATED'}"
              f" -- {volatile_detail}")
        print(f"  persist=True:  "
              f"{'agreement held' if durable_ok else 'AGREEMENT VIOLATED'}"
              f" -- {durable_detail}")
        if volatile_ok or not durable_ok:
            print("  control case did not behave as expected")
            return 1
    if failures:
        print("\nrepro lines:")
        for result in failures:
            flag = ("--recovery " if args.recovery
                    else "--degraded " if args.degraded else "")
            print(f"  python -m repro soak --seed {args.seed} "
                  f"{flag}"
                  f"--case {result.case.index}   # {result.case.describe()}")
    return 1 if failures else 0


def cmd_bench(args: argparse.Namespace) -> int:
    import time

    from repro.harness import bench

    experiments = (tuple(part for part in args.experiments.split(","))
                   if args.experiments else bench.EXPERIMENTS)
    try:
        cases = bench.default_suite(seed=args.seed, experiments=experiments,
                                    quick=args.quick, full=args.full)
    except ValueError as error:
        raise SystemExit(str(error))
    if args.filter:
        import fnmatch

        cases = [case for case in cases
                 if fnmatch.fnmatchcase(case.case_id, args.filter)]
        if not cases:
            raise SystemExit(
                f"--filter {args.filter!r} matches no case in this suite")
    jobs = args.jobs if args.jobs else (os.cpu_count() or 1)
    started = time.perf_counter()
    results = bench.run_suite(cases, jobs=jobs)
    wall = time.perf_counter() - started
    report = bench.build_report(results, seed=args.seed, jobs=jobs,
                                suite="quick" if args.quick else "e1-e4",
                                wall_s=wall)

    rows = [[r["case_id"], "ok" if r["ok"] else "FAIL",
             f"{r['timing']['wall_s']:.2f}",
             f"{r['sim_time_s']:g}",
             f"{r['timing']['events_per_s']:,.0f}"]
            for r in results]
    print(render_table(
        ["case", "verdict", "wall (s)", "sim (s)", "events/s"], rows,
        title=f"bench suite ({len(results)} cases, jobs={jobs}, "
              f"seed={args.seed})"))
    summary = report["summary"]
    print(f"\n{summary['ok']}/{summary['cases']} cases ok   "
          f"events={summary['events']:,}   "
          f"sim={summary['sim_time_s']:,.0f}s   wall={wall:.1f}s   "
          f"({summary['events'] / wall:,.0f} events/s aggregate)")
    if not args.no_out:
        out = args.out or bench.default_output_name()
        with open(out, "w") as handle:
            handle.write(bench.report_to_json(report))
        print(f"report written to {out}")
    failed = [r["case_id"] for r in results if not r["ok"]]
    if failed:
        print("\nverdict regressions:")
        for case_id in failed:
            print(f"  FAIL {case_id}")
    drifted = args.compare and _print_compare(report, args.compare)
    return 1 if failed or drifted else 0


def _print_compare(report: dict, compare_path: str) -> bool:
    """Diff ``report`` against an on-disk one; True iff results drifted.

    Prints the events/s drift table, a commit-latency percentile drift
    table when either report carries E19 ``latency_s`` blocks, and the
    added/removed/changed case lists (shared by ``bench --compare`` and
    ``load --compare``).
    """
    import json

    from repro.harness import bench

    try:
        with open(compare_path) as handle:
            old = json.load(handle)
    except (OSError, ValueError) as error:
        raise SystemExit(f"cannot read {compare_path}: {error}")
    diff = bench.compare_reports(old, report)
    drift_rows = [
        [row["case_id"],
         f"{row['old_events_per_s']:,.0f}" if row["old_events_per_s"] else "-",
         f"{row['new_events_per_s']:,.0f}" if row["new_events_per_s"] else "-",
         f"{(row['ratio'] - 1) * 100:+.1f}%" if row["ratio"] else "-"]
        for row in diff["throughput"]
    ]
    print()
    print(render_table(
        ["case", "old events/s", "new events/s", "drift"], drift_rows,
        title=f"throughput vs {compare_path}"))
    if diff["latency"]:
        latency_rows = [
            [row["case_id"], row["quantile"],
             f"{row['old_s']:.3f}" if row["old_s"] is not None else "-",
             f"{row['new_s']:.3f}" if row["new_s"] is not None else "-",
             f"{(row['ratio'] - 1) * 100:+.1f}%" if row["ratio"] else "-"]
            for row in diff["latency"]
        ]
        print()
        print(render_table(
            ["case", "quantile", "old (s)", "new (s)", "drift"],
            latency_rows, title=f"commit latency vs {compare_path}"))
    for label in ("added", "removed"):
        if diff[label]:
            print(f"{label} cases: {', '.join(diff[label])}")
    if diff["changed"]:
        print("\ndeterministic results changed (verdict/result drift):")
        for case_id in diff["changed"]:
            print(f"  CHANGED {case_id}")
        return True
    print("deterministic results identical for all common cases")
    return False


def cmd_load(args: argparse.Namespace) -> int:
    import time

    from repro.harness import bench

    cases = bench.default_suite(seed=args.seed, experiments=("e19",),
                                quick=args.quick)
    if args.filter:
        import fnmatch

        cases = [case for case in cases
                 if fnmatch.fnmatchcase(case.case_id, args.filter)]
        if not cases:
            raise SystemExit(
                f"--filter {args.filter!r} matches no case in this suite")
    jobs = args.jobs if args.jobs else (os.cpu_count() or 1)
    started = time.perf_counter()
    results = bench.run_suite(cases, jobs=jobs)
    wall = time.perf_counter() - started
    report = bench.build_report(results, seed=args.seed, jobs=jobs,
                                suite="load-quick" if args.quick else "load",
                                wall_s=wall)

    def _seconds(value: object) -> str:
        return f"{value:.3f}" if isinstance(value, (int, float)) else "-"

    rows = []
    for result in results:
        details = result["result"]
        latency = details.get("latency_s") or {}
        committed = details.get("committed")
        if committed is None:  # batching rows nest the measured side
            committed = (details.get("batched") or {}).get("committed")
        throughput = details.get("throughput_cps")
        rows.append([
            result["case_id"], "ok" if result["ok"] else "FAIL",
            committed if committed is not None else "-",
            f"{throughput:.1f}" if throughput else "-",
            _seconds(latency.get("p50")), _seconds(latency.get("p95")),
            _seconds(latency.get("p99")),
            f"{result['timing']['wall_s']:.2f}",
        ])
    print(render_table(
        ["case", "verdict", "committed", "commits/s", "p50 (s)",
         "p95 (s)", "p99 (s)", "wall (s)"], rows,
        title=f"load suite E19 ({len(results)} cases, jobs={jobs}, "
              f"seed={args.seed})"))
    summary = report["summary"]
    print(f"\n{summary['ok']}/{summary['cases']} cases ok   "
          f"events={summary['events']:,}   "
          f"sim={summary['sim_time_s']:,.0f}s   wall={wall:.1f}s")
    if not args.no_out:
        out = args.out or bench.default_output_name()
        with open(out, "w") as handle:
            handle.write(bench.report_to_json(report))
        print(f"report written to {out}")
    failed = [result["case_id"] for result in results if not result["ok"]]
    if failed:
        print("\nverdict regressions:")
        for case_id in failed:
            print(f"  FAIL {case_id}")
    drifted = args.compare and _print_compare(report, args.compare)
    return 1 if failed or drifted else 0


def cmd_report(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.harness import bench
    from repro.obs import (
        bench_case_report,
        scenario_report,
        soak_case_report,
        validate_report,
    )

    started = time.perf_counter()
    if args.target == "scenario":
        timings = LinkTimings(gst=args.gst)
        scenario = OmegaScenario(
            algorithm=args.algorithm, n=args.n, system=args.system,
            source=args.source, targets=_parse_targets(args.targets),
            f=args.f, seed=args.seed, horizon=args.horizon,
            ce_window=args.ce_window, timings=timings)
        report = scenario_report(scenario)
    elif args.target == "bench":
        cases = bench.default_suite(seed=args.seed, quick=args.quick,
                                    full=args.full)
        by_id = {case.case_id: case for case in cases}
        if args.case_id not in by_id:
            listing = "\n  ".join(sorted(by_id))
            raise SystemExit(f"unknown bench case {args.case_id!r}; "
                             f"suite cases:\n  {listing}")
        report = bench_case_report(by_id[args.case_id])
    else:  # soak
        from repro.harness.soak import (
            sample_degraded_case,
            sample_recovery_case,
            sample_soak_case,
        )

        if args.case < 0:
            raise SystemExit(f"--case must be >= 0, got {args.case}")
        if args.recovery and args.degraded:
            raise SystemExit("--recovery and --degraded are exclusive")
        sample = (sample_recovery_case if args.recovery
                  else sample_degraded_case if args.degraded
                  else sample_soak_case)
        report = soak_case_report(sample(args.seed, args.case))
    wall = time.perf_counter() - started

    document = report.to_json()
    problems = validate_report(document)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(report.render_text())
    print(f"\nwall time: {wall:.2f}s"
          + (f"   report written to {args.out}" if args.out else ""))
    if problems:
        print("\nschema problems:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    return 0


def cmd_qos(args: argparse.Namespace) -> int:
    from repro.core import measure_qos

    timings = LinkTimings(gst=args.gst)
    rows = []
    for algorithm in OMEGA_ALGORITHMS:
        if algorithm == "f-source":
            scenario = OmegaScenario(
                algorithm=algorithm, n=args.n, system="f-source",
                source=args.n // 2, targets=(0, args.n - 1), f=2,
                seed=args.seed, horizon=args.horizon, timings=timings,
                trace=True)
            crash = False
        else:
            # all-timely and packet-efficient need every link ◇timely.
            system = ("all-et" if algorithm in ("all-timely",
                                                "packet-efficient")
                      else "multi-source")
            scenario = OmegaScenario(
                algorithm=algorithm, n=args.n, system=system,
                sources=(1, 2), seed=args.seed, horizon=args.horizon,
                timings=timings, trace=True)
            crash = True
        cluster = scenario.build()
        cluster.start_all()
        if crash:
            cluster.run_until(args.horizon / 3)
            leader = analyze_omega_run(cluster).final_leader
            if leader is not None:
                cluster.crash(leader)
        cluster.run_until(args.horizon)
        qos = measure_qos(cluster)
        rows.append([algorithm, "yes" if crash else "no",
                     qos.agreement_fraction, qos.good_fraction,
                     qos.worst_detection_time, qos.total_changes])
    print(render_table(
        ["algorithm", "leader crashed", "agreement frac", "good frac",
         "worst detection (s)", "flaps"],
        rows, title=f"Omega QoS (n={args.n}, horizon={args.horizon:g}s, "
                    f"seed={args.seed})"))
    return 0


def cmd_live_run(args: argparse.Namespace) -> int:
    import json
    import tempfile

    from repro.live import ControlError, LiveCluster, LiveClusterSpec
    from repro.obs import render_report_text, validate_report

    try:
        spec = LiveClusterSpec(
            n=args.n, algorithm=args.algorithm, eta=args.eta,
            initial_timeout=args.initial_timeout, horizon=args.horizon,
            seed=args.seed, consensus=args.consensus, faults=args.faults,
            log=args.log, persist=args.persist, workload=args.workload)
    except ValueError as error:
        raise SystemExit(str(error))
    rundir = args.rundir or tempfile.mkdtemp(prefix="repro-live-")
    try:
        outcome = LiveCluster(spec, rundir).run()
    except ControlError as error:
        print(f"live run failed: {error}")
        print(f"node logs in {rundir}")
        return 1
    document = outcome.document
    print(render_report_text(document))
    workload = document.get("workload")
    if workload:
        latency = workload.get("latency_s") or {}
        quantiles = "  ".join(
            f"{key}={latency[key]:.3f}s" for key in ("p50", "p95", "p99")
            if latency.get(key) is not None)
        print(f"\nworkload: {workload['committed']}"
              f"/{workload['submitted']} committed"
              + (f"  {quantiles}" if quantiles else ""))
    print(f"\nnode logs and reports in {rundir}")
    problems = validate_report(document)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.out}")
    if problems:
        print("\nschema problems:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    return 0 if outcome.verdict.ok else 1


def cmd_live_soak(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.harness.soak import campaign_digest
    from repro.live.chaos import (
        live_bench_cases,
        live_soak,
        sample_live_case,
    )

    if args.quick:
        cases = args.cases if args.cases is not None else 4
    else:
        cases = args.cases if args.cases is not None else 6
    if cases < 1:
        raise SystemExit(f"--cases must be >= 1, got {cases}")
    if args.horizon < 7.0:
        raise SystemExit(f"--horizon must be >= 7.0 so sampled fault plans "
                         f"fit and heal before the deadline, got {args.horizon}")
    sampled = [sample_live_case(args.seed, index, horizon=args.horizon)
               for index in range(cases)]
    started = time.monotonic()
    results = live_soak(cases=cases, soak_seed=args.seed,
                        outdir=(args.outdir or None),
                        only=tuple(args.case), horizon=args.horizon,
                        stop_on_failure=args.stop_on_failure)
    wall = time.monotonic() - started
    if args.case and not results:
        raise SystemExit(f"--case indices {args.case} outside "
                         f"--cases {cases}")
    marks = {"ok": "ok  ", "fail": "FAIL", "model-violation": "OOM ",
             "timeout": "TIME"}
    failures = 0
    for result in results:
        print(f"{marks[result.status]} {result.case.describe()} "
              f"-- {result.detail}")
        if not result.ok:
            failures += 1
    digest = campaign_digest(sampled)
    print(f"\n{len(results) - failures}/{len(results)} live campaigns ok "
          f"(seed={args.seed}, wall={wall:.1f}s)")
    print(f"campaign digest: {digest}")
    if args.bench_out or args.compare:
        from repro.harness.bench import build_report, report_to_json
        report = build_report(live_bench_cases(results), seed=args.seed,
                              jobs=1, suite="live-soak", wall_s=wall)
        if args.bench_out:
            with open(args.bench_out, "w") as handle:
                handle.write(report_to_json(report))
            print(f"bench report written to {args.bench_out}")
        if args.compare:
            _print_compare(report, args.compare)
    return 1 if failures else 0


def cmd_live_node(args: argparse.Namespace) -> int:
    import json

    from repro.live.node import NodeSpec, run_node

    with open(args.spec) as handle:
        run_node(NodeSpec.from_json(json.load(handle)))
    return 0


def cmd_live_crossval(args: argparse.Namespace) -> int:
    import json
    import tempfile

    from repro.live import cross_validate

    rundir = args.rundir or tempfile.mkdtemp(prefix="repro-crossval-")
    result = cross_validate(
        rundir, algorithm=args.algorithm, n=args.n, seed=args.seed,
        horizon=args.horizon, eta=args.eta,
        initial_timeout=args.initial_timeout, consensus=args.consensus,
        faults=args.faults)
    print(json.dumps(result.to_json(), indent=2))
    if result.matches:
        print(f"\nbackends agree (sim and live both "
              f"{'pass' if result.live_verdict.ok else 'fail'})")
        return 0
    print("\nbackends disagree:")
    for mismatch in result.mismatches:
        print(f"  {mismatch}")
    return 1


def cmd_live_serve(args: argparse.Namespace) -> int:
    from repro.live.control import serve

    server = serve(args.host, args.port)
    host, port = server.server_address[:2]
    print(f"live control plane on http://{host}:{port}")
    print("  POST /clusters            {\"n\": 3, \"horizon\": 3.0, ...}")
    print("  GET  /clusters/<id>       status")
    print("  POST /clusters/<id>/faults  crash/pause/resume/degrade")
    print("  GET  /clusters/<id>/report  merged repro-report/v1")
    print("  DELETE /clusters/<id>     kill and forget")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


def cmd_algorithms(args: argparse.Namespace) -> int:
    rows = [[name, cls.__name__, (cls.__doc__ or "").strip().splitlines()[0]]
            for name, cls in OMEGA_ALGORITHMS.items()]
    print(render_table(["name", "class", "summary"], rows,
                       title="Omega algorithms"))
    print("\nsystems: " + ", ".join(SYSTEM_NAMES) + ", relay-tree (via --relay)")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Communication-efficient leader election and consensus "
                    "with limited link synchrony (PODC 2004) — simulator CLI.")
    sub = parser.add_subparsers(dest="command", required=True)

    omega = sub.add_parser("omega", help="run one leader-election scenario")
    omega.add_argument("--algorithm", default="comm-efficient",
                       choices=sorted(OMEGA_ALGORITHMS))
    omega.add_argument("--system", default="source",
                       choices=sorted((*SYSTEM_NAMES, "relay-tree")))
    omega.add_argument("--n", type=int, default=5)
    omega.add_argument("--source", type=int, default=0)
    omega.add_argument("--targets", default="")
    omega.add_argument("--f", type=int, default=None)
    omega.add_argument("--seed", type=int, default=0)
    omega.add_argument("--horizon", type=float, default=150.0)
    omega.add_argument("--gst", type=float, default=5.0)
    omega.add_argument("--eta", type=float, default=0.5)
    omega.add_argument("--ce-window", type=float, default=20.0)
    omega.add_argument("--outage-period", type=float, default=0.0)
    omega.add_argument("--outage-growth", type=float, default=0.0)
    omega.add_argument("--crash", action="append", default=[],
                       metavar="TIME:PID[:RECOVER]")
    omega.add_argument("--faults", default="", metavar="PLAN",
                       help="nemesis FaultPlan repro string, e.g. "
                            "'pause(t=20.0,pid=1,dur=5.0)'")
    omega.add_argument("--relay", action="store_true",
                       help="run the relayed (timely-path) variant")
    omega.set_defaults(handler=cmd_omega)

    consensus = sub.add_parser("consensus", help="run single-decree consensus")
    consensus.add_argument("--n", type=int, default=5)
    consensus.add_argument("--omega", default="comm-efficient",
                           choices=sorted(OMEGA_ALGORITHMS))
    consensus.add_argument("--source", type=int, default=0)
    consensus.add_argument("--f", type=int, default=None)
    consensus.add_argument("--seed", type=int, default=0)
    consensus.add_argument("--loss", type=float, default=0.3)
    consensus.add_argument("--gst", type=float, default=5.0)
    consensus.add_argument("--horizon", type=float, default=200.0)
    consensus.add_argument("--crash", action="append", default=[],
                           metavar="TIME:PID[:RECOVER]")
    consensus.add_argument("--persist", action="store_true",
                           help="acceptor state on stable storage "
                                "(survives crash+recover bounces)")
    consensus.set_defaults(handler=cmd_consensus)

    log = sub.add_parser("log", help="run the replicated log")
    log.add_argument("--n", type=int, default=5)
    log.add_argument("--omega", default="comm-efficient",
                     choices=sorted(OMEGA_ALGORITHMS))
    log.add_argument("--source", type=int, default=0)
    log.add_argument("--seed", type=int, default=0)
    log.add_argument("--commands", type=int, default=30)
    log.add_argument("--period", type=float, default=0.5)
    log.add_argument("--loss", type=float, default=0.3)
    log.add_argument("--gst", type=float, default=5.0)
    log.add_argument("--horizon", type=float, default=300.0)
    log.add_argument("--crash-leader-at", type=float, default=None)
    log.add_argument("--persist", action="store_true",
                     help="replica state on stable storage "
                          "(survives crash+recover bounces)")
    log.set_defaults(handler=cmd_log)

    sweep = sub.add_parser("sweep",
                           help="algorithms × systems verdict matrix")
    sweep.add_argument("--n", type=int, default=5)
    sweep.add_argument("--seed", type=int, default=3)
    sweep.add_argument("--horizon", type=float, default=500.0)
    sweep.add_argument("--gst", type=float, default=5.0)
    sweep.set_defaults(handler=cmd_sweep)

    fuzz_cmd = sub.add_parser(
        "fuzz", help="run random in-model scenarios and check invariants")
    fuzz_cmd.add_argument("--cases", type=int, default=25)
    fuzz_cmd.add_argument("--seed", type=int, default=0)
    fuzz_cmd.add_argument("--keep-going", action="store_true",
                          help="do not stop at the first failure")
    fuzz_cmd.set_defaults(handler=cmd_fuzz)

    soak_cmd = sub.add_parser(
        "soak", help="long randomized nemesis campaigns over all "
                     "algorithms and stacks")
    soak_cmd.add_argument("--cases", type=int, default=50,
                          help="number of campaigns (ignored with --minutes)")
    soak_cmd.add_argument("--minutes", type=float, default=None,
                          help="wall-clock budget instead of a fixed count")
    soak_cmd.add_argument("--seed", type=int, default=0)
    soak_cmd.add_argument("--case", action="append", type=int, default=[],
                          metavar="INDEX",
                          help="replay only this case index (repeatable)")
    soak_cmd.add_argument("--degraded", action="store_true",
                          help="hostile-link campaign: every Omega under "
                               "sustained loss/delay storms, flapping and "
                               "duplication, half adaptive_qos")
    soak_cmd.add_argument("--recovery", action="store_true",
                          help="crash-recovery campaign: persisted stacks, "
                               "crash+recover fault plans, control case")
    soak_cmd.add_argument("--stop-on-failure", action="store_true",
                          help="stop at the first failing campaign")
    soak_cmd.set_defaults(handler=cmd_soak)

    bench_cmd = sub.add_parser(
        "bench", help="parallel E1-E4 experiment suite with a "
                      "machine-readable BENCH_<date>.json report")
    bench_cmd.add_argument("--jobs", type=int, default=0,
                           help="worker processes (default: all CPU cores); "
                                "results are identical at any level")
    bench_cmd.add_argument("--seed", type=int, default=7)
    bench_cmd.add_argument("--quick", action="store_true",
                           help="CI-smoke sizing (small n, short horizons)")
    bench_cmd.add_argument("--full", action="store_true",
                           help="include the heaviest rows (E3 at n=128)")
    bench_cmd.add_argument("--experiments", default="",
                           metavar="E1,E2,...",
                           help="comma-separated subset of "
                                "e1,e2,e3,e4,e17,e18,e19")
    bench_cmd.add_argument("--filter", default="", metavar="GLOB",
                           help="run only cases whose case_id matches this "
                                "glob (e.g. 'e18/*' or '*/n=32')")
    bench_cmd.add_argument("--compare", default="", metavar="OLD.json",
                           help="diff the fresh report against a previous "
                                "one: print per-case events/s drift, exit "
                                "nonzero if any deterministic result "
                                "changed")
    bench_cmd.add_argument("--out", default="",
                           help="report path (default BENCH_<date>.json)")
    bench_cmd.add_argument("--no-out", action="store_true",
                           help="print tables only, write no JSON")
    bench_cmd.set_defaults(handler=cmd_bench)

    load_cmd = sub.add_parser(
        "load", help="client-fleet load suite (E19): committed-command "
                     "throughput and p50/p95/p99 commit latency under "
                     "batching, pipelining, sharding and compaction")
    load_cmd.add_argument("--jobs", type=int, default=0,
                          help="worker processes (default: all CPU cores); "
                               "results are identical at any level")
    load_cmd.add_argument("--seed", type=int, default=7)
    load_cmd.add_argument("--quick", action="store_true",
                          help="CI-smoke sizing (small fleets, short windows)")
    load_cmd.add_argument("--filter", default="", metavar="GLOB",
                          help="run only cases whose case_id matches this "
                               "glob (e.g. 'e19/sharded/*')")
    load_cmd.add_argument("--compare", default="", metavar="OLD.json",
                          help="diff against a previous report: events/s and "
                               "commit-latency percentile drift, exit "
                               "nonzero if any deterministic result changed")
    load_cmd.add_argument("--out", default="",
                          help="report path (default BENCH_<date>.json)")
    load_cmd.add_argument("--no-out", action="store_true",
                          help="print tables only, write no JSON")
    load_cmd.set_defaults(handler=cmd_load)

    report = sub.add_parser(
        "report", help="observability report (repro-report/v1 JSON + text) "
                       "for a scenario, bench case, or soak case")
    report_sub = report.add_subparsers(dest="target", required=True)

    rscen = report_sub.add_parser(
        "scenario", help="run one leader-election scenario and report it")
    rscen.add_argument("--algorithm", default="comm-efficient",
                       choices=sorted(OMEGA_ALGORITHMS))
    rscen.add_argument("--system", default="source",
                       choices=sorted(SYSTEM_NAMES))
    rscen.add_argument("--n", type=int, default=5)
    rscen.add_argument("--source", type=int, default=0)
    rscen.add_argument("--targets", default="")
    rscen.add_argument("--f", type=int, default=None)
    rscen.add_argument("--seed", type=int, default=0)
    rscen.add_argument("--horizon", type=float, default=150.0)
    rscen.add_argument("--gst", type=float, default=5.0)
    rscen.add_argument("--ce-window", type=float, default=20.0)
    rscen.add_argument("--out", default="", help="also write JSON here")
    rscen.set_defaults(handler=cmd_report)

    rbench = report_sub.add_parser(
        "bench", help="run one bench-suite case and report it")
    rbench.add_argument("--case-id", required=True,
                        metavar="ID", help="e.g. e2/comm-efficient/n=8")
    rbench.add_argument("--seed", type=int, default=7)
    rbench.add_argument("--quick", action="store_true")
    rbench.add_argument("--full", action="store_true")
    rbench.add_argument("--out", default="", help="also write JSON here")
    rbench.set_defaults(handler=cmd_report)

    rsoak = report_sub.add_parser(
        "soak", help="replay one soak campaign and report it")
    rsoak.add_argument("--seed", type=int, default=0)
    rsoak.add_argument("--case", type=int, required=True, metavar="INDEX")
    rsoak.add_argument("--recovery", action="store_true",
                       help="sample from the crash-recovery campaign")
    rsoak.add_argument("--degraded", action="store_true",
                       help="sample from the hostile-link campaign")
    rsoak.add_argument("--out", default="", help="also write JSON here")
    rsoak.set_defaults(handler=cmd_report)

    live = sub.add_parser(
        "live", help="asyncio/UDP transport backend: real-process "
                     "clusters, cross-validation, control plane")
    live_sub = live.add_subparsers(dest="live_command", required=True)

    def _live_scenario_args(command: argparse.ArgumentParser) -> None:
        command.add_argument("--n", type=int, default=3)
        command.add_argument("--algorithm", default="comm-efficient",
                             choices=sorted(OMEGA_ALGORITHMS))
        command.add_argument("--eta", type=float, default=0.1,
                             help="heartbeat period in wall seconds")
        command.add_argument("--initial-timeout", type=float, default=0.5)
        command.add_argument("--horizon", type=float, default=3.0,
                             help="wall seconds each node runs")
        command.add_argument("--seed", type=int, default=0)
        command.add_argument("--consensus", action="store_true",
                             help="also run single-decree consensus on a "
                                  "second plane")
        command.add_argument("--faults", default="", metavar="PLAN",
                             help="nemesis FaultPlan repro string mapped "
                                  "onto real processes, e.g. "
                                  "'crash(t=1.0,pid=2,recover=2.0)'")
        command.add_argument("--rundir", default="",
                             help="directory for node specs/logs/reports "
                                  "(default: a fresh temp dir)")

    lrun = live_sub.add_parser(
        "run", help="spawn a node per pid on loopback UDP, run to the "
                    "horizon, merge and judge the reports")
    _live_scenario_args(lrun)
    lrun.add_argument("--log", action="store_true",
                      help="run a replicated log on the agreement plane "
                           "instead of single-decree consensus")
    lrun.add_argument("--persist", action="store_true",
                      help="back each replica with file-based stable "
                           "storage (crash→respawn recovers from disk)")
    lrun.add_argument("--workload", type=int, default=0, metavar="N",
                      help="drive N client commands through the nodes' "
                           "submit op (needs --log)")
    lrun.add_argument("--out", default="", help="also write JSON here")
    lrun.set_defaults(handler=cmd_live_run)

    lsoak = live_sub.add_parser(
        "soak", help="supervised live soak campaign: the protocol zoo "
                     "(omega, consensus, persistent replicated log + "
                     "client load) under sampled crash/netem plans, "
                     "every run judged and replayable")
    lsoak.add_argument("--cases", type=int, default=None, metavar="N",
                       help="campaign size (default 6; 4 with --quick)")
    lsoak.add_argument("--quick", action="store_true",
                       help="CI-sized campaign: 4 cases covering all "
                            "stacks incl. the persistent log")
    lsoak.add_argument("--seed", type=int, default=0)
    lsoak.add_argument("--horizon", type=float, default=15.0,
                       help="wall seconds each case runs")
    lsoak.add_argument("--case", type=int, action="append", default=[],
                       metavar="I",
                       help="replay only case index I (repeatable); "
                            "sampling is unchanged, so plans are "
                            "byte-identical to the full campaign")
    lsoak.add_argument("--outdir", default="",
                       help="root directory for per-case rundirs "
                            "(default: a fresh temp dir)")
    lsoak.add_argument("--bench-out", default="", metavar="FILE",
                       help="write a repro-bench/v1 report with live "
                            "commit-latency percentiles")
    lsoak.add_argument("--compare", default="", metavar="OLD.json",
                       help="diff this campaign's bench report against "
                            "a previous one (sim or live): verdict "
                            "drift plus per-percentile commit-latency "
                            "drift for shared case ids")
    lsoak.add_argument("--stop-on-failure", action="store_true")
    lsoak.set_defaults(handler=cmd_live_soak)

    lnode = live_sub.add_parser(
        "node", help="one node of a live cluster (spawned by 'live run'; "
                     "rarely typed by hand)")
    lnode.add_argument("--spec", required=True, metavar="NODE.json",
                       help="NodeSpec JSON written by the cluster harness")
    lnode.set_defaults(handler=cmd_live_node)

    lxval = live_sub.add_parser(
        "crossval", help="run the same scenario in-sim and live; diff "
                         "the judged outcomes")
    _live_scenario_args(lxval)
    lxval.set_defaults(handler=cmd_live_crossval)

    lserve = live_sub.add_parser(
        "serve", help="REST control plane for spawning clusters and "
                      "injecting faults (stdlib http.server)")
    lserve.add_argument("--host", default="127.0.0.1")
    lserve.add_argument("--port", type=int, default=8642)
    lserve.set_defaults(handler=cmd_live_serve)

    qos = sub.add_parser("qos", help="failure-detector QoS per algorithm")
    qos.add_argument("--n", type=int, default=6)
    qos.add_argument("--seed", type=int, default=1)
    qos.add_argument("--horizon", type=float, default=300.0)
    qos.add_argument("--gst", type=float, default=5.0)
    qos.set_defaults(handler=cmd_qos)

    algorithms = sub.add_parser("algorithms",
                                help="list algorithms and systems")
    algorithms.set_defaults(handler=cmd_algorithms)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FaultPlanError as error:
        # Invalid fault plans (unknown pids, bad windows...) are user
        # input errors, not crashes: exit cleanly, no traceback.
        raise SystemExit(f"bad fault plan: {error}") from None
