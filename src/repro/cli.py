"""Command-line interface: run the paper's systems from a terminal.

Examples
--------
::

    python -m repro algorithms
    python -m repro omega --algorithm comm-efficient --system source \
        --n 6 --source 2 --horizon 150
    python -m repro omega --algorithm f-source --system f-source \
        --n 5 --source 2 --targets 0,4 --faults 'crash(t=30.0,pid=0)'
    python -m repro omega --algorithm comm-efficient --system relay-tree \
        --n 6 --source 2 --relay
    python -m repro consensus --n 5 --omega comm-efficient \
        --faults 'crash(t=2.0,pid=0)'
    python -m repro log --n 5 --commands 50 --crash-leader-at 20
    python -m repro sweep --n 5 --horizon 400
    python -m repro soak --cases 50 --seed 7
    python -m repro soak --minutes 10
    python -m repro soak --cases 25 --compare soak-before.json
    python -m repro bench --jobs 4 --seed 7
    python -m repro bench --quick --jobs 2 --out bench-smoke.json
    python -m repro bench --experiments e19 --quick --jobs 2 --no-out
    python -m repro bench --experiments e19 --seed 7 --out BENCH_load.json
    python -m repro report scenario --algorithm comm-efficient --n 6
    python -m repro report bench --case-id e2/comm-efficient/n=8
    python -m repro report soak --seed 7 --case 12 --out report.json
    python -m repro live run --n 3 --horizon 3 --consensus
    python -m repro live run --n 3 --horizon 8 --log --persist --workload 10
    python -m repro live soak --cases 4
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

from repro.consensus import ConsensusSystem, check_log, check_single_decree
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
from repro.load import LoadSpec
from repro.sim import Cluster, FaultPlan, FaultPlanError, LinkTimings
from repro.sim.topology import (
    f_source_links,
    multi_source_links,
    relay_tree_links,
    source_links,
)

__all__ = ["main", "build_parser"]


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

    if args.relay or args.system == "relay-tree":
        cluster = _run_relayed(args, timings, config,
                               FaultPlan.from_repro(args.faults))
        relayed = True
    else:
        scenario = OmegaScenario(
            algorithm=args.algorithm, n=args.n, system=args.system,
            source=args.source, targets=_parse_targets(args.targets),
            f=args.f, faults=args.faults, seed=args.seed,
            horizon=args.horizon, timings=timings, config=config)
        cluster = scenario.run().cluster
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
                 config: OmegaConfig, plan: FaultPlan) -> Cluster:
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
    plan.schedule(cluster)
    cluster.start_all()
    cluster.run_until(args.horizon)
    return cluster


# ----------------------------------------------------------------------
# consensus / log
# ----------------------------------------------------------------------

def cmd_consensus(args: argparse.Namespace) -> int:
    if args.omega == "f-source" and args.f is None:
        raise SystemExit("--omega f-source needs --f (its fault bound)")
    timings = LinkTimings(gst=args.gst, fair_loss=args.loss)
    system = ConsensusSystem.build_single_decree(
        args.n, lambda: source_links(args.n, args.source, timings),
        proposals=[f"value-from-{pid}" for pid in range(args.n)],
        omega_name=args.omega, f=args.f, seed=args.seed,
        persist=args.persist)
    FaultPlan.from_repro(args.faults).schedule(system)
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
    return 0 if report.verdict().ok else 1


def cmd_log(args: argparse.Namespace) -> int:
    timings = LinkTimings(gst=args.gst, fair_loss=args.loss)
    sources = (args.source, (args.source + 1) % args.n)
    system = ConsensusSystem.build_replicated_log(
        args.n, lambda: multi_source_links(args.n, sources, timings),
        omega_name=args.omega, seed=args.seed, persist=args.persist)
    try:
        fleet = LoadSpec(
            clients=1, keys=1, arrival="steady", rate=1 / args.period,
            start=5.0, duration=args.commands * args.period).drive(system)
    except (ValueError, ZeroDivisionError) as error:
        raise SystemExit(f"bad log workload (--commands {args.commands}, "
                         f"--period {args.period}): {error}") from None
    system.start_all()
    if args.crash_leader_at is not None:
        system.run_until(args.crash_leader_at)
        leader = system.node(system.up_pids()[0]).omega.leader()
        print(f"crashing leader {leader} at t={args.crash_leader_at}")
        system.crash(leader)
    system.run_until(args.horizon)
    report = check_log(system, fleet.group_payloads[0])
    rows = [[pid, report.committed_by_pid[pid],
             "up" if pid in report.correct else "crashed"]
            for pid in system.pids]
    print(render_table(["replica", "committed entries", "state"], rows,
                       title=f"replicated log (n={args.n}, "
                             f"{args.commands} commands, seed={args.seed})"))
    print(f"\nagreement: {report.agreement}   validity: {report.validity}")
    print(f"all commands committed: {fleet.done()}")
    return 0 if report.verdict().ok and fleet.done() else 1


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


def _run_soak(args: argparse.Namespace, **budget: object) -> list:
    """``soak()`` with the flags both soak commands share; a bad
    campaign is a one-line exit, not a traceback."""
    from repro.harness.soak import soak

    if any(index < 0 for index in args.case):
        raise SystemExit(f"--case must be >= 0, got {args.case}")
    try:
        return soak(soak_seed=args.seed, stop_on_failure=args.stop_on_failure,
                    only=tuple(args.case), **budget)
    except ValueError as error:
        raise SystemExit(f"bad soak campaign: {error}") from None


def _print_soak(results: list, seed: int, campaign: str) -> bool:
    """Print a campaign's case lines, summary, digests and repro lines;
    True iff a case failed or timed out."""
    from repro.harness.soak import campaign_digest, outcome_digest

    marks = {"ok": "ok  ", "fail": "FAIL", "model-violation": "OOM ",
             "timeout": "TIME"}
    failures = [result for result in results if not result.ok]
    for result in results:
        print(f"{marks[result.status]} {result.case.describe()} -- "
              f"{result.detail} outcome={result.outcome}")
    mode = "campaigns" if campaign == "plain" else f"{campaign} campaigns"
    print(f"\n{len(results) - len(failures)}/{len(results)} {mode} ok "
          f"(seed={seed})")
    print(f"campaign digest: "
          f"{campaign_digest([result.case for result in results])}")
    print(f"outcome digest: {outcome_digest(results)}")
    if failures:
        print("\nrepro lines:")
        command = "live soak" if campaign == "live" else "soak"
        flag = "" if campaign in ("plain", "live") else f"--{campaign} "
        for result in failures:
            print(f"  python -m repro {command} --seed {seed} {flag}"
                  f"--case {result.case.index}   # {result.case.describe()}")
    return bool(failures)


def _soak_report(args: argparse.Namespace, results: list,
                 campaign: str) -> bool:
    """Write and/or diff the campaign's bench report (``--bench-out``,
    ``--compare``); True iff a deterministic result drifted."""
    if not (args.bench_out or args.compare):
        return False
    from repro.harness.bench import build_report
    from repro.harness.soak import soak_bench_cases

    report = build_report(
        soak_bench_cases(results), seed=args.seed, jobs=1,
        suite=f"soak:{campaign}",
        wall_s=sum(result.wall_s for result in results))
    return _write_and_compare(report, args.bench_out, args.compare)


def cmd_soak(args: argparse.Namespace) -> int:
    from repro.harness.soak import recovery_control_case

    if args.minutes is not None and args.case:
        raise SystemExit("--case requires --cases mode (a fixed campaign)")
    cases = None if args.minutes is not None else args.cases
    results = _run_soak(args, cases=cases, minutes=args.minutes,
                        campaign=args.campaign)
    failed = _print_soak(results, args.seed, args.campaign)
    # Sim outcomes are deterministic: a moved one fails, as in bench.
    failed = _soak_report(args, results, args.campaign) or failed
    if args.campaign == "recovery":
        # Control pair: the same crash+recover schedule violates
        # agreement without stable storage and holds with it.
        print("\nrecovery control case (why stable storage matters):")
        held = []
        for label, persist in (("persist=False: ", False),
                               ("persist=True:  ", True)):
            ok, detail = recovery_control_case(persist=persist)
            held.append(ok)
            print(f"  {label}"
                  f"{'agreement held' if ok else 'AGREEMENT VIOLATED'}"
                  f" -- {detail}")
        if held != [False, True]:
            print("  control case did not behave as expected")
            return 1
    return 1 if failed else 0


def cmd_bench(args: argparse.Namespace) -> int:
    import time

    from repro.harness import bench

    experiments = (tuple(part.strip().lower()
                         for part in args.experiments.split(",")
                         if part.strip())
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
    sizing = "quick" if args.quick else "full" if args.full else "default"
    ran = [name for name in bench.EXPERIMENTS
           if any(case.experiment == name for case in cases)]
    report = bench.build_report(results, seed=args.seed, jobs=jobs,
                                suite=f"{sizing}:{','.join(ran)}",
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
    latency_rows = [_latency_row(r) for r in results
                    if "latency_s" in r["result"]]
    if latency_rows:
        print()
        print(render_table(
            ["case", "committed", "commits/s", "p50 (s)", "p95 (s)",
             "p99 (s)"], latency_rows, title="commit latency"))
    summary = report["summary"]
    print(f"\n{summary['ok']}/{summary['cases']} cases ok   "
          f"events={summary['events']:,}   "
          f"sim={summary['sim_time_s']:,.0f}s   wall={wall:.1f}s   "
          f"({summary['events'] / wall:,.0f} events/s aggregate)")
    failed = [r["case_id"] for r in results if not r["ok"]]
    if failed:
        print("\nverdict regressions:")
        for case_id in failed:
            print(f"  FAIL {case_id}")
    out = None if args.no_out else args.out or bench.default_output_name()
    drifted = _write_and_compare(report, out, args.compare)
    return 1 if failed or drifted else 0


def _latency_row(result: dict) -> list[object]:
    """One commit-latency table row of a bench result with ``latency_s``."""
    details = result["result"]
    latency = details["latency_s"] or {}
    committed = details.get("committed")
    if committed is None:  # batching rows nest the measured side
        committed = (details.get("batched") or {}).get("committed")
    throughput = details.get("throughput_cps")
    quantiles = [latency.get(key) for key in ("p50", "p95", "p99")]
    return [result["case_id"],
            committed if committed is not None else "-",
            f"{throughput:.1f}" if throughput else "-",
            *(f"{value:.3f}" if isinstance(value, (int, float)) else "-"
              for value in quantiles)]


def _write_and_compare(report: dict, out: str | None, compare: str) -> bool:
    """Write ``report`` to ``out`` and diff it against ``compare``.

    Either step is skipped when its path is empty.  Returns True iff a
    deterministic result drifted from the ``compare`` report.
    """
    from repro.harness.bench import report_to_json

    if out:
        with open(out, "w") as handle:
            handle.write(report_to_json(report))
        print(f"report written to {out}")
    return bool(compare) and _print_compare(report, compare)


def _print_compare(report: dict, compare_path: str) -> bool:
    """Diff ``report`` against an on-disk one; True iff results drifted.

    Prints the events/s drift table, a commit-latency percentile drift
    table when either report carries E19 ``latency_s`` blocks, and the
    added/removed/changed case lists (shared by ``bench --compare`` and
    ``live soak --compare``).
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
            print(f"  CHANGED {case_id}: {', '.join(diff['moved'][case_id])}")
        return True
    print("deterministic results identical for all common cases")
    return False


def _write_valid_report(document: dict, out: str | None) -> bool:
    """Validate a ``repro-report/v1`` document and write it to ``out``.

    Writing is skipped when ``out`` is empty; schema problems are
    printed.  Returns True iff the document validates.
    """
    import json

    from repro.obs import validate_report

    problems = validate_report(document)
    if out:
        with open(out, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {out}")
    if problems:
        print("\nschema problems:")
        for problem in problems:
            print(f"  {problem}")
    return not problems


def cmd_report(args: argparse.Namespace) -> int:
    import time

    from repro.harness import bench
    from repro.obs import bench_case_report, scenario_report, soak_case_report

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
        from repro.harness.soak import CAMPAIGNS

        if args.case < 0:
            raise SystemExit(f"--case must be >= 0, got {args.case}")
        sample = CAMPAIGNS[args.campaign]
        report = soak_case_report(sample(args.seed, args.case))
    wall = time.perf_counter() - started

    print(report.render_text())
    print(f"\nwall time: {wall:.2f}s")
    return 0 if _write_valid_report(report.to_json(), args.out) else 1


def cmd_qos(args: argparse.Namespace) -> int:
    from repro.core import measure_qos

    timings = LinkTimings(gst=args.gst)
    rows = []
    for algorithm in OMEGA_ALGORITHMS:
        if algorithm == "f-source":
            scenario = OmegaScenario(
                algorithm=algorithm, n=args.n, system="f-source",
                source=args.n // 2, targets=(0, args.n - 1), f=2,
                seed=args.seed, horizon=args.horizon, timings=timings)
            crash = False
        else:
            # all-timely and packet-efficient need every link ◇timely.
            system = ("all-et" if algorithm in ("all-timely",
                                                "packet-efficient")
                      else "multi-source")
            scenario = OmegaScenario(
                algorithm=algorithm, n=args.n, system=system,
                sources=(1, 2), seed=args.seed, horizon=args.horizon,
                timings=timings)
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
    import tempfile

    from repro.live import ControlError, LiveCluster, LiveClusterSpec
    from repro.obs import render_report_text

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
    valid = _write_valid_report(document, args.out)
    return 0 if valid and outcome.verdict.ok else 1


def cmd_live_soak(args: argparse.Namespace) -> int:
    results = _run_soak(args, cases=args.cases, campaign="live",
                        outdir=(args.outdir or None))
    failed = _print_soak(results, args.seed, "live")
    # Live rows carry wall-clock latencies, so --compare informs rather
    # than gates: the exit code is the campaign's verdicts.
    _soak_report(args, results, "live")
    return 1 if failed else 0


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
    print("  POST /clusters/<id>/faults  {\"faults\": \"crash(t=0.0,pid=2)\"}")
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

def _add_campaign_flags(parser: argparse.ArgumentParser,
                        **helps: str) -> None:
    """One exclusive ``--NAME`` flag per help text; each stores ``NAME``.

    ``args.campaign`` is then a key of
    :data:`repro.harness.soak.CAMPAIGNS` (``"plain"`` without a flag).
    """
    group = parser.add_mutually_exclusive_group()
    for name, text in helps.items():
        group.add_argument(f"--{name}", dest="campaign",
                           action="store_const", const=name, help=text)
    parser.set_defaults(campaign="plain")


def _add_soak_flags(parser: argparse.ArgumentParser, cases: int) -> None:
    """The campaign flags ``soak`` and ``live soak`` share."""
    parser.add_argument("--cases", type=int, default=cases, metavar="N",
                        help=f"number of campaigns (default {cases}; "
                             f"ignored with --case)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--case", action="append", type=int, default=[],
                        metavar="INDEX",
                        help="replay only this case index (repeatable, any "
                             "index >= 0: sampling is keyed by (seed, "
                             "INDEX))")
    parser.add_argument("--stop-on-failure", action="store_true",
                        help="stop at the first failing campaign")
    parser.add_argument("--bench-out", default="", metavar="FILE",
                        help="write a repro-bench/v1 report, a row per case")
    parser.add_argument("--compare", default="", metavar="OLD.json",
                        help="diff against an earlier --bench-out report: "
                             "each moved case and what moved in it")


#: The sim commands' fault script: nemesis repro tokens, crashes included.
_FAULTS_FLAG = dict(
    default="", metavar="PLAN",
    help="nemesis FaultPlan repro string, e.g. 'crash(t=30.0,pid=0)' or "
         "'crash(t=2.0,pid=1,recover=9.0) pause(t=20.0,pid=1,dur=5.0)'")


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
    omega.add_argument("--faults", **_FAULTS_FLAG)
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
    consensus.add_argument("--faults", **_FAULTS_FLAG)
    consensus.add_argument("--persist", action="store_true",
                           help="acceptor state on stable storage "
                                "(survives crash+recover bounces)")
    consensus.set_defaults(handler=cmd_consensus)

    log = sub.add_parser("log", help="run the replicated log")
    log.add_argument("--n", type=int, default=5)
    log.add_argument("--omega", default="comm-efficient",
                     choices=sorted(set(OMEGA_ALGORITHMS) - {"f-source"}))
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

    soak_cmd = sub.add_parser(
        "soak", help="long randomized nemesis campaigns over all "
                     "algorithms and stacks")
    _add_soak_flags(soak_cmd, cases=50)
    soak_cmd.add_argument("--minutes", type=float, default=None,
                          help="wall-clock budget instead of a fixed count")
    _add_campaign_flags(
        soak_cmd,
        degraded="hostile-link campaign: every Omega under sustained "
                 "loss/delay storms, flapping and duplication, half "
                 "adaptive_qos",
        recovery="crash-recovery campaign: persisted stacks, "
                 "crash+recover fault plans, control case")
    soak_cmd.set_defaults(handler=cmd_soak)

    bench_cmd = sub.add_parser(
        "bench", help="parallel experiment suite (E1-E4, E17 packet "
                      "budgets, E18 large-n census, E19 client load with "
                      "p50/p95/p99 commit latency) with a machine-readable "
                      "BENCH_<date>.json report")
    bench_cmd.add_argument("--jobs", type=int, default=0,
                           help="worker processes (default: all CPU cores); "
                                "results are identical at any level")
    bench_cmd.add_argument("--seed", type=int, default=7)
    bench_cmd.add_argument("--quick", action="store_true",
                           help="CI-smoke sizing (small n, short horizons)")
    bench_cmd.add_argument("--full", action="store_true",
                           help="include the heaviest rows (E3 at n=128, "
                                "E18 at n=512, 1024 and 2048)")
    bench_cmd.add_argument("--experiments", default="",
                           metavar="E1,E2,...",
                           help="comma-separated subset of "
                                "e1,e2,e3,e4,e17,e18,e19 (any case)")
    bench_cmd.add_argument("--filter", default="", metavar="GLOB",
                           help="run only cases whose case_id matches this "
                                "glob (e.g. 'e18/*' or '*/n=32')")
    bench_cmd.add_argument("--compare", default="", metavar="OLD.json",
                           help="diff the fresh report against a previous "
                                "one: print per-case events/s and commit-"
                                "latency drift, exit nonzero if any "
                                "deterministic result changed")
    bench_cmd.add_argument("--out", default="",
                           help="report path (default BENCH_<date>.json)")
    bench_cmd.add_argument("--no-out", action="store_true",
                           help="print tables only, write no JSON")
    bench_cmd.set_defaults(handler=cmd_bench)

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
    _add_campaign_flags(
        rsoak, recovery="sample from the crash-recovery campaign",
        degraded="sample from the hostile-link campaign")
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
                                  "(default: a fresh temp dir per case)")

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
    _add_soak_flags(lsoak, cases=6)
    lsoak.add_argument("--outdir", default="",
                       help="root directory for per-case rundirs "
                            "(default: a fresh temp dir per case)")
    lsoak.set_defaults(handler=cmd_live_soak)

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
