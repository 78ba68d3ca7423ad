"""Run the repository benchmark (workloads and metrics: bench/README.md).

One workload, one process — the form ``BENCHMARK.json`` names::

    python3 bench/run.py --workload log_open --seed 7 --seconds 15 --trace 0

prints every metric by name with its unit, then (last line) one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``
(which also writes ``bench/results/trace-<workload>.json``).  The exit
code is non-zero when a checker or a determinism guard failed.

Without ``--workload`` it is the suite driver: every workload, ``--runs``
times with seeds ``S, S+1, ...`` (plus one traced run with ``--trace
1``), each in a fresh subprocess, collected into ``--out``::

    python3 bench/run.py --seed 7 --runs 10 --trace 1 \\
        --out bench/results/latest.json

Measuring protocol of one sim run: set-up is timed in fresh interpreters
(import + build, ``SETUP_REPEATS`` times); after a small warm-up
pass the workload is driven repeatedly *on the same seed* until
``--seconds`` are used (at least ``MIN_PASSES`` passes), a fixed
calibration chore timed before every set-up and every pass.  ``wall_s``
and ``setup_s`` are the lower quartiles of their repeats, rescaled by
the chore to a reference host speed; every pass must reproduce the first one's event
count and protocol-clock figures exactly, so each run is its own
determinism check.  A live run has no passes: it runs as many staggered
clusters as fit in ``--seconds`` and pools them; its timings are mostly
waiting, so they stay raw.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
RESULTS = ROOT / "bench" / "results"
TMP = ROOT / ".bench_tmp"

MIN_PASSES = 3
SETUP_REPEATS = 5
QUICK_SECONDS = 1
#: What the calibration chore takes on the 2-core VM of the committed
#: baselines when it is quiet; timings are reported at this host speed.
REFERENCE_CHORE_S = 0.08


def _spec() -> dict[str, Any]:
    return json.loads(SPEC.read_text())


def _lower_quartile(values: list[float]) -> float:
    """Interference only ever adds time, so the low quartile of repeated
    timings of the same work is the steadiest estimate of its cost."""
    return statistics.quantiles(values, n=4)[0]


def _quantiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0],
                "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


# ----------------------------------------------------------------------
# Set-up probes (child side and parent side)
# ----------------------------------------------------------------------

def _probe_setup(name: str, seed: int, quick: bool) -> None:
    """In a fresh interpreter: seconds to import the program and build."""
    started = time.perf_counter()
    from bench import workloads
    workloads.make(name, quick).build(seed)
    print(repr(time.perf_counter() - started))


def _child_command(name: str, seed: int, quick: bool) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed)] + (["--quick"] if quick else [])


def _setup_samples(name: str, seed: int, quick: bool,
                   chores: list[float]) -> list[float]:
    samples = []
    for _ in range(SETUP_REPEATS):
        chores.append(_chore())
        done = subprocess.run(
            _child_command(name, seed, quick) + ["--probe-setup"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------

def _chore() -> float:
    """Host seconds a fixed pure-Python chore takes right now.

    Heap, dict and float traffic like the simulator's, but none of the
    program's code: it tracks how fast this host runs Python at the
    moment, whatever a change does to ``src/``.  The shared VMs this
    benchmark runs on drift by 10-30 % for minutes at a time; dividing
    by the chore takes that drift out of ``wall_s`` and ``setup_s``.
    """
    gc.collect()  # or the previous pass's garbage is scanned in here
    heap: list[tuple[float, int]] = []
    table: dict[int, int] = {}
    started = time.perf_counter()
    for index in range(120_000):
        heapq.heappush(heap, ((index * 7919 % 10007) * 1e-3, index))
        table[index & 1023] = table.get(index & 1023, 0) + 1
        if index & 3 == 3:
            heapq.heappop(heap)
    return time.perf_counter() - started


def _timed_passes(workload: Any, seed: int, seconds: float,
                  chores: list[float]) -> list[Any]:
    """Drive the workload on ``seed`` until ``seconds`` are used."""
    from bench.workloads import run_pass

    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        began = time.perf_counter()
        chores.append(_chore())
        passes.append(run_pass(workload, seed))
        cost = time.perf_counter() - began
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() + cost > deadline):
            return passes


def _guard(first: Any, other: Any, what: str) -> list[str]:
    """Determinism guard: same seed, same schedule, same figures."""
    if other.fingerprint() == first.fingerprint():
        return []
    return [f"determinism: {what} differs from the first pass "
            f"(events {other.events} vs {first.events}, "
            f"msgs {other.msgs} vs {first.msgs})"]


def _leaked_children() -> list[str]:
    """Kill and report any child process still alive (a live-node leak)."""
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass  # reaped a finished straggler; look again
    except ChildProcessError:
        return []  # no children left at all: the clean case
    leaks = []
    for listing in Path("/proc/self/task").glob("*/children"):
        for child in listing.read_text().split():
            os.kill(int(child), signal.SIGKILL)
            os.waitpid(int(child), 0)
            leaks.append(f"leak: child process {child} survived the run "
                         f"and was killed")
    return leaks or ["leak: a child process survived the run"]


def _record(result: Any, violations: list[str],
            values: dict[str, float]) -> dict[str, Any]:
    """The result object of one run; a violation fails every operation."""
    return {"correct": not violations, "attempted": result.attempted,
            "failed": result.attempted if violations else result.failed,
            "violations": violations, "values": values}


def _measure_sim(workload: Any, seed: int, seconds: float, quick: bool,
                 ) -> tuple[Any, dict[str, float], dict[str, Any], list[str]]:
    from bench import workloads

    chores: list[float] = []
    setups = _setup_samples(workload.name, seed, quick, chores)
    # Warm-up: the same code paths at --quick size, so the interpreter's
    # adaptive specialisation and the allocator settle before timing.
    workloads.run_pass(workloads.make(workload.name, quick=True), seed)
    passes = _timed_passes(workload, seed, seconds, chores)
    chores.append(_chore())
    first = passes[0]
    violations = list(first.violations)
    for index, other in enumerate(passes[1:], start=2):
        violations += _guard(first, other, f"pass {index}")
    walls = [one.wall_s for one in passes]
    speed = REFERENCE_CHORE_S / _lower_quartile(chores)
    values = {
        "setup_s": _lower_quartile(setups) * speed,
        "wall_s": _lower_quartile(walls) * speed,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"passes": len(passes), "host_speed": speed,
              "raw_wall_s": _quantiles(walls),
              "raw_setup_s": _quantiles(setups),
              "raw_chore_s": _quantiles(chores)}
    return first, values, detail, violations


def _measure_live(workload: Any, seed: int, seconds: float, tmp: Path,
                  ) -> tuple[Any, dict[str, float], dict[str, Any], list[str]]:
    clusters = workload.clusters_for(seconds)
    batch = workload.run_batch(seed, clusters, tmp)
    values = {
        "setup_s": _lower_quartile(batch.setup_samples),
        "wall_s": batch.wall_s,
        "peak_rss_mb": batch.facts["children_rss_mb"],
    }
    detail = {"clusters": clusters,
              "boot_retries": batch.facts["boot_retries"],
              "raw_setup_s": _quantiles(batch.setup_samples)}
    return batch, values, detail, list(batch.violations)


def end_to_end(name: str, seed: int, seconds: float, quick: bool,
               tmp: Path) -> tuple[dict[str, Any], dict[str, Any]]:
    """The ``--trace 0`` run: every end-to-end metric of one workload."""
    from repro.harness import percentile

    from bench import workloads

    workload = workloads.make(name, quick)
    if workload.backend == "sim":
        result, values, detail, violations = _measure_sim(
            workload, seed, seconds, quick)
    else:
        result, values, detail, violations = _measure_live(
            workload, seed, seconds, tmp)
    violations += _leaked_children()
    if not result.latencies:
        raise SystemExit(f"{name}: no operation completed; "
                         f"violations: {violations}")
    values["latency_p50_s"] = percentile(result.latencies, 0.50)
    values["latency_p90_s"] = percentile(result.latencies, 0.90)
    values["msg_cost"] = result.msg_cost
    detail.update(backend=workload.backend,
                  operations=len(result.latencies))
    return _record(result, violations, values), detail


def per_layer(name: str, seed: int, quick: bool,
              tmp: Path) -> tuple[dict[str, Any], dict[str, Any]]:
    """The ``--trace 1`` run: an untraced pass, then the same pass traced."""
    from repro.obs import capture

    from bench import layers, workloads
    from bench.trace import LiveProbe, Tracer

    workload = workloads.make(name, quick)
    micro: dict[str, float] = {}
    tracer = probe = None
    if workload.backend == "sim":
        workloads.run_pass(workloads.make(name, quick=True), seed)
        reference = workloads.run_pass(workload, seed)
        tracer = Tracer()
        tracer.install()
        try:
            with capture(tracer.watch):
                traced = workloads.run_pass(workload, seed)
        finally:
            tracer.remove()
        violations = traced.violations + _guard(reference, traced,
                                                "the traced pass")
        if "issued" in traced.facts:
            micro.update(layers.micro_zipf())
        if name == "log_open":
            micro["load.max_rate_cps"] = workload.max_rate(seed)
        document = tracer.to_json()
    else:
        reference = workload.run_batch(seed, 2, tmp / "reference")
        probe = LiveProbe()
        probe.install()
        try:
            traced = workload.run_batch(seed, 2, tmp / "traced")
        finally:
            probe.remove()
        violations = reference.violations + traced.violations
        micro.update(layers.micro_live(tmp))
        document = {"clock": "host monotonic seconds",
                    "submit_rtt_s": probe.submit_rtts,
                    "lateness_s": probe.lateness}
    violations += _leaked_children()
    names = [metric["name"] for metric in _spec()["per_layer"]]
    values = layers.layer_values(names, reference, traced, tracer, probe,
                                 micro)
    RESULTS.mkdir(parents=True, exist_ok=True)
    trace_path = RESULTS / f"trace-{name}.json"
    trace_path.write_text(json.dumps(
        dict(document, workload=name, seed=seed, quick=quick), indent=1))
    detail = {"backend": workload.backend,
              "trace_file": str(trace_path.relative_to(ROOT))}
    return _record(traced, violations, values), detail


def run_workload(args: argparse.Namespace) -> int:
    """Contract mode: measure one workload, print, exit 0 iff correct."""
    seconds = QUICK_SECONDS if args.quick else args.seconds
    TMP.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP))
    try:
        if args.trace:
            record, detail = per_layer(args.workload, args.seed, args.quick,
                                       tmp)
        else:
            record, detail = end_to_end(args.workload, args.seed, seconds,
                                        args.quick, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass
    spec = _spec()
    units = {metric["name"]: metric["unit"]
             for metric in spec["end_to_end"] + spec["per_layer"]}
    values = record.pop("values")
    detail["violations"] = record.pop("violations")
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  quick {args.quick}")
    for name, value in values.items():
        print(f"  {name:<36} {value:>16.6g} {units[name]}")
    for text in detail["violations"]:
        print(f"VIOLATION: {text}", file=sys.stderr)
    print("# detail " + json.dumps(detail))
    record["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in values.items()}
    print(json.dumps(record))
    return 0 if record["correct"] else 1


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------

def _run_child(name: str, seed: int, seconds: int, trace: int,
               quick: bool) -> dict[str, Any]:
    command = _child_command(name, seed, quick) + [
        "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=180)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{' '.join(command)} printed no result "
                         f"(exit {done.returncode}):\n{done.stderr}")
    record = json.loads(lines[-1])
    record["seed"] = seed
    for line in lines:
        if line.startswith("# detail "):
            record["detail"] = json.loads(line[len("# detail "):])
    sys.stderr.write(done.stderr)
    return record


def run_suite(args: argparse.Namespace) -> int:
    """Every workload in fresh subprocesses, collected into ``--out``."""
    spec = _spec()
    names = [workload["name"] for workload in spec["workloads"]]
    document: dict[str, Any] = {
        "schema": "repro-perfbench/v1", "seed": args.seed,
        "runs": args.runs, "seconds": args.seconds, "quick": args.quick,
        "workloads": {}}
    ok = True
    for name in names:
        entry: dict[str, Any] = {"runs": []}
        for index in range(args.runs):
            record = _run_child(name, args.seed + index, args.seconds, 0,
                                args.quick)
            entry["runs"].append(record)
            ok &= record["correct"]
            print(f"{name} seed {record['seed']}: "
                  + "  ".join(f"{metric}={cell['value']:.6g}{cell['unit']}"
                              for metric, cell in record["metrics"].items())
                  + ("" if record["correct"] else "  INCORRECT"))
        if args.trace:
            entry["trace"] = _run_child(name, args.seed, args.seconds, 1,
                                        args.quick)
            ok &= entry["trace"]["correct"]
            print(f"{name} traced: {len(entry['trace']['metrics'])} "
                  f"per-layer metrics")
        document["workloads"][name] = entry
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(document, indent=1) + "\n")
        print(f"wrote {out}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload "
                        "(default: the whole suite in subprocesses)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time of one run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="small sizes, for the self-check only")
    parser.add_argument("--runs", type=int, default=1,
                        help="suite: untraced runs per workload")
    parser.add_argument("--out", help="suite: write the results here")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        _probe_setup(args.workload, args.seed, args.quick)
        return 0
    if args.seconds is None:
        args.seconds = _spec()["run_seconds"]
    if args.workload:
        return run_workload(args)
    return run_suite(args)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Hash order must not differ between runs or node processes.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    # Import the benchmark as the package ``bench`` (its trace.py must
    # not shadow the standard library's) and the program from src/.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    sys.exit(main())
