"""Compare two benchmark result files by the rules of ``BENCHMARK.json``.

    python3 bench/compare.py bench/results/baseline-a.json \\
        bench/results/baseline-b.json [--same-commit] [--layers]

One row per (workload, end-to-end metric): each side's median and
quartiles over its runs, the change of the median in the metric's
*worse* direction, and a status:

``regression``  B's median is worse than A's by more than the bound;
``unresolved``  the run-to-run spread (quartile distance / median) of a
                side exceeds the bound, so the medians prove nothing —
                unless every run of B beats every run of A;
``improved``    B is better by more than the bound (or beats A run for
                run);
``ok``          anything else.

Operations failed per operation attempted is compared per workload; any
increase is a regression.  With ``--same-commit`` the two files must
come from the same code, so on the sim workloads every protocol-clock
metric (and ``sim.engine.events`` of the traced runs) has to repeat
exactly for equal seeds.  ``--layers`` adds the per-layer metrics of the
traced runs, side by side (they have no bound).

Exit code 1 on a regression, a higher failed ratio, an incorrect run or
a ``--same-commit`` mismatch.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Metrics read off the protocol clock: deterministic per seed on the sim.
PROTOCOL_CLOCK = ("latency_p50_s", "latency_p90_s", "msg_cost")


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    change = (b - a) / abs(a) if a else 0.0
    return change if better == "lower" else -change


def _status(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, float]:
    qa, qb = _quartiles(a), _quartiles(b)
    worse = _worse_by(qa[1], qb[1], better)
    if better == "lower":
        b_always_better = max(b) < min(a)
    else:
        b_always_better = min(b) > max(a)
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0
                 for q in (qa, qb))
    if b_always_better:
        return "improved", worse
    if spread > bound:
        return "unresolved", worse
    if worse > bound:
        return "regression", worse
    return ("improved" if worse < -bound else "ok"), worse


def _values(entry: dict[str, Any], metric: str) -> list[float]:
    return [run["metrics"][metric]["value"] for run in entry["runs"]]


def _failed_ratio(entry: dict[str, Any]) -> float:
    return (sum(run["failed"] for run in entry["runs"])
            / sum(run["attempted"] for run in entry["runs"]))


def _same_commit_mismatches(name: str, a: dict[str, Any],
                            b: dict[str, Any]) -> list[str]:
    """Sim workloads: equal seeds must give equal protocol-clock figures."""
    out = []
    by_seed = {run["seed"]: run for run in b["runs"]}
    for run in a["runs"]:
        other = by_seed.get(run["seed"])
        if other is None or run["detail"]["backend"] != "sim":
            continue
        for metric in PROTOCOL_CLOCK:
            left = run["metrics"][metric]["value"]
            right = other["metrics"][metric]["value"]
            if left != right:
                out.append(f"{name} seed {run['seed']}: {metric} "
                           f"{left!r} != {right!r}")
    if "trace" in a and "trace" in b \
            and a["trace"]["seed"] == b["trace"]["seed"]:
        left = a["trace"]["metrics"]["sim.engine.events"]["value"]
        right = b["trace"]["metrics"]["sim.engine.events"]["value"]
        if left != right:
            out.append(f"{name}: sim.engine.events {left!r} != {right!r}")
    return out


def compare(a: dict[str, Any], b: dict[str, Any], spec: dict[str, Any],
            same_commit: bool = False, layers: bool = False) -> int:
    """Print the comparison; return the exit code."""
    failures: list[str] = []
    header = (f"{'workload':<15} {'metric':<15} {'A q1/median/q3':>32} "
              f"{'B q1/median/q3':>32} {'worse by':>9}  status")
    print(header)
    print("-" * len(header))
    for workload in spec["workloads"]:
        name = workload["name"]
        ea, eb = a["workloads"].get(name), b["workloads"].get(name)
        if ea is None or eb is None:
            failures.append(f"{name}: missing from one result file")
            continue
        for metric in spec["end_to_end"]:
            va, vb = _values(ea, metric["name"]), _values(eb, metric["name"])
            status, worse = _status(va, vb, metric["better"],
                                    metric["bound"])
            cells = ["/".join(f"{value:.5g}" for value in _quartiles(side))
                     for side in (va, vb)]
            print(f"{name:<15} {metric['name']:<15} {cells[0]:>32} "
                  f"{cells[1]:>32} {worse:>+9.1%}  {status}")
            if status == "regression":
                failures.append(
                    f"{name}: {metric['name']} worse by {worse:.1%} "
                    f"(bound {metric['bound']:.0%})")
        ratio_a, ratio_b = _failed_ratio(ea), _failed_ratio(eb)
        print(f"{name:<15} {'failed_ratio':<15} {ratio_a:>32.6g} "
              f"{ratio_b:>32.6g} {'':>9}  "
              f"{'regression' if ratio_b > ratio_a else 'ok'}")
        if ratio_b > ratio_a:
            failures.append(f"{name}: failed ratio rose from {ratio_a:.6g} "
                            f"to {ratio_b:.6g}")
        for label, entry in (("A", ea), ("B", eb)):
            runs = entry["runs"] + ([entry["trace"]] if "trace" in entry
                                    else [])
            if not all(run["correct"] for run in runs):
                failures.append(f"{name}: file {label} holds an "
                                f"incorrect run")
        if same_commit:
            failures += _same_commit_mismatches(name, ea, eb)
        if layers and "trace" in ea and "trace" in eb:
            for metric in spec["per_layer"]:
                left = ea["trace"]["metrics"][metric["name"]]["value"]
                right = eb["trace"]["metrics"][metric["name"]]["value"]
                if left or right:
                    print(f"{name:<15} {metric['name']:<34} "
                          f"{left:>14.6g} {right:>14.6g} {metric['unit']}")
    for text in failures:
        print(f"FAIL: {text}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="the parent's result file")
    parser.add_argument("b", type=Path, help="the change's result file")
    parser.add_argument("--same-commit", action="store_true",
                        help="both files measure the same code: sim "
                        "figures must repeat exactly")
    parser.add_argument("--layers", action="store_true",
                        help="also print the per-layer metrics")
    args = parser.parse_args(argv)
    return compare(json.loads(args.a.read_text()),
                   json.loads(args.b.read_text()),
                   json.loads(SPEC.read_text()),
                   same_commit=args.same_commit, layers=args.layers)


if __name__ == "__main__":
    sys.exit(main())
