"""E4 / Figure 2 — leader failover: re-election latency after a crash.

Two-source system (so losing one leader keeps the assumptions intact):
the elected leader is crashed at t=60 and we measure how long the other
processes take to agree on a new correct leader, as a function of the
heartbeat period η.  Each run is the bench suite's ``e4`` runner
(:mod:`repro.harness.bench`), at this table's own seeds.  A companion
series shows the leader output of one survivor around the crash in the
η = 0.5 s, seed 1 run.
"""

from __future__ import annotations

from _common import emit, mean

from repro.core import analyze_omega_run
from repro.harness import bench, render_table

CRASH_AT = 60.0
SEEDS = (1, 2, 3, 4)


def run_sweep() -> tuple[list[list[object]], list[tuple[float, int]]]:
    rows: list[list[object]] = []
    series: list[tuple[float, int]] = []
    for eta in (0.25, 0.5, 1.0, 2.0):
        latencies = []
        flaps = []
        for seed in SEEDS:
            _, details, cluster = bench._RUNNERS["e4"](eta=eta, seed=seed)
            leader = details["crashed_leader"]
            if details["reelection_latency_s"] is not None:
                latencies.append(details["reelection_latency_s"])
            flaps.append(0 if leader is None
                         else analyze_omega_run(cluster).total_changes)
            if (eta, seed) == (0.5, 1):
                observer = 0 if leader != 0 else 3
                series = [(time, pid) for time, pid
                          in cluster.process(observer).history
                          if time > CRASH_AT - 30.0]
        rows.append([
            eta,
            len(latencies), len(SEEDS),
            mean(latencies) if latencies else None,
            max(latencies) if latencies else None,
            mean([float(f) for f in flaps]),
        ])
    return rows, series


def test_e4_failover() -> None:
    rows, series = run_sweep()
    table = render_table(
        ["eta (s)", "recovered", "runs", "latency mean (s)",
         "latency max (s)", "leader flaps mean"],
        rows,
        title=(f"Figure 2 (E4): re-election latency after crashing the "
               f"leader at t={CRASH_AT}s (n=6, two ◇sources)"))
    transitions = "\n".join(
        f"    t={time:8.3f}s  ->  trusts {pid}" for time, pid in series)
    emit("e4_failover",
         table + "\n\nSurvivor leader-output transitions around the crash "
         "(eta=0.5s):\n" + transitions)
    assert any(row[1] > 0 for row in rows), "failover must succeed somewhere"
